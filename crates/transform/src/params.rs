//! Parameter sets (`Si = Set(P_ik)`) and typed parameter schemas.

use std::collections::BTreeMap;
use std::fmt;

/// A parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// String parameter.
    Str(String),
    /// Integer parameter.
    Int(i64),
    /// Boolean parameter.
    Bool(bool),
    /// List-of-strings parameter (e.g. the methods to make transactional).
    StrList(Vec<String>),
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}

impl From<i64> for ParamValue {
    fn from(i: i64) -> Self {
        ParamValue::Int(i)
    }
}

impl From<bool> for ParamValue {
    fn from(b: bool) -> Self {
        ParamValue::Bool(b)
    }
}

impl From<Vec<String>> for ParamValue {
    fn from(v: Vec<String>) -> Self {
        ParamValue::StrList(v)
    }
}

impl From<&[&str]> for ParamValue {
    fn from(v: &[&str]) -> Self {
        ParamValue::StrList(v.iter().map(|s| (*s).to_owned()).collect())
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Str(s) => write!(f, "{s}"),
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::StrList(v) => write!(f, "[{}]", v.join(", ")),
        }
    }
}

/// Declared type of a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamType {
    /// Any string.
    Str,
    /// Any integer.
    Int,
    /// A boolean.
    Bool,
    /// A list of strings.
    StrList,
    /// A string restricted to the given choices.
    Choice(Vec<String>),
}

impl ParamType {
    fn accepts(&self, value: &ParamValue) -> bool {
        match (self, value) {
            (ParamType::Str, ParamValue::Str(_)) => true,
            (ParamType::Int, ParamValue::Int(_)) => true,
            (ParamType::Bool, ParamValue::Bool(_)) => true,
            (ParamType::StrList, ParamValue::StrList(_)) => true,
            (ParamType::Choice(options), ParamValue::Str(s)) => options.iter().any(|o| o == s),
            _ => false,
        }
    }
}

/// One parameter declaration (a `P_ik` slot).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: ParamType,
    /// Whether the specialization must supply it.
    pub required: bool,
    /// Default used when not required and absent.
    pub default: Option<ParamValue>,
    /// Human-facing description (shown by configuration wizards).
    pub doc: String,
}

/// The typed parameter schema of a generic transformation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSchema {
    specs: Vec<ParamSpec>,
}

impl ParamSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary spec, builder style.
    fn param(mut self, spec: ParamSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a string parameter.
    pub fn string(self, name: &str, required: bool, default: Option<&str>) -> Self {
        self.param(ParamSpec {
            name: name.to_owned(),
            ty: ParamType::Str,
            required,
            default: default.map(ParamValue::from),
            doc: String::new(),
        })
    }

    /// Adds a string-list parameter.
    pub fn str_list(self, name: &str, required: bool) -> Self {
        self.param(ParamSpec {
            name: name.to_owned(),
            ty: ParamType::StrList,
            required,
            default: Some(ParamValue::StrList(Vec::new())),
            doc: String::new(),
        })
    }

    /// Adds a choice parameter with a default.
    pub fn choice(self, name: &str, options: &[&str], default: &str) -> Self {
        self.param(ParamSpec {
            name: name.to_owned(),
            ty: ParamType::Choice(options.iter().map(|s| (*s).to_owned()).collect()),
            required: false,
            default: Some(ParamValue::from(default)),
            doc: String::new(),
        })
    }

    /// Adds an integer parameter with a default.
    pub fn integer(self, name: &str, default: i64) -> Self {
        self.param(ParamSpec {
            name: name.to_owned(),
            ty: ParamType::Int,
            required: false,
            default: Some(ParamValue::Int(default)),
            doc: String::new(),
        })
    }

    /// Adds a boolean parameter with a default.
    pub fn boolean(self, name: &str, default: bool) -> Self {
        self.param(ParamSpec {
            name: name.to_owned(),
            ty: ParamType::Bool,
            required: false,
            default: Some(ParamValue::Bool(default)),
            doc: String::new(),
        })
    }

    /// The declared specs in order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    /// Validates a parameter set against this schema and returns the
    /// *effective* set: defaults filled in, every value type-checked.
    ///
    /// # Errors
    /// Reports the first missing, unknown or ill-typed parameter.
    pub fn validate(&self, params: &ParamSet) -> Result<ParamSet, ParamError> {
        for key in params.values.keys() {
            if !self.specs.iter().any(|s| &s.name == key) {
                return Err(ParamError::Unknown(key.clone()));
            }
        }
        let mut effective = ParamSet::new();
        for spec in &self.specs {
            match params.values.get(&spec.name) {
                Some(v) => {
                    if !spec.ty.accepts(v) {
                        return Err(ParamError::WrongType {
                            name: spec.name.clone(),
                            expected: format!("{:?}", spec.ty),
                            found: v.to_string(),
                        });
                    }
                    effective.values.insert(spec.name.clone(), v.clone());
                }
                None => {
                    if spec.required {
                        return Err(ParamError::Missing(spec.name.clone()));
                    }
                    if let Some(d) = &spec.default {
                        effective.values.insert(spec.name.clone(), d.clone());
                    }
                }
            }
        }
        Ok(effective)
    }
}

/// The paper's `Si`: concrete parameter values for one specialization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSet {
    values: BTreeMap<String, ParamValue>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a value, builder style.
    pub fn with(mut self, name: &str, value: ParamValue) -> Self {
        self.values.insert(name.to_owned(), value);
        self
    }

    /// Raw lookup.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.values.get(name)
    }

    /// String lookup.
    ///
    /// # Errors
    /// Fails when absent or not a string.
    pub fn str(&self, name: &str) -> Result<&str, ParamError> {
        match self.values.get(name) {
            Some(ParamValue::Str(s)) => Ok(s),
            Some(other) => Err(ParamError::WrongType {
                name: name.to_owned(),
                expected: "Str".into(),
                found: other.to_string(),
            }),
            None => Err(ParamError::Missing(name.to_owned())),
        }
    }

    /// Integer lookup.
    ///
    /// # Errors
    /// Fails when absent or not an integer.
    pub fn int(&self, name: &str) -> Result<i64, ParamError> {
        match self.values.get(name) {
            Some(ParamValue::Int(i)) => Ok(*i),
            Some(other) => Err(ParamError::WrongType {
                name: name.to_owned(),
                expected: "Int".into(),
                found: other.to_string(),
            }),
            None => Err(ParamError::Missing(name.to_owned())),
        }
    }

    /// Boolean lookup.
    ///
    /// # Errors
    /// Fails when absent or not a boolean.
    pub fn bool(&self, name: &str) -> Result<bool, ParamError> {
        match self.values.get(name) {
            Some(ParamValue::Bool(b)) => Ok(*b),
            Some(other) => Err(ParamError::WrongType {
                name: name.to_owned(),
                expected: "Bool".into(),
                found: other.to_string(),
            }),
            None => Err(ParamError::Missing(name.to_owned())),
        }
    }

    /// String-list lookup.
    ///
    /// # Errors
    /// Fails when absent or not a string list.
    pub fn str_list(&self, name: &str) -> Result<&[String], ParamError> {
        match self.values.get(name) {
            Some(ParamValue::StrList(v)) => Ok(v),
            Some(other) => Err(ParamError::WrongType {
                name: name.to_owned(),
                expected: "StrList".into(),
                found: other.to_string(),
            }),
            None => Err(ParamError::Missing(name.to_owned())),
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Renders `<p1=v1, p2=v2>`; used to name concrete transformations
    /// and aspects (`T1<p11, p12, ...>` in the paper's Fig. 2).
    pub fn angle_signature(&self) -> String {
        let inner: Vec<String> = self.values.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("<{}>", inner.join(", "))
    }
}

impl fmt::Display for ParamSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.angle_signature())
    }
}

/// Parameter validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// A required parameter is absent.
    Missing(String),
    /// A supplied parameter is not in the schema.
    Unknown(String),
    /// A supplied value has the wrong type or is outside the choices.
    WrongType {
        /// Parameter name.
        name: String,
        /// Declared type.
        expected: String,
        /// Offending value.
        found: String,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Missing(n) => write!(f, "missing required parameter `{n}`"),
            ParamError::Unknown(n) => write!(f, "unknown parameter `{n}`"),
            ParamError::WrongType { name, expected, found } => {
                write!(f, "parameter `{name}` expects {expected}, got `{found}`")
            }
        }
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ParamSchema {
        ParamSchema::new()
            .string("node", true, None)
            .choice("isolation", &["read-committed", "serializable"], "read-committed")
            .str_list("methods", false)
            .boolean("audit", false)
    }

    #[test]
    fn validate_fills_defaults() {
        let s = schema();
        let effective =
            s.validate(&ParamSet::new().with("node", ParamValue::from("server"))).unwrap();
        assert_eq!(effective.str("node").unwrap(), "server");
        assert_eq!(effective.str("isolation").unwrap(), "read-committed");
        assert_eq!(effective.str_list("methods").unwrap().len(), 0);
        assert!(!effective.bool("audit").unwrap());
        assert_eq!(effective.len(), 4);
    }

    #[test]
    fn validate_rejects_missing_unknown_illtyped() {
        let s = schema();
        assert_eq!(s.validate(&ParamSet::new()), Err(ParamError::Missing("node".into())));
        assert_eq!(
            s.validate(
                &ParamSet::new()
                    .with("node", ParamValue::from("n"))
                    .with("ghost", ParamValue::from("x"))
            ),
            Err(ParamError::Unknown("ghost".into()))
        );
        assert!(matches!(
            s.validate(&ParamSet::new().with("node", ParamValue::Int(3))),
            Err(ParamError::WrongType { .. })
        ));
        // Choice outside options.
        assert!(matches!(
            s.validate(
                &ParamSet::new()
                    .with("node", ParamValue::from("n"))
                    .with("isolation", ParamValue::from("chaotic"))
            ),
            Err(ParamError::WrongType { .. })
        ));
    }

    #[test]
    fn typed_lookups() {
        let p = ParamSet::new()
            .with("s", ParamValue::from("x"))
            .with("i", ParamValue::Int(3))
            .with("b", ParamValue::Bool(true))
            .with("l", ParamValue::from(vec!["a".to_owned()]));
        assert_eq!(p.str("s").unwrap(), "x");
        assert_eq!(p.int("i").unwrap(), 3);
        assert!(p.bool("b").unwrap());
        assert_eq!(p.str_list("l").unwrap(), &["a".to_owned()]);
        assert!(matches!(p.str("i"), Err(ParamError::WrongType { .. })));
        assert!(matches!(p.int("missing"), Err(ParamError::Missing(_))));
        assert!(!p.is_empty());
    }

    #[test]
    fn angle_signature_matches_paper_notation() {
        let p = ParamSet::new().with("p11", ParamValue::from("a")).with("p12", ParamValue::Int(2));
        assert_eq!(p.angle_signature(), "<p11=a, p12=2>");
        assert_eq!(p.to_string(), "<p11=a, p12=2>");
    }

    #[test]
    fn from_impls() {
        assert_eq!(ParamValue::from("x"), ParamValue::Str("x".into()));
        assert_eq!(ParamValue::from(5i64), ParamValue::Int(5));
        assert_eq!(ParamValue::from(true), ParamValue::Bool(true));
        let slice: &[&str] = &["a", "b"];
        assert_eq!(ParamValue::from(slice), ParamValue::StrList(vec!["a".into(), "b".into()]));
    }
}
