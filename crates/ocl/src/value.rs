//! Runtime values of the OCL-like language.

use comet_model::ElementId;
use std::fmt;

/// A value produced by evaluating an OCL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// A model element.
    Element(ElementId),
    /// An ordered collection.
    Collection(Vec<Value>),
    /// `OclUndefined`: the result of navigating something absent.
    Undefined,
}

impl Value {
    /// OCL-facing type name used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "Integer",
            Value::Real(_) => "Real",
            Value::Bool(_) => "Boolean",
            Value::Str(_) => "String",
            Value::Element(_) => "Element",
            Value::Collection(_) => "Collection",
            Value::Undefined => "OclUndefined",
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Collection payload, if this is a collection.
    pub fn as_collection(&self) -> Option<&[Value]> {
        match self {
            Value::Collection(c) => Some(c),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64`, for mixed arithmetic.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// True when this is [`Value::Undefined`].
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Element(id) => write!(f, "{id}"),
            Value::Collection(items) => {
                write!(f, "Sequence{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Undefined => write!(f, "OclUndefined"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<ElementId> for Value {
    fn from(id: ElementId) -> Self {
        Value::Element(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_number(), Some(3.0));
        assert_eq!(Value::Real(1.5).as_number(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Undefined.is_undefined());
        assert_eq!(Value::Str("s".into()).as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(
            Value::Collection(vec![Value::Int(1), Value::from("a")]).to_string(),
            "Sequence{1, 'a'}"
        );
        assert_eq!(Value::Undefined.to_string(), "OclUndefined");
        assert_eq!(Value::Element(ElementId::from_raw(2)).to_string(), "#2");
    }
}
