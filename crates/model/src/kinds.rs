//! Payload types for the different element kinds plus the small value
//! vocabulary shared by all of them (visibility, multiplicity, type
//! references, tagged values).

use crate::id::ElementId;
use std::fmt;

/// UML visibility of a feature or classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// Visible everywhere (`+`).
    #[default]
    Public,
    /// Visible to subclasses (`#`).
    Protected,
    /// Visible within the owning package (`~`).
    Package,
    /// Visible only to the owning classifier (`-`).
    Private,
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Visibility::Public => "+",
            Visibility::Protected => "#",
            Visibility::Package => "~",
            Visibility::Private => "-",
        };
        f.write_str(s)
    }
}

/// Built-in primitive types of the metamodel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Real,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Absence of a value (operation return type only).
    Void,
}

impl Primitive {
    /// The canonical model-level name of this primitive.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::Int => "Integer",
            Primitive::Real => "Real",
            Primitive::Bool => "Boolean",
            Primitive::Str => "String",
            Primitive::Void => "Void",
        }
    }

    /// Parses a canonical primitive name, the inverse of [`Primitive::name`].
    pub fn parse(name: &str) -> Option<Primitive> {
        match name {
            "Integer" => Some(Primitive::Int),
            "Real" => Some(Primitive::Real),
            "Boolean" => Some(Primitive::Bool),
            "String" => Some(Primitive::Str),
            "Void" => Some(Primitive::Void),
            _ => None,
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A reference to a type usable by attributes, parameters and operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// One of the built-in primitives.
    Primitive(Primitive),
    /// A classifier (class, interface, enumeration, data type) in the
    /// same model.
    Element(ElementId),
}

impl TypeRef {
    /// Convenience constructor for the `Void` primitive.
    pub fn void() -> TypeRef {
        TypeRef::Primitive(Primitive::Void)
    }

    /// Returns the referenced element id if this is an element reference.
    pub fn element(self) -> Option<ElementId> {
        match self {
            TypeRef::Element(id) => Some(id),
            TypeRef::Primitive(_) => None,
        }
    }
}

impl From<Primitive> for TypeRef {
    fn from(p: Primitive) -> Self {
        TypeRef::Primitive(p)
    }
}

/// UML multiplicity (`lower..upper`, `upper = None` meaning `*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Multiplicity {
    /// Minimum number of values.
    pub lower: u32,
    /// Maximum number of values; `None` is unbounded (`*`).
    pub upper: Option<u32>,
}

impl Multiplicity {
    /// Exactly one (`1..1`).
    pub fn one() -> Self {
        Multiplicity { lower: 1, upper: Some(1) }
    }

    /// Zero or one (`0..1`).
    pub fn optional() -> Self {
        Multiplicity { lower: 0, upper: Some(1) }
    }

    /// Zero or more (`0..*`).
    pub fn many() -> Self {
        Multiplicity { lower: 0, upper: None }
    }

    /// Returns true when `lower <= upper` (or upper unbounded).
    pub fn is_valid(self) -> bool {
        self.upper.is_none_or(|u| self.lower <= u)
    }
}

impl Default for Multiplicity {
    fn default() -> Self {
        Multiplicity::one()
    }
}

impl fmt::Display for Multiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.upper {
            Some(u) if u == self.lower => write!(f, "{}", u),
            Some(u) => write!(f, "{}..{}", self.lower, u),
            None => write!(f, "{}..*", self.lower),
        }
    }
}

/// Value of a tagged value attached to a model element.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValue {
    /// String payload.
    Str(String),
    /// Integer payload.
    Int(i64),
    /// Boolean payload.
    Bool(bool),
    /// Real payload.
    Real(f64),
    /// Homogeneous-ish list payload.
    List(Vec<TagValue>),
}

impl TagValue {
    /// Returns the string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TagValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TagValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TagValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for TagValue {
    fn from(s: &str) -> Self {
        TagValue::Str(s.to_owned())
    }
}

impl From<String> for TagValue {
    fn from(s: String) -> Self {
        TagValue::Str(s)
    }
}

impl From<i64> for TagValue {
    fn from(i: i64) -> Self {
        TagValue::Int(i)
    }
}

impl From<bool> for TagValue {
    fn from(b: bool) -> Self {
        TagValue::Bool(b)
    }
}

impl fmt::Display for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagValue::Str(s) => write!(f, "{s}"),
            TagValue::Int(i) => write!(f, "{i}"),
            TagValue::Bool(b) => write!(f, "{b}"),
            TagValue::Real(r) => write!(f, "{r}"),
            TagValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Direction of an operation parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Input parameter.
    #[default]
    In,
    /// Output parameter.
    Out,
    /// Input/output parameter.
    InOut,
    /// The distinguished return "parameter".
    Return,
}

/// Aggregation kind of an association end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationKind {
    /// Plain association end.
    #[default]
    None,
    /// Shared aggregation (open diamond).
    Shared,
    /// Composite aggregation (filled diamond).
    Composite,
}

/// Payload of a package element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackageData {}

/// Payload of a class element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassData {
    /// Abstract classes cannot be instantiated.
    pub is_abstract: bool,
    /// Active classes own their thread of control (UML 1.4 `isActive`).
    pub is_active: bool,
}

/// Payload of an interface element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InterfaceData {}

/// Payload of a data-type element (user-defined value type).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataTypeData {}

/// Payload of an enumeration element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnumerationData {
    /// Ordered enumeration literals.
    pub literals: Vec<String>,
}

/// Payload of an attribute element.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeData {
    /// Declared type.
    pub ty: TypeRef,
    /// Multiplicity of the attribute slot.
    pub multiplicity: Multiplicity,
    /// Class-scoped (static) attribute.
    pub is_static: bool,
    /// Read-only (frozen) attribute.
    pub is_read_only: bool,
    /// Optional default value rendered as text.
    pub default: Option<String>,
}

impl Default for AttributeData {
    fn default() -> Self {
        AttributeData {
            ty: TypeRef::Primitive(Primitive::Str),
            multiplicity: Multiplicity::one(),
            is_static: false,
            is_read_only: false,
            default: None,
        }
    }
}

/// Payload of an operation element. Parameters are child elements.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationData {
    /// Return type of the operation.
    pub return_type: TypeRef,
    /// Class-scoped (static) operation.
    pub is_static: bool,
    /// Abstract operation (no body at model level).
    pub is_abstract: bool,
    /// Query operations do not modify state.
    pub is_query: bool,
}

impl Default for OperationData {
    fn default() -> Self {
        OperationData {
            return_type: TypeRef::void(),
            is_static: false,
            is_abstract: false,
            is_query: false,
        }
    }
}

/// Payload of a parameter element (child of an operation).
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterData {
    /// Declared type.
    pub ty: TypeRef,
    /// Parameter direction.
    pub direction: Direction,
}

impl Default for ParameterData {
    fn default() -> Self {
        ParameterData { ty: TypeRef::Primitive(Primitive::Str), direction: Direction::In }
    }
}

/// One end of a binary association.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationEnd {
    /// Role name of this end (may be empty).
    pub role: String,
    /// The classifier this end attaches to.
    pub class: ElementId,
    /// Multiplicity at this end.
    pub multiplicity: Multiplicity,
    /// Whether the opposite classifier can navigate to this end.
    pub navigable: bool,
    /// Aggregation kind at this end.
    pub aggregation: AggregationKind,
}

impl AssociationEnd {
    /// Creates a navigable, non-aggregated end with multiplicity `1`.
    pub fn new(role: impl Into<String>, class: ElementId) -> Self {
        AssociationEnd {
            role: role.into(),
            class,
            multiplicity: Multiplicity::one(),
            navigable: true,
            aggregation: AggregationKind::None,
        }
    }
}

/// Payload of a binary association element.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationData {
    /// The two association ends.
    pub ends: [AssociationEnd; 2],
}

/// Payload of a generalization (inheritance) element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizationData {
    /// The more specific classifier.
    pub child: ElementId,
    /// The more general classifier.
    pub parent: ElementId,
}

/// Payload of a dependency element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DependencyData {
    /// The dependent element.
    pub client: ElementId,
    /// The element being depended upon.
    pub supplier: ElementId,
}

/// Payload of a constraint element (body is OCL-like text).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintData {
    /// Constrained element.
    pub constrained: ElementId,
    /// Constraint body, an expression in the `comet-ocl` language.
    pub body: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_display_and_validity() {
        assert_eq!(Multiplicity::one().to_string(), "1");
        assert_eq!(Multiplicity::optional().to_string(), "0..1");
        assert_eq!(Multiplicity::many().to_string(), "0..*");
        assert!(Multiplicity::one().is_valid());
        assert!(!Multiplicity { lower: 3, upper: Some(2) }.is_valid());
    }

    #[test]
    fn primitive_name_round_trip() {
        for p in [Primitive::Int, Primitive::Real, Primitive::Bool, Primitive::Str, Primitive::Void]
        {
            assert_eq!(Primitive::parse(p.name()), Some(p));
        }
        assert_eq!(Primitive::parse("Gadget"), None);
    }

    #[test]
    fn tag_value_accessors() {
        assert_eq!(TagValue::from("x").as_str(), Some("x"));
        assert_eq!(TagValue::from(7i64).as_int(), Some(7));
        assert_eq!(TagValue::from(true).as_bool(), Some(true));
        assert_eq!(TagValue::Int(1).as_str(), None);
        let l = TagValue::List(vec![TagValue::Int(1), TagValue::Int(2)]);
        assert_eq!(l.to_string(), "[1, 2]");
    }

    #[test]
    fn visibility_glyphs() {
        assert_eq!(Visibility::Public.to_string(), "+");
        assert_eq!(Visibility::Private.to_string(), "-");
        assert_eq!(Visibility::Protected.to_string(), "#");
        assert_eq!(Visibility::Package.to_string(), "~");
    }

    #[test]
    fn type_ref_helpers() {
        let id = ElementId::from_raw(5);
        assert_eq!(TypeRef::Element(id).element(), Some(id));
        assert_eq!(TypeRef::void().element(), None);
        assert_eq!(TypeRef::from(Primitive::Int), TypeRef::Primitive(Primitive::Int));
    }
}
