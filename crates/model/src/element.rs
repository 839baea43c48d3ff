//! Model elements: a common core (name, owner, stereotypes, tagged
//! values) plus a kind-specific payload.

use crate::id::ElementId;
use crate::kinds::*;
use std::collections::BTreeMap;
use std::fmt;

/// Data shared by every element regardless of kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCore {
    /// Simple (unqualified) name.
    pub name: String,
    /// Owning element (`None` only for the model root package).
    pub owner: Option<ElementId>,
    /// Applied stereotypes, e.g. `"Transactional"`, sorted and unique.
    pub stereotypes: Vec<String>,
    /// Tagged values keyed by tag name.
    pub tags: BTreeMap<String, TagValue>,
    /// Feature visibility (meaningful for features and classifiers).
    pub visibility: Visibility,
    /// Documentation comment.
    pub doc: String,
}

impl ElementCore {
    /// Creates a core with the given name and owner and empty extensions.
    pub fn new(name: impl Into<String>, owner: Option<ElementId>) -> Self {
        ElementCore {
            name: name.into(),
            owner,
            stereotypes: Vec::new(),
            tags: BTreeMap::new(),
            visibility: Visibility::Public,
            doc: String::new(),
        }
    }

    /// Returns true when the stereotype is applied to this element.
    pub fn has_stereotype(&self, name: &str) -> bool {
        self.stereotypes.iter().any(|s| s == name)
    }

    /// Applies a stereotype; keeps the list sorted and duplicate-free.
    /// Returns whether it was absent.
    pub fn apply_stereotype(&mut self, name: impl Into<String>) -> bool {
        let name = name.into();
        match self.stereotypes.binary_search(&name) {
            Ok(_) => false,
            Err(pos) => {
                self.stereotypes.insert(pos, name);
                true
            }
        }
    }

    /// Removes a stereotype; returns whether it was present.
    pub fn remove_stereotype(&mut self, name: &str) -> bool {
        if let Ok(pos) = self.stereotypes.binary_search_by(|s| s.as_str().cmp(name)) {
            self.stereotypes.remove(pos);
            true
        } else {
            false
        }
    }

    /// Sets a tagged value, returning the previous value if any.
    pub fn set_tag(
        &mut self,
        key: impl Into<String>,
        value: impl Into<TagValue>,
    ) -> Option<TagValue> {
        self.tags.insert(key.into(), value.into())
    }

    /// Reads a tagged value.
    pub fn tag(&self, key: &str) -> Option<&TagValue> {
        self.tags.get(key)
    }
}

/// The kind-discriminated payload of an element.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// Namespace grouping other elements.
    Package(PackageData),
    /// A class.
    Class(ClassData),
    /// An interface.
    Interface(InterfaceData),
    /// A user-defined value type.
    DataType(DataTypeData),
    /// An enumeration with literals.
    Enumeration(EnumerationData),
    /// A structural feature of a classifier.
    Attribute(AttributeData),
    /// A behavioural feature of a classifier.
    Operation(OperationData),
    /// A parameter of an operation.
    Parameter(ParameterData),
    /// A binary association between classifiers.
    Association(AssociationData),
    /// An inheritance relationship.
    Generalization(GeneralizationData),
    /// A dependency relationship.
    Dependency(DependencyData),
    /// An attached constraint (OCL-like body).
    Constraint(ConstraintData),
}

impl ElementKind {
    /// Human-readable kind name, as used in diagnostics and XMI tags.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ElementKind::Package(_) => "Package",
            ElementKind::Class(_) => "Class",
            ElementKind::Interface(_) => "Interface",
            ElementKind::DataType(_) => "DataType",
            ElementKind::Enumeration(_) => "Enumeration",
            ElementKind::Attribute(_) => "Attribute",
            ElementKind::Operation(_) => "Operation",
            ElementKind::Parameter(_) => "Parameter",
            ElementKind::Association(_) => "Association",
            ElementKind::Generalization(_) => "Generalization",
            ElementKind::Dependency(_) => "Dependency",
            ElementKind::Constraint(_) => "Constraint",
        }
    }

    /// Returns true for kinds that may own classifier features.
    pub fn is_classifier(&self) -> bool {
        matches!(
            self,
            ElementKind::Class(_)
                | ElementKind::Interface(_)
                | ElementKind::DataType(_)
                | ElementKind::Enumeration(_)
        )
    }
}

/// A model element: identity + shared core + kind payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    id: ElementId,
    core: ElementCore,
    kind: ElementKind,
}

impl Element {
    /// Assembles an element. Intended for the model and deserializers.
    pub fn new(id: ElementId, core: ElementCore, kind: ElementKind) -> Self {
        Element { id, core, kind }
    }

    /// The element's identity.
    pub fn id(&self) -> ElementId {
        self.id
    }

    /// Shared data (name, owner, stereotypes, tags).
    pub fn core(&self) -> &ElementCore {
        &self.core
    }

    /// Mutable shared data.
    pub fn core_mut(&mut self) -> &mut ElementCore {
        &mut self.core
    }

    /// Kind payload.
    pub fn kind(&self) -> &ElementKind {
        &self.kind
    }

    /// Mutable kind payload.
    pub fn kind_mut(&mut self) -> &mut ElementKind {
        &mut self.kind
    }

    /// Shorthand for `self.core().name`.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Shorthand for `self.core().owner`.
    pub fn owner(&self) -> Option<ElementId> {
        self.core.owner
    }

    /// Downcast helper: attribute payload.
    pub fn as_attribute(&self) -> Option<&AttributeData> {
        match &self.kind {
            ElementKind::Attribute(a) => Some(a),
            _ => None,
        }
    }

    /// Downcast helper: mutable attribute payload.
    pub fn as_attribute_mut(&mut self) -> Option<&mut AttributeData> {
        match &mut self.kind {
            ElementKind::Attribute(a) => Some(a),
            _ => None,
        }
    }

    /// Downcast helper: operation payload.
    pub fn as_operation(&self) -> Option<&OperationData> {
        match &self.kind {
            ElementKind::Operation(o) => Some(o),
            _ => None,
        }
    }

    /// Downcast helper: mutable operation payload.
    pub fn as_operation_mut(&mut self) -> Option<&mut OperationData> {
        match &mut self.kind {
            ElementKind::Operation(o) => Some(o),
            _ => None,
        }
    }

    /// Downcast helper: parameter payload.
    pub fn as_parameter(&self) -> Option<&ParameterData> {
        match &self.kind {
            ElementKind::Parameter(p) => Some(p),
            _ => None,
        }
    }

    /// Downcast helper: constraint payload.
    pub fn as_constraint(&self) -> Option<&ConstraintData> {
        match &self.kind {
            ElementKind::Constraint(c) => Some(c),
            _ => None,
        }
    }

    /// Returns true when this element is a classifier.
    pub fn is_classifier(&self) -> bool {
        self.kind.is_classifier()
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} `{}`", self.id, self.kind.kind_name(), self.core.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new(
            ElementId::from_raw(1),
            ElementCore::new("Account", None),
            ElementKind::Class(ClassData::default()),
        )
    }

    #[test]
    fn stereotypes_stay_sorted_and_unique() {
        let mut e = sample();
        e.core_mut().apply_stereotype("Secured");
        e.core_mut().apply_stereotype("Remote");
        e.core_mut().apply_stereotype("Secured");
        assert_eq!(e.core().stereotypes, vec!["Remote", "Secured"]);
        assert!(e.core().has_stereotype("Remote"));
        assert!(e.core_mut().remove_stereotype("Remote"));
        assert!(!e.core_mut().remove_stereotype("Remote"));
        assert_eq!(e.core().stereotypes, vec!["Secured"]);
    }

    #[test]
    fn tags_set_and_get() {
        let mut e = sample();
        assert!(e.core_mut().set_tag("isolation", "serializable").is_none());
        assert_eq!(e.core().tag("isolation").unwrap().as_str(), Some("serializable"));
        let prev = e.core_mut().set_tag("isolation", "read-committed").unwrap();
        assert_eq!(prev.as_str(), Some("serializable"));
    }

    #[test]
    fn downcasts() {
        let e = sample();
        assert!(e.as_attribute().is_none());
        assert!(e.is_classifier());
        assert_eq!(e.kind().kind_name(), "Class");
        assert_eq!(e.to_string(), "#1 Class `Account`");
    }
}
