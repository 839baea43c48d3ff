//! Read-only navigation and lookup helpers over a [`Model`], answered
//! from the maintained [`ModelIndex`](crate::index::ModelIndex): built
//! on first use, then patched with the ids each mutation touched (see
//! `index.rs`). `tests/index_properties.rs` checks every query against
//! a full scan of the element arena after random mutation sequences.

use crate::id::ElementId;
use crate::index::{ends, name_of};
use crate::model::Model;

impl Model {
    /// All classes, in id order.
    pub fn classes(&self) -> Vec<ElementId> {
        self.elements_of_kind("Class")
    }

    /// All interfaces, in id order.
    pub fn interfaces(&self) -> Vec<ElementId> {
        self.elements_of_kind("Interface")
    }

    /// All packages including the root, in id order.
    pub fn packages(&self) -> Vec<ElementId> {
        self.elements_of_kind("Package")
    }

    /// All associations, in id order.
    pub fn associations(&self) -> Vec<ElementId> {
        self.elements_of_kind("Association")
    }

    /// All elements of the given kind name (`"Class"`, `"Operation"`,
    /// ...), in id order. This is what OCL `T.allInstances()` resolves
    /// through.
    pub fn elements_of_kind(&self, kind_name: &str) -> Vec<ElementId> {
        self.index().by_kind.get(kind_name).cloned().unwrap_or_default()
    }

    /// All classifiers (classes, interfaces, data types, enumerations).
    pub fn classifiers(&self) -> Vec<ElementId> {
        self.index().classifiers.clone()
    }

    /// Attributes owned by a classifier, in declaration (id) order.
    pub fn attributes_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().attributes.get(&classifier).cloned().unwrap_or_default()
    }

    /// Operations owned by a classifier, in declaration (id) order.
    pub fn operations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().operations.get(&classifier).cloned().unwrap_or_default()
    }

    /// Parameters of an operation, in declaration (id) order.
    pub fn parameters_of(&self, operation: ElementId) -> Vec<ElementId> {
        self.index().parameters.get(&operation).cloned().unwrap_or_default()
    }

    /// Constraints attached to an element, in id order.
    pub fn constraints_on(&self, element: ElementId) -> Vec<ElementId> {
        self.index().constraints_on.get(&element).cloned().unwrap_or_default()
    }

    /// Direct parents (generalization targets) of a classifier.
    pub fn parents_of(&self, classifier: ElementId) -> Vec<ElementId> {
        ends(self.index().parents.get(&classifier))
    }

    /// Direct children (generalization sources) of a classifier.
    pub fn specializations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        ends(self.index().specializations.get(&classifier))
    }

    /// Transitive generalization ancestors, deduplicated, excluding the
    /// classifier itself.
    pub fn ancestors_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().ancestors.get(&classifier).cloned().unwrap_or_default()
    }

    /// Returns true when `child` equals or transitively specializes
    /// `ancestor`.
    pub fn is_kind_of(&self, child: ElementId, ancestor: ElementId) -> bool {
        child == ancestor || self.ancestors_of(child).contains(&ancestor)
    }

    /// Finds the first classifier with the given simple name (id order).
    pub fn find_classifier(&self, name: &str) -> Option<ElementId> {
        self.index().classifier_by_name.get(name).map(|ids| ids[0])
    }

    /// Finds a class by simple name.
    pub fn find_class(&self, name: &str) -> Option<ElementId> {
        self.index().class_by_name.get(name).map(|ids| ids[0])
    }

    /// Finds an operation `name` on classifier `classifier`.
    pub fn find_operation(&self, classifier: ElementId, name: &str) -> Option<ElementId> {
        self.index()
            .operations
            .get(&classifier)?
            .iter()
            .copied()
            .find(|&op| name_of(self, op) == name)
    }

    /// Finds an attribute `name` on classifier `classifier`.
    pub fn find_attribute(&self, classifier: ElementId, name: &str) -> Option<ElementId> {
        self.index()
            .attributes
            .get(&classifier)?
            .iter()
            .copied()
            .find(|&a| name_of(self, a) == name)
    }

    /// Resolves a `::`-separated qualified name starting at the root
    /// package. The first segment must be the root (model) name.
    pub fn find_by_qualified_name(&self, qname: &str) -> Option<ElementId> {
        let ix = self.index();
        let mut segments = qname.split("::");
        let first = segments.next()?;
        if first != self.name() {
            return None;
        }
        let mut cur = self.root();
        for seg in segments {
            // Greedy per-segment resolution: the first (lowest-id) child
            // with the segment name wins.
            cur = ix.children.get(&cur)?.iter().copied().find(|&c| name_of(self, c) == seg)?;
        }
        Some(cur)
    }

    /// All elements carrying the given stereotype, in id order.
    pub fn stereotyped(&self, stereotype: &str) -> Vec<ElementId> {
        self.index().stereotyped.get(stereotype).cloned().unwrap_or_default()
    }

    /// Associations with at least one end attached to `classifier`.
    pub fn associations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().associations_of.get(&classifier).cloned().unwrap_or_default()
    }

    /// All enumerations, in id order (indexed).
    pub fn enumerations(&self) -> Vec<ElementId> {
        self.elements_of_kind("Enumeration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{AssociationEnd, Primitive};

    fn diamond() -> (Model, ElementId, ElementId, ElementId, ElementId) {
        // D -> B -> A, D -> C -> A
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let b = m.add_class(m.root(), "B").unwrap();
        let c = m.add_class(m.root(), "C").unwrap();
        let d = m.add_class(m.root(), "D").unwrap();
        m.add_generalization(b, a).unwrap();
        m.add_generalization(c, a).unwrap();
        m.add_generalization(d, b).unwrap();
        m.add_generalization(d, c).unwrap();
        (m, a, b, c, d)
    }

    #[test]
    fn ancestors_deduplicate_diamond() {
        let (m, a, b, c, d) = diamond();
        let anc = m.ancestors_of(d);
        assert_eq!(anc.len(), 3);
        for x in [a, b, c] {
            assert!(anc.contains(&x));
        }
        assert!(m.is_kind_of(d, a));
        assert!(m.is_kind_of(d, d));
        assert!(!m.is_kind_of(a, d));
        // Worklist order: the last direct parent is expanded first.
        assert_eq!(anc, vec![c, a, b]);
    }

    #[test]
    fn specializations_inverse_of_parents() {
        let (m, a, b, c, _d) = diamond();
        let spec = m.specializations_of(a);
        assert!(spec.contains(&b) && spec.contains(&c));
        assert_eq!(m.parents_of(b), vec![a]);
    }

    #[test]
    fn qualified_name_lookup() {
        let mut m = Model::new("bank");
        let p = m.add_package(m.root(), "core").unwrap();
        let c = m.add_class(p, "Account").unwrap();
        let o = m.add_operation(c, "deposit").unwrap();
        assert_eq!(m.find_by_qualified_name("bank::core::Account::deposit"), Some(o));
        assert_eq!(m.find_by_qualified_name("bank::core::Missing"), None);
        assert_eq!(m.find_by_qualified_name("other::core"), None);
        assert_eq!(m.find_by_qualified_name("bank"), Some(m.root()));
    }

    #[test]
    fn feature_queries_ordered_by_insertion() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let x = m.add_attribute(c, "x", Primitive::Int.into()).unwrap();
        let y = m.add_attribute(c, "y", Primitive::Int.into()).unwrap();
        let f = m.add_operation(c, "f").unwrap();
        assert_eq!(m.attributes_of(c), vec![x, y]);
        assert_eq!(m.operations_of(c), vec![f]);
        assert_eq!(m.find_attribute(c, "y"), Some(y));
        assert_eq!(m.find_operation(c, "f"), Some(f));
        assert_eq!(m.find_operation(c, "g"), None);
    }

    #[test]
    fn stereotyped_and_associations_of() {
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let b = m.add_class(m.root(), "B").unwrap();
        m.apply_stereotype(a, "Remote").unwrap();
        let assoc = m
            .add_association(m.root(), "", AssociationEnd::new("a", a), AssociationEnd::new("b", b))
            .unwrap();
        assert_eq!(m.stereotyped("Remote"), vec![a]);
        assert_eq!(m.associations_of(a), vec![assoc]);
        assert_eq!(m.associations_of(b), vec![assoc]);
        assert_eq!(m.associations(), vec![assoc]);
    }

    #[test]
    fn indexed_queries_track_mutations() {
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        assert_eq!(m.classes(), vec![a]);
        let b = m.add_class(m.root(), "B").unwrap();
        assert_eq!(m.classes(), vec![a, b], "index must see the new class");
        m.remove_element(a).unwrap();
        assert_eq!(m.classes(), vec![b], "index must forget removed classes");
        m.apply_stereotype(b, "Remote").unwrap();
        assert_eq!(m.stereotyped("Remote"), vec![b]);
        assert_eq!(m.classes(), vec![b]);
        assert_eq!(m.children(m.root()), vec![b]);
    }
}
