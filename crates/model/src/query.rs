//! Read-only navigation and lookup helpers over a [`Model`].
//!
//! Each query comes in two flavours: the public method, answered from
//! the maintained [`ModelIndex`](crate::index::ModelIndex) (built on
//! first use, then patched with the ids each mutation touched — see
//! `index.rs`), and a `*_scan` twin
//! preserving the original full-arena scan. The scans are the
//! differential oracles for the property tests in
//! `tests/index_properties.rs` and the "before" baseline of
//! `bench_weaver_json`'s query rows; new code should always use the
//! indexed form.

use crate::element::{Element, ElementKind};
use crate::id::ElementId;
use crate::index::{ends, name_of};
use crate::model::Model;

impl Model {
    /// All classes, in id order.
    pub fn classes(&self) -> Vec<ElementId> {
        self.elements_of_kind("Class")
    }

    /// Full-scan reference for [`Model::classes`].
    pub fn classes_scan(&self) -> Vec<ElementId> {
        self.elements_of_kind_scan("Class")
    }

    /// All interfaces, in id order.
    pub fn interfaces(&self) -> Vec<ElementId> {
        self.elements_of_kind("Interface")
    }

    /// Full-scan reference for [`Model::interfaces`].
    pub fn interfaces_scan(&self) -> Vec<ElementId> {
        self.elements_of_kind_scan("Interface")
    }

    /// All packages including the root, in id order.
    pub fn packages(&self) -> Vec<ElementId> {
        self.elements_of_kind("Package")
    }

    /// Full-scan reference for [`Model::packages`].
    pub fn packages_scan(&self) -> Vec<ElementId> {
        self.elements_of_kind_scan("Package")
    }

    /// All associations, in id order.
    pub fn associations(&self) -> Vec<ElementId> {
        self.elements_of_kind("Association")
    }

    /// Full-scan reference for [`Model::associations`].
    pub fn associations_scan(&self) -> Vec<ElementId> {
        self.elements_of_kind_scan("Association")
    }

    /// All elements of the given kind name (`"Class"`, `"Operation"`,
    /// ...), in id order. This is what OCL `T.allInstances()` resolves
    /// through.
    pub fn elements_of_kind(&self, kind_name: &str) -> Vec<ElementId> {
        self.index().by_kind.get(kind_name).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::elements_of_kind`].
    pub fn elements_of_kind_scan(&self, kind_name: &str) -> Vec<ElementId> {
        self.iter().filter(|e| e.kind().kind_name() == kind_name).map(Element::id).collect()
    }

    /// All classifiers (classes, interfaces, data types, enumerations).
    pub fn classifiers(&self) -> Vec<ElementId> {
        self.index().classifiers.clone()
    }

    /// Full-scan reference for [`Model::classifiers`].
    pub fn classifiers_scan(&self) -> Vec<ElementId> {
        self.iter().filter(|e| e.is_classifier()).map(Element::id).collect()
    }

    /// Attributes owned by a classifier, in declaration (id) order.
    pub fn attributes_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().attributes.get(&classifier).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::attributes_of`].
    pub fn attributes_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter(|e| {
                e.owner() == Some(classifier) && matches!(e.kind(), ElementKind::Attribute(_))
            })
            .map(Element::id)
            .collect()
    }

    /// Operations owned by a classifier, in declaration (id) order.
    pub fn operations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().operations.get(&classifier).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::operations_of`].
    pub fn operations_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter(|e| {
                e.owner() == Some(classifier) && matches!(e.kind(), ElementKind::Operation(_))
            })
            .map(Element::id)
            .collect()
    }

    /// Parameters of an operation, in declaration (id) order.
    pub fn parameters_of(&self, operation: ElementId) -> Vec<ElementId> {
        self.index().parameters.get(&operation).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::parameters_of`].
    pub fn parameters_of_scan(&self, operation: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter(|e| {
                e.owner() == Some(operation) && matches!(e.kind(), ElementKind::Parameter(_))
            })
            .map(Element::id)
            .collect()
    }

    /// Constraints attached to an element, in id order.
    pub fn constraints_on(&self, element: ElementId) -> Vec<ElementId> {
        self.index().constraints_on.get(&element).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::constraints_on`].
    pub fn constraints_on_scan(&self, element: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter(|e| match e.kind() {
                ElementKind::Constraint(c) => c.constrained == element,
                _ => false,
            })
            .map(Element::id)
            .collect()
    }

    /// Direct parents (generalization targets) of a classifier.
    pub fn parents_of(&self, classifier: ElementId) -> Vec<ElementId> {
        ends(self.index().parents.get(&classifier))
    }

    /// Full-scan reference for [`Model::parents_of`].
    pub fn parents_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter_map(|e| match e.kind() {
                ElementKind::Generalization(g) if g.child == classifier => Some(g.parent),
                _ => None,
            })
            .collect()
    }

    /// Direct children (generalization sources) of a classifier.
    pub fn specializations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        ends(self.index().specializations.get(&classifier))
    }

    /// Full-scan reference for [`Model::specializations_of`].
    pub fn specializations_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter_map(|e| match e.kind() {
                ElementKind::Generalization(g) if g.parent == classifier => Some(g.child),
                _ => None,
            })
            .collect()
    }

    /// Transitive generalization ancestors, deduplicated, excluding the
    /// classifier itself.
    pub fn ancestors_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().ancestors.get(&classifier).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::ancestors_of`].
    pub fn ancestors_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        let mut out = Vec::new();
        let mut frontier = self.parents_of_scan(classifier);
        while let Some(p) = frontier.pop() {
            if !out.contains(&p) {
                out.push(p);
                frontier.extend(self.parents_of_scan(p));
            }
        }
        out
    }

    /// Returns true when `child` equals or transitively specializes
    /// `ancestor`.
    pub fn is_kind_of(&self, child: ElementId, ancestor: ElementId) -> bool {
        child == ancestor || self.ancestors_of(child).contains(&ancestor)
    }

    /// Full-scan reference for [`Model::is_kind_of`].
    pub fn is_kind_of_scan(&self, child: ElementId, ancestor: ElementId) -> bool {
        child == ancestor || self.ancestors_of_scan(child).contains(&ancestor)
    }

    /// Finds the first classifier with the given simple name (id order).
    pub fn find_classifier(&self, name: &str) -> Option<ElementId> {
        self.index().classifier_by_name.get(name).map(|ids| ids[0])
    }

    /// Full-scan reference for [`Model::find_classifier`].
    pub fn find_classifier_scan(&self, name: &str) -> Option<ElementId> {
        self.iter().find(|e| e.is_classifier() && e.name() == name).map(Element::id)
    }

    /// Finds a class by simple name.
    pub fn find_class(&self, name: &str) -> Option<ElementId> {
        self.index().class_by_name.get(name).map(|ids| ids[0])
    }

    /// Full-scan reference for [`Model::find_class`].
    pub fn find_class_scan(&self, name: &str) -> Option<ElementId> {
        self.iter()
            .find(|e| matches!(e.kind(), ElementKind::Class(_)) && e.name() == name)
            .map(Element::id)
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

    /// Full-scan reference for [`Model::find_operation`].
    pub fn find_operation_scan(&self, classifier: ElementId, name: &str) -> Option<ElementId> {
        self.operations_of_scan(classifier)
            .into_iter()
            .find(|&op| self.element(op).map(|e| e.name() == name).unwrap_or(false))
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

    /// Full-scan reference for [`Model::find_attribute`].
    pub fn find_attribute_scan(&self, classifier: ElementId, name: &str) -> Option<ElementId> {
        self.attributes_of_scan(classifier)
            .into_iter()
            .find(|&a| self.element(a).map(|e| e.name() == name).unwrap_or(false))
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
            // Greedy per-segment resolution, exactly like the scan: the
            // first (lowest-id) child with the segment name wins.
            cur = ix.children.get(&cur)?.iter().copied().find(|&c| name_of(self, c) == seg)?;
        }
        Some(cur)
    }

    /// Full-scan reference for [`Model::find_by_qualified_name`].
    pub fn find_by_qualified_name_scan(&self, qname: &str) -> Option<ElementId> {
        let mut segments = qname.split("::");
        let first = segments.next()?;
        if first != self.name() {
            return None;
        }
        let mut cur = self.root();
        for seg in segments {
            cur = self.iter().find(|e| e.owner() == Some(cur) && e.name() == seg)?.id();
        }
        Some(cur)
    }

    /// All elements carrying the given stereotype, in id order.
    pub fn stereotyped(&self, stereotype: &str) -> Vec<ElementId> {
        self.index().stereotyped.get(stereotype).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::stereotyped`].
    pub fn stereotyped_scan(&self, stereotype: &str) -> Vec<ElementId> {
        self.iter().filter(|e| e.core().has_stereotype(stereotype)).map(Element::id).collect()
    }

    /// Associations with at least one end attached to `classifier`.
    pub fn associations_of(&self, classifier: ElementId) -> Vec<ElementId> {
        self.index().associations_of.get(&classifier).cloned().unwrap_or_default()
    }

    /// Full-scan reference for [`Model::associations_of`].
    pub fn associations_of_scan(&self, classifier: ElementId) -> Vec<ElementId> {
        self.iter()
            .filter(|e| match e.kind() {
                ElementKind::Association(a) => {
                    a.ends[0].class == classifier || a.ends[1].class == classifier
                }
                _ => false,
            })
            .map(Element::id)
            .collect()
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
        assert_eq!(anc, m.ancestors_of_scan(d), "index must match the scan order");
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
        assert_eq!(m.classes(), m.classes_scan());
        assert_eq!(m.children(m.root()), vec![b]);
    }
}
