//! Memoized query index over a [`Model`]: the [`ModelIndex`].
//!
//! Every navigation helper in `query.rs` used to be a full scan of the
//! element arena — fine for one lookup, quadratic the moment a
//! transformation loops over classes calling `operations_of` /
//! `ancestors_of` per class. The `ModelIndex` is built once per model
//! *revision* and answers all of those queries from hash maps.
//!
//! ## Invalidation rules
//!
//! The [`Model`] carries a mutation counter, [`Model::revision`], that
//! is bumped at every mutation choke point — element allocation (all
//! `add_*` constructors funnel through it), [`Model::element_mut`],
//! [`Model::remove_element`] and [`Model::set_name`]. The cache slot
//! stores `(revision, index)`; a query hitting a stale revision
//! rebuilds the index lazily and atomically replaces the slot. Cloning a model resets the clone's
//! cache (the index is derived data, never copied), and model equality
//! ignores the cache entirely.
//!
//! Every indexed query has a `*_scan` twin in `query.rs` preserving the
//! original full-scan implementation; the property tests in
//! `tests/index_properties.rs` drive random mutation sequences and
//! assert the indexed answers stay identical to the scans.

use crate::element::ElementKind;
use crate::id::ElementId;
use crate::model::Model;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The generation-tagged cache slot living inside every [`Model`].
#[derive(Debug, Default)]
pub(crate) struct IndexCache {
    generation: AtomicU64,
    slot: RwLock<Option<(u64, Arc<ModelIndex>)>>,
}

impl IndexCache {
    /// Bumps the generation, invalidating any cached index. Takes `&mut
    /// self` — mutation always happens under `&mut Model` — so this is
    /// a plain add, not an atomic RMW.
    pub(crate) fn invalidate(&mut self) {
        *self.generation.get_mut() += 1;
    }

    /// The current generation (for tests and diagnostics).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// Precomputed lookup tables for one model generation. All vectors are
/// in element-id order, matching what the full scans produce.
#[derive(Debug, Default)]
pub(crate) struct ModelIndex {
    /// Kind name (`"Class"`, `"Operation"`, ...) → ids.
    pub by_kind: HashMap<&'static str, Vec<ElementId>>,
    /// All classifier ids.
    pub classifiers: Vec<ElementId>,
    /// Owner → directly owned ids.
    pub children: HashMap<ElementId, Vec<ElementId>>,
    /// Owner → simple name → first owned id with that name (the one a
    /// greedy qualified-name resolution step picks).
    pub child_by_name: HashMap<ElementId, HashMap<String, ElementId>>,
    /// Classifier → owned attribute ids.
    pub attributes: HashMap<ElementId, Vec<ElementId>>,
    /// Classifier → owned operation ids.
    pub operations: HashMap<ElementId, Vec<ElementId>>,
    /// Operation → owned parameter ids.
    pub parameters: HashMap<ElementId, Vec<ElementId>>,
    /// Constrained element → constraint ids.
    pub constraints_on: HashMap<ElementId, Vec<ElementId>>,
    /// Classifier → association ids with an end attached to it.
    pub associations_of: HashMap<ElementId, Vec<ElementId>>,
    /// Generalization child → direct parents (edge-id order).
    pub parents: HashMap<ElementId, Vec<ElementId>>,
    /// Generalization parent → direct children (edge-id order).
    pub specializations: HashMap<ElementId, Vec<ElementId>>,
    /// Classifier → transitive ancestor closure, in the exact order the
    /// scan's worklist traversal emits it.
    pub ancestors: HashMap<ElementId, Vec<ElementId>>,
    /// Stereotype → ids carrying it.
    pub stereotyped: HashMap<String, Vec<ElementId>>,
    /// Simple name → first classifier id with that name.
    pub classifier_by_name: HashMap<String, ElementId>,
    /// Simple name → first class id with that name.
    pub class_by_name: HashMap<String, ElementId>,
}

impl ModelIndex {
    /// Builds all tables in one pass over the arena (plus a closure pass
    /// over the generalization graph).
    pub(crate) fn build(model: &Model) -> Self {
        let mut ix = ModelIndex::default();
        for e in model.iter() {
            let id = e.id();
            ix.by_kind.entry(e.kind().kind_name()).or_default().push(id);
            if e.is_classifier() {
                ix.classifiers.push(id);
                ix.classifier_by_name.entry(e.name().to_owned()).or_insert(id);
                if matches!(e.kind(), ElementKind::Class(_)) {
                    ix.class_by_name.entry(e.name().to_owned()).or_insert(id);
                }
            }
            if let Some(owner) = e.owner() {
                ix.children.entry(owner).or_default().push(id);
                ix.child_by_name.entry(owner).or_default().entry(e.name().to_owned()).or_insert(id);
            }
            for s in &e.core().stereotypes {
                ix.stereotyped.entry(s.clone()).or_default().push(id);
            }
            match e.kind() {
                ElementKind::Attribute(_) => {
                    if let Some(owner) = e.owner() {
                        ix.attributes.entry(owner).or_default().push(id);
                    }
                }
                ElementKind::Operation(_) => {
                    if let Some(owner) = e.owner() {
                        ix.operations.entry(owner).or_default().push(id);
                    }
                }
                ElementKind::Parameter(_) => {
                    if let Some(owner) = e.owner() {
                        ix.parameters.entry(owner).or_default().push(id);
                    }
                }
                ElementKind::Constraint(c) => {
                    ix.constraints_on.entry(c.constrained).or_default().push(id);
                }
                ElementKind::Association(a) => {
                    ix.associations_of.entry(a.ends[0].class).or_default().push(id);
                    // A self-association must appear once, as in the scan.
                    if a.ends[1].class != a.ends[0].class {
                        ix.associations_of.entry(a.ends[1].class).or_default().push(id);
                    }
                }
                ElementKind::Generalization(g) => {
                    ix.parents.entry(g.child).or_default().push(g.parent);
                    ix.specializations.entry(g.parent).or_default().push(g.child);
                }
                _ => {}
            }
        }
        // Ancestor closure, with the same worklist traversal (and
        // therefore the same output order) as the naive scan.
        for &c in &ix.classifiers {
            let mut out: Vec<ElementId> = Vec::new();
            let mut frontier: Vec<ElementId> = ix.parents.get(&c).cloned().unwrap_or_default();
            while let Some(p) = frontier.pop() {
                if !out.contains(&p) {
                    out.push(p);
                    if let Some(ps) = ix.parents.get(&p) {
                        frontier.extend(ps.iter().copied());
                    }
                }
            }
            if !out.is_empty() {
                ix.ancestors.insert(c, out);
            }
        }
        ix
    }
}

impl Model {
    /// The memoized index for the model's current generation, building
    /// it if the cached one is stale or absent.
    pub(crate) fn index(&self) -> Arc<ModelIndex> {
        let generation = self.cache().generation();
        if let Some((g, ix)) = self.cache().slot.read().expect("index lock poisoned").as_ref() {
            if *g == generation {
                return Arc::clone(ix);
            }
        }
        let ix = Arc::new(ModelIndex::build(self));
        *self.cache().slot.write().expect("index lock poisoned") =
            Some((generation, Arc::clone(&ix)));
        ix
    }
}

/// Convenience: look up an element known to exist during index-backed
/// filtering (the index never holds dangling ids for its generation).
pub(crate) fn kind_of(model: &Model, id: ElementId) -> &ElementKind {
    model.element(id).expect("indexed id resolves").kind()
}

/// Convenience mirror of [`kind_of`] for names.
pub(crate) fn name_of(model: &Model, id: ElementId) -> &str {
    model.element(id).expect("indexed id resolves").name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_is_reused_until_mutation() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let i1 = m.index();
        let i2 = m.index();
        assert!(Arc::ptr_eq(&i1, &i2), "same generation must share the index");
        m.add_operation(c, "f").unwrap();
        let i3 = m.index();
        assert!(!Arc::ptr_eq(&i1, &i3), "mutation must invalidate the cache");
        assert_eq!(i3.operations.get(&c).map(Vec::len), Some(1));
    }

    #[test]
    fn element_mut_and_remove_invalidate() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let g0 = m.revision();
        let _ = m.element_mut(c).unwrap();
        assert!(m.revision() > g0, "element_mut must bump the revision");
        let g1 = m.revision();
        m.remove_element(c).unwrap();
        assert!(m.revision() > g1, "remove must bump the revision");
        assert!(m.index().classifiers.is_empty());
    }

    #[test]
    fn clone_resets_cache_and_preserves_equality() {
        let mut m = Model::new("m");
        m.add_class(m.root(), "A").unwrap();
        let _ = m.index();
        let copy = m.clone();
        assert_eq!(m, copy);
        // The clone rebuilds its own index and answers identically.
        assert_eq!(m.classes(), copy.classes());
    }

    #[test]
    fn self_association_indexed_once() {
        use crate::kinds::AssociationEnd;
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let assoc = m
            .add_association(
                m.root(),
                "self",
                AssociationEnd::new("x", a),
                AssociationEnd::new("y", a),
            )
            .unwrap();
        assert_eq!(m.associations_of(a), vec![assoc]);
        assert_eq!(m.associations_of(a), m.associations_of_scan(a));
    }
}
