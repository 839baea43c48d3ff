//! Dirty sets: the journal's change summary turned into an
//! invalidation key for downstream caches.
//!
//! The journal already records exactly which elements an apply touched
//! ([`JournalSummary`]); this module packages that as a [`DirtySet`]
//! and answers the question incremental consumers ask:
//! [`DirtySet::kinds`] — which metamodel *kinds* were touched, so an
//! OCL condition whose `allInstances` footprint is disjoint can skip
//! re-evaluation (comet-transform's condition cache).
//!
//! It returns `Option`: `None` means "could not localize — invalidate
//! everything". Soundness never depends on precision; a consumer that
//! gets `None` falls back to the full recompute it would have done
//! without the journal.

use crate::id::ElementId;
use crate::journal::{JournalSummary, RemovedElement};
use crate::model::Model;
use std::collections::BTreeSet;

/// The set of elements one or more journal segments touched, in a form
/// that outlives the segment (removed elements carry their identity).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirtySet {
    /// Elements created and still present, in id order.
    pub created: Vec<ElementId>,
    /// Pre-existing elements whose content changed, in id order.
    pub modified: Vec<ElementId>,
    /// Removed elements with their pre-removal identity, in id order.
    pub removed: Vec<RemovedElement>,
}

impl DirtySet {
    /// Packages a commit summary as a dirty set.
    pub fn from_summary(summary: &JournalSummary) -> Self {
        DirtySet {
            created: summary.created.clone(),
            modified: summary.modified.clone(),
            removed: summary.removed_detail.clone(),
        }
    }

    /// True when nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }

    /// The metamodel kind names touched, resolved against `model` for
    /// surviving elements and taken from the removal records otherwise.
    /// `None` when a created/modified id no longer resolves in `model`
    /// — the caller must treat every kind as dirty.
    pub fn kinds(&self, model: &Model) -> Option<BTreeSet<&'static str>> {
        let mut out: BTreeSet<&'static str> = BTreeSet::new();
        for &id in self.created.iter().chain(&self.modified) {
            out.insert(model.element(id).ok()?.kind().kind_name());
        }
        for r in &self.removed {
            out.insert(r.kind);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::TypeRef;

    fn setup() -> (Model, ElementId, ElementId) {
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let b = m.add_class(m.root(), "B").unwrap();
        m.add_generalization(b, a).unwrap(); // B specializes A
        (m, a, b)
    }

    #[test]
    fn empty_journal_segment_yields_empty_dirty_set() {
        let (mut m, _, _) = setup();
        m.begin_journal();
        let d = m.journal_dirty().unwrap();
        assert!(d.is_empty());
        assert_eq!(d.kinds(&m).unwrap(), BTreeSet::new());
        m.rollback_journal();
    }

    #[test]
    fn feature_edit_reports_only_the_feature_kinds() {
        let (mut m, a, _) = setup();
        m.begin_journal();
        let op = m.add_operation(a, "poke").unwrap();
        m.add_parameter(op, "x", TypeRef::Primitive(crate::Primitive::Int)).unwrap();
        let kinds = m.journal_dirty().unwrap().kinds(&m).unwrap();
        assert!(kinds.contains("Operation") && kinds.contains("Parameter"));
        assert!(!kinds.contains("Class"));
        m.commit_journal();
    }

    #[test]
    fn removed_class_reports_its_kind() {
        let (mut m, a, _) = setup();
        m.begin_journal();
        m.remove_element(a).unwrap();
        let d = m.journal_dirty().unwrap();
        assert!(d.kinds(&m).unwrap().contains("Class"));
        m.rollback_journal();
    }
}
