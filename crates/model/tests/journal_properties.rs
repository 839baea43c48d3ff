//! Differential property tests for the change journal (`journal.rs`).
//! After every rollback, commit and revert, each indexed query must
//! also still answer like the full scan in `scan/mod.rs`.
//!
//! * **rollback = clone restore**: after an arbitrary journaled
//!   mutation sequence, `rollback_journal` must leave the model equal
//!   to a clone snapshot taken at `begin_journal` — same elements, same
//!   name, same id watermark (checked by re-allocating);
//! * **commit delta = sweep**: the journal-derived
//!   created/modified/removed delta must match the before/after
//!   full-model sweep [`ModelDelta::between`];
//! * **revert = reassembled snapshot**: reverting committed journals
//!   newest-first must leave the model equal to its pre-journal
//!   elements reassembled by `Model::from_parts` — the model a snapshot
//!   import builds, id watermark (max id + 1) included.

mod scan;

use comet_model::{AssociationEnd, ElementId, Model, ModelDelta, Primitive};
use proptest::prelude::*;
use scan::assert_index_matches_scans;

#[derive(Debug, Clone)]
enum Op {
    AddClass,
    AddPackage(u8),
    AddAttribute(u8),
    AddOperation(u8),
    AddGeneralization(u8, u8),
    AddAssociation(u8, u8),
    AddConstraint(u8),
    Stereotype(u8, String),
    Tag(u8, String),
    Rename(u8, String),
    TouchOnly(u8),
    Remove(u8),
    RenameModel(String),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::AddClass),
        any::<u8>().prop_map(Op::AddPackage),
        any::<u8>().prop_map(Op::AddAttribute),
        any::<u8>().prop_map(Op::AddOperation),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddGeneralization(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddAssociation(a, b)),
        any::<u8>().prop_map(Op::AddConstraint),
        (any::<u8>(), "[a-z]{1,6}").prop_map(|(c, s)| Op::Stereotype(c, s)),
        (any::<u8>(), "[a-z]{1,6}").prop_map(|(c, s)| Op::Tag(c, s)),
        (any::<u8>(), "[a-z]{2,6}").prop_map(|(c, s)| Op::Rename(c, s)),
        any::<u8>().prop_map(Op::TouchOnly),
        any::<u8>().prop_map(Op::Remove),
        "[a-z]{2,6}".prop_map(Op::RenameModel),
    ]
}

fn pick(ids: &[ElementId], idx: u8) -> Option<ElementId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[idx as usize % ids.len()])
    }
}

/// Applies one op; invalid targets are simply skipped (the `add_*` API
/// rejects them), matching how real transformation bodies behave.
fn apply_op(m: &mut Model, op: &Op, counter: &mut usize) {
    let classifiers = m.classifiers();
    match op {
        Op::AddClass => {
            *counter += 1;
            let root = m.root();
            let _ = m.add_class(root, &format!("C{counter}"));
        }
        Op::AddPackage(p) => {
            *counter += 1;
            let packages = m.packages();
            if let Some(owner) = pick(&packages, *p) {
                let _ = m.add_package(owner, &format!("p{counter}"));
            }
        }
        Op::AddAttribute(c) => {
            if let Some(cl) = pick(&classifiers, *c) {
                *counter += 1;
                let _ = m.add_attribute(cl, &format!("a{counter}"), Primitive::Int.into());
            }
        }
        Op::AddOperation(c) => {
            if let Some(cl) = pick(&classifiers, *c) {
                *counter += 1;
                let _ = m.add_operation(cl, &format!("o{counter}"));
            }
        }
        Op::AddGeneralization(a, b) => {
            if let (Some(child), Some(parent)) = (pick(&classifiers, *a), pick(&classifiers, *b)) {
                let _ = m.add_generalization(child, parent);
            }
        }
        Op::AddAssociation(a, b) => {
            if let (Some(x), Some(y)) = (pick(&classifiers, *a), pick(&classifiers, *b)) {
                let root = m.root();
                let _ = m.add_association(
                    root,
                    "",
                    AssociationEnd::new("x", x),
                    AssociationEnd::new("y", y),
                );
            }
        }
        Op::AddConstraint(c) => {
            if let Some(cl) = pick(&classifiers, *c) {
                *counter += 1;
                let _ = m.add_constraint(cl, &format!("inv{counter}"), "true");
            }
        }
        Op::Stereotype(c, s) => {
            if let Some(cl) = pick(&classifiers, *c) {
                let _ = m.apply_stereotype(cl, s);
            }
        }
        Op::Tag(c, s) => {
            if let Some(cl) = pick(&classifiers, *c) {
                let _ = m.set_tag(cl, "k", s.as_str());
            }
        }
        Op::Rename(c, s) => {
            if let Some(cl) = pick(&classifiers, *c) {
                if let Ok(e) = m.element_mut(cl) {
                    e.core_mut().name = s.clone();
                }
            }
        }
        Op::TouchOnly(c) => {
            // A mutable borrow that never writes: must not surface in
            // the commit summary.
            if let Some(cl) = pick(&classifiers, *c) {
                let _ = m.element_mut(cl);
            }
        }
        Op::Remove(c) => {
            if let Some(cl) = pick(&classifiers, *c) {
                let _ = m.remove_element(cl);
            }
        }
        Op::RenameModel(s) => {
            m.set_name(s.clone());
        }
    }
}

fn build(prefix: &[Op]) -> Model {
    let mut m = Model::new("prop");
    let mut counter = 0usize;
    for op in prefix {
        apply_op(&mut m, op, &mut counter);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollback_is_identical_to_clone_restore(
        prefix in prop::collection::vec(arb_op(), 0..20),
        journaled in prop::collection::vec(arb_op(), 0..30),
    ) {
        let mut m = build(&prefix);
        let snapshot = m.clone();
        m.begin_journal();
        let mut counter = 1000usize;
        for op in &journaled {
            apply_op(&mut m, op, &mut counter);
        }
        m.rollback_journal().expect("journal is active");
        prop_assert!(!m.journal_active());
        prop_assert_eq!(&m, &snapshot, "rollback diverged from the clone snapshot");
        prop_assert_eq!(m.name(), snapshot.name());
        assert_index_matches_scans(&m)?;
        // The id watermark must also be restored: both models hand out
        // the same id next.
        let mut a = m.clone();
        let mut b = snapshot.clone();
        let root_a = a.root();
        let root_b = b.root();
        prop_assert_eq!(
            a.add_class(root_a, "Probe").unwrap(),
            b.add_class(root_b, "Probe").unwrap()
        );
    }

    #[test]
    fn commit_delta_matches_the_between_sweep(
        prefix in prop::collection::vec(arb_op(), 0..20),
        journaled in prop::collection::vec(arb_op(), 0..30),
    ) {
        let mut m = build(&prefix);
        let before = m.clone();
        m.begin_journal();
        let mut counter = 1000usize;
        for op in &journaled {
            apply_op(&mut m, op, &mut counter);
        }
        let (delta, _) = m.commit_journal().expect("journal is active");
        prop_assert_eq!(delta, ModelDelta::between(&before, &m));
        assert_index_matches_scans(&m)?;
    }

    #[test]
    fn nested_rollback_restores_to_each_savepoint(
        prefix in prop::collection::vec(arb_op(), 0..15),
        outer in prop::collection::vec(arb_op(), 0..15),
        inner in prop::collection::vec(arb_op(), 0..15),
    ) {
        let mut m = build(&prefix);
        let base = m.clone();
        m.begin_journal();
        let mut counter = 1000usize;
        for op in &outer {
            apply_op(&mut m, op, &mut counter);
        }
        let mid = m.clone();
        m.begin_journal();
        for op in &inner {
            apply_op(&mut m, op, &mut counter);
        }
        m.rollback_journal().expect("inner segment");
        prop_assert_eq!(&m, &mid, "inner rollback diverged from mid snapshot");
        m.rollback_journal().expect("outer segment");
        prop_assert_eq!(&m, &base, "outer rollback diverged from base snapshot");
        assert_index_matches_scans(&m)?;
        prop_assert!(!m.journal_active());
    }
    #[test]
    fn revert_equals_the_reassembled_pre_journal_state(
        prefix in prop::collection::vec(arb_op(), 0..15),
        first in prop::collection::vec(arb_op(), 0..15),
        inner in prop::collection::vec(arb_op(), 0..10),
        second in prop::collection::vec(arb_op(), 0..15),
    ) {
        let reassembled = |m: &Model| {
            Model::from_parts(m.name(), m.root(), m.iter().cloned().collect())
                .expect("a model built through the API is well formed")
        };
        let mut m = build(&prefix);
        let base = reassembled(&m);
        let mut counter = 1000usize;
        // Step one, with a nested segment committed into it.
        m.begin_journal();
        for op in &first {
            apply_op(&mut m, op, &mut counter);
        }
        m.begin_journal();
        for op in &inner {
            apply_op(&mut m, op, &mut counter);
        }
        let (_, nested) = m.commit_journal().expect("inner segment");
        prop_assert!(nested.is_none(), "a nested commit handed back an undo log");
        let (_, one) = m.commit_journal().expect("outer segment");
        let mid = reassembled(&m);
        // Step two on top.
        m.begin_journal();
        for op in &second {
            apply_op(&mut m, op, &mut counter);
        }
        let (_, two) = m.commit_journal().expect("second segment");
        m.revert(two.expect("outermost commit hands back its log"));
        prop_assert_eq!(&m, &mid, "reverting step two diverged from its reassembled pre-state");
        assert_index_matches_scans(&m)?;
        m.revert(one.expect("outermost commit hands back its log"));
        prop_assert_eq!(&m, &base, "reverting step one diverged from its reassembled pre-state");
        assert_index_matches_scans(&m)?;
        prop_assert!(!m.journal_active());
    }
}
