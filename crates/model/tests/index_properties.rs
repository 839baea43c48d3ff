//! Differential property tests for the maintained model index: after an
//! arbitrary sequence of API-level mutations (including removals,
//! renames via `element_mut` and `set_name`, stereotypes, associations,
//! generalizations, journal rollbacks and reverts of committed undo
//! logs), every indexed query must answer exactly like the full scan
//! in `scan/mod.rs` — same elements, same order. Queries are also
//! interleaved *between* mutations, so an index patch that misses a
//! touched id shows up as a divergence.

mod scan;

use comet_model::{AssociationEnd, ElementId, Model, Primitive, UndoLog};
use proptest::prelude::*;
use scan::assert_index_matches_scans;

#[derive(Debug, Clone)]
enum Op {
    AddClass,
    AddInterface,
    AddPackage(u8),
    AddAttribute(u8),
    AddOperation(u8),
    AddParameter(u8),
    AddGeneralization(u8, u8),
    AddAssociation(u8, u8),
    AddConstraint(u8),
    Stereotype(u8, String),
    Rename(u8, String),
    Remove(u8),
    SetName(String),
    Begin,
    Commit,
    Rollback,
    Revert,
    // Interleaved query: forces an index build or patch mid-sequence so
    // later mutations must be patched in too.
    QueryNow,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::AddClass),
        Just(Op::AddInterface),
        any::<u8>().prop_map(Op::AddPackage),
        any::<u8>().prop_map(Op::AddAttribute),
        any::<u8>().prop_map(Op::AddOperation),
        any::<u8>().prop_map(Op::AddParameter),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddGeneralization(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddAssociation(a, b)),
        any::<u8>().prop_map(Op::AddConstraint),
        (any::<u8>(), "[a-z]{1,6}").prop_map(|(c, s)| Op::Stereotype(c, s)),
        (any::<u8>(), "[a-z]{2,6}").prop_map(|(c, s)| Op::Rename(c, s)),
        any::<u8>().prop_map(Op::Remove),
        "[a-z]{2,6}".prop_map(Op::SetName),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        Just(Op::Revert),
        Just(Op::QueryNow),
    ]
}

fn pick(ids: &[ElementId], idx: u8) -> Option<ElementId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[idx as usize % ids.len()])
    }
}

/// Applies the ops; at each `QueryNow` runs a few indexed queries (to
/// populate the cache mid-sequence) and returns the final model.
/// `Revert` steps back over the newest committed journal not yet
/// reverted; a mutation made outside any journal drops the pending
/// logs, since they no longer describe the model's newest steps.
fn apply_ops(ops: &[Op]) -> Model {
    let mut m = Model::new("prop");
    let mut counter = 0usize;
    let mut logs: Vec<UndoLog> = Vec::new();
    for op in ops {
        let classifiers = m.classifiers();
        let journals = matches!(op, Op::Begin | Op::Commit | Op::Rollback | Op::Revert);
        if !journals && !m.journal_active() {
            logs.clear();
        }
        match op {
            Op::AddClass => {
                counter += 1;
                let root = m.root();
                let _ = m.add_class(root, &format!("C{counter}"));
            }
            Op::AddInterface => {
                counter += 1;
                let root = m.root();
                let _ = m.add_interface(root, &format!("I{counter}"));
            }
            Op::AddPackage(p) => {
                counter += 1;
                let packages = m.packages();
                if let Some(owner) = pick(&packages, *p) {
                    let _ = m.add_package(owner, &format!("p{counter}"));
                }
            }
            Op::AddAttribute(c) => {
                if let Some(cl) = pick(&classifiers, *c) {
                    counter += 1;
                    let _ = m.add_attribute(cl, &format!("a{counter}"), Primitive::Int.into());
                }
            }
            Op::AddOperation(c) => {
                if let Some(cl) = pick(&classifiers, *c) {
                    counter += 1;
                    let _ = m.add_operation(cl, &format!("o{counter}"));
                }
            }
            Op::AddParameter(o) => {
                let ops_all: Vec<ElementId> = m.elements_of_kind("Operation");
                if let Some(op_id) = pick(&ops_all, *o) {
                    counter += 1;
                    let _ = m.add_parameter(op_id, &format!("x{counter}"), Primitive::Int.into());
                }
            }
            Op::AddGeneralization(a, b) => {
                if let (Some(child), Some(parent)) =
                    (pick(&classifiers, *a), pick(&classifiers, *b))
                {
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
                    counter += 1;
                    let _ = m.add_constraint(cl, &format!("inv{counter}"), "true");
                }
            }
            Op::Stereotype(c, s) => {
                if let Some(cl) = pick(&classifiers, *c) {
                    let _ = m.apply_stereotype(cl, s);
                }
            }
            Op::Rename(c, s) => {
                counter += 1;
                if let Some(cl) = pick(&classifiers, *c) {
                    if let Ok(e) = m.element_mut(cl) {
                        e.core_mut().name = format!("{s}{counter}");
                    }
                }
            }
            Op::Remove(c) => {
                if let Some(cl) = pick(&classifiers, *c) {
                    let _ = m.remove_element(cl);
                }
            }
            Op::SetName(s) => m.set_name(s.as_str()),
            Op::Begin => m.begin_journal(),
            Op::Commit => {
                if let Some((_, Some(log))) = m.commit_journal() {
                    logs.push(log);
                }
            }
            Op::Rollback => {
                let _ = m.rollback_journal();
            }
            Op::Revert => {
                if !m.journal_active() {
                    if let Some(log) = logs.pop() {
                        m.revert(log);
                    }
                }
            }
            Op::QueryNow => {
                // Query the index so a later mutation the patch misses
                // leaves it stale.
                let _ = m.classes();
                let _ = m.stereotyped("hot");
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After a random mutation sequence (with index builds
    /// interleaved), every indexed query equals the full scan.
    #[test]
    fn indexed_queries_equal_scans_after_mutations(
        ops in prop::collection::vec(arb_op(), 0..50),
    ) {
        let m = apply_ops(&ops);
        assert_index_matches_scans(&m)?;
    }

    /// Clones answer identically to their originals even though the
    /// clone starts with a cold cache.
    #[test]
    fn clone_answers_identically(ops in prop::collection::vec(arb_op(), 0..40)) {
        let m = apply_ops(&ops);
        let _ = m.classes(); // warm the original's cache
        let copy = m.clone();
        prop_assert_eq!(m.classes(), copy.classes());
        prop_assert_eq!(m.classifiers(), copy.classifiers());
        for id in m.iter().map(|e| e.id()) {
            prop_assert_eq!(m.ancestors_of(id), copy.ancestors_of(id));
            prop_assert_eq!(m.children(id), copy.children(id));
        }
        assert_index_matches_scans(&copy)?;
    }
}
