//! The change journal: delta-based undo for transactional mutation.
//!
//! A transformation that fails halfway must leave the model exactly as
//! it found it. The original mechanism was a whole-model clone taken
//! before the body ran — O(model) per application even when the body
//! touches three elements. The journal replaces that: while a journal
//! is active, every mutation choke point of [`Model`](crate::Model)
//! (element allocation, [`element_mut`](crate::Model::element_mut),
//! [`remove_element`](crate::Model::remove_element),
//! [`set_name`](crate::Model::set_name) — the same choke points that
//! report touched ids to the model index) records an **inverse
//! operation**, and a failed step is rolled back by replaying those
//! inverses in reverse order — O(delta), not O(model).
//!
//! ## Inverse-op table
//!
//! | mutation                  | journal record            | inverse replay                      |
//! |---------------------------|---------------------------|-------------------------------------|
//! | element allocation        | `Create{id, prev_next_id}`| remove `id`, restore `next_id`      |
//! | `element_mut(id)`         | `Mutate{id, before}`      | reinsert the `before` snapshot      |
//! | `remove_element(id)`      | `Remove{before: Vec<_>}`  | reinsert every removed element      |
//! | `set_name(n)`             | `SetName{prev}` (+Mutate) | restore the model name (root via Mutate) |
//!
//! `Mutate` is recorded *conservatively*: handing out `&mut Element`
//! may change anything, so the pre-image is snapshotted whether or not
//! the caller ends up writing. The commit-time summary compares
//! pre-images against the final state, so a read-only `element_mut`
//! does not show up as a modification. Within one savepoint segment
//! only the **first** pre-image per element is kept: replaying the
//! earliest snapshot already restores the pre-segment state, so later
//! `Mutate`s on the same id would only bloat the op log and over-count
//! in diagnostics ([`Journal::wants_mutate`]).
//!
//! ## Savepoints
//!
//! Journals nest: [`Model::begin_journal`] pushes a savepoint, and
//! commit/rollback operate on the ops recorded since the innermost
//! savepoint. A nested commit folds its ops into the enclosing segment
//! (so an outer rollback still unwinds them); the outermost commit
//! closes the journal and hands its ops back as an [`UndoLog`]. This is
//! what lets the MDA lifecycle wrap a whole refinement step —
//! transformation body *plus* repository bookkeeping — in one atomic
//! unit while the transformation engine keeps its own inner bracket.
//!
//! ## Undo after commit
//!
//! The [`UndoLog`] is the committed step's inverse, kept for later:
//! [`Model::revert`](crate::Model::revert) replays it through the same
//! unwind loop a rollback uses, stepping the model back over the step in
//! O(delta) instead of re-reading a stored snapshot of the whole model.

use crate::delta::ModelDelta;
use crate::element::Element;
use crate::id::ElementId;
use std::collections::{BTreeMap, BTreeSet};

/// One recorded inverse operation.
#[derive(Debug, Clone)]
pub(crate) enum JournalOp {
    /// An element id was allocated (every `add_*` funnels through the
    /// allocator); undone by deleting the element and restoring the
    /// id watermark.
    Create {
        /// The allocated id.
        id: ElementId,
        /// `next_id` before the allocation.
        prev_next_id: u64,
    },
    /// Mutable access was handed out for an element; `before` is its
    /// pre-image.
    Mutate {
        /// The element.
        id: ElementId,
        /// Snapshot taken before the `&mut` borrow.
        before: Box<Element>,
    },
    /// A `remove_element` cascade deleted these elements.
    Remove {
        /// Full snapshots of everything the cascade removed.
        before: Vec<Element>,
    },
    /// The model was renamed (the root element's rename is covered by a
    /// paired `Mutate`).
    SetName {
        /// The model name before the rename.
        prev: String,
    },
}

/// The inverse ops of one committed outermost journal segment, handed
/// back by [`Model::commit_journal`](crate::Model::commit_journal) and
/// consumed by [`Model::revert`](crate::Model::revert). Opaque: it is
/// only meaningful for the model that recorded it, in the state that
/// segment left it (later steps already reverted).
#[derive(Debug)]
pub struct UndoLog {
    pub(crate) ops: Vec<JournalOp>,
}

/// The active journal stored inside a [`Model`](crate::Model).
///
/// Derived bookkeeping like the index cache: never cloned with the
/// model, ignored by equality.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    ops: Vec<JournalOp>,
    /// Stack of segment starts; one entry per `begin_journal` not yet
    /// committed or rolled back.
    savepoints: Vec<usize>,
    /// Per-segment set of ids that already have a `Mutate` pre-image,
    /// parallel to `savepoints`. Keeping only the first pre-image per
    /// segment is enough for inverse replay (the earliest snapshot
    /// restores the pre-segment state) and stops repeated
    /// `element_mut(id)` from appending one op each.
    mutated: Vec<BTreeSet<ElementId>>,
}

impl Journal {
    /// Opens the outermost segment.
    pub(crate) fn new() -> Self {
        Journal { ops: Vec::new(), savepoints: vec![0], mutated: vec![BTreeSet::new()] }
    }

    /// Opens a nested segment.
    pub(crate) fn push_savepoint(&mut self) {
        self.savepoints.push(self.ops.len());
        self.mutated.push(BTreeSet::new());
    }

    /// Whether a `Mutate` pre-image for `id` is still wanted in the
    /// innermost segment. Callers check this *before* cloning the
    /// pre-image so the duplicate case costs a set lookup, not a clone.
    /// A nested segment records its own first pre-image even when the
    /// enclosing segment already has one: a rollback of the inner
    /// segment must be able to restore the element on its own.
    pub(crate) fn wants_mutate(&self, id: ElementId) -> bool {
        !self.mutated.last().expect("active journal has a segment").contains(&id)
    }

    /// Records an op. Duplicate `Mutate`s per id per segment are
    /// dropped (see [`Journal::wants_mutate`]).
    pub(crate) fn record(&mut self, op: JournalOp) {
        if let JournalOp::Mutate { id, .. } = &op {
            if !self.mutated.last_mut().expect("active journal has a segment").insert(*id) {
                return;
            }
        }
        self.ops.push(op);
    }

    /// Ids created since the innermost savepoint, in recording order.
    pub(crate) fn created_since_savepoint(&self) -> Vec<ElementId> {
        let sp = *self.savepoints.last().expect("active journal has a savepoint");
        self.ops[sp..]
            .iter()
            .filter_map(|op| match op {
                JournalOp::Create { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// Closes the innermost segment, summarizing it against the final
    /// element state. Returns the segment's delta and, when the journal
    /// as a whole is now finished (last savepoint popped), its ops as
    /// the [`UndoLog`] of everything it recorded.
    pub(crate) fn commit(
        &mut self,
        elements: &BTreeMap<ElementId, Element>,
    ) -> (ModelDelta, Option<UndoLog>) {
        let sp = self.savepoints.pop().expect("active journal has a savepoint");
        let delta = summarize(&self.ops[sp..], elements);
        // A nested segment's ops stay: the enclosing segment must still
        // be able to unwind them. Its pre-imaged ids fold into the
        // enclosing segment for the same reason — the enclosing replay
        // already restores them, so re-recording would be redundant.
        let folded = self.mutated.pop().expect("active journal has a segment");
        if let Some(enclosing) = self.mutated.last_mut() {
            enclosing.extend(folded);
        }
        let finished = self.savepoints.is_empty();
        (delta, finished.then(|| UndoLog { ops: std::mem::take(&mut self.ops) }))
    }

    /// Unwinds the innermost segment: replays inverses newest-first and
    /// drops the segment's ops, reporting each element the replay
    /// changes to `touch` (see [`unwind`]). Returns the mutations undone
    /// and whether the journal is now finished.
    pub(crate) fn rollback(
        &mut self,
        elements: &mut BTreeMap<ElementId, Element>,
        next_id: &mut u64,
        name: &mut String,
        touch: impl FnMut(ElementId, Option<Element>),
    ) -> (usize, bool) {
        let sp = self.savepoints.pop().expect("active journal has a savepoint");
        // The segment's ops are about to be drained, so its dedup set
        // simply disappears with them; ids the enclosing segment also
        // pre-imaged are still covered by its own set.
        self.mutated.pop().expect("active journal has a segment");
        let undone = self.ops.len() - sp;
        unwind(self.ops.drain(sp..), elements, next_id, name, touch);
        (undone, self.savepoints.is_empty())
    }
}

/// Replays inverse ops newest-first: the one unwind loop under both a
/// rollback of an open segment and [`Model::revert`](crate::Model::revert)
/// of a committed one. Every element an op restores or deletes goes to
/// `touch` with the state the op replaced (`None`: absent), which keeps
/// the model index current.
pub(crate) fn unwind(
    ops: impl DoubleEndedIterator<Item = JournalOp>,
    elements: &mut BTreeMap<ElementId, Element>,
    next_id: &mut u64,
    name: &mut String,
    mut touch: impl FnMut(ElementId, Option<Element>),
) {
    for op in ops.rev() {
        match op {
            JournalOp::Create { id, prev_next_id } => {
                touch(id, elements.remove(&id));
                *next_id = prev_next_id;
            }
            JournalOp::Mutate { id, before } => {
                touch(id, elements.insert(id, *before));
            }
            JournalOp::Remove { before } => {
                for e in before {
                    let id = e.id();
                    touch(id, elements.insert(id, e));
                }
            }
            JournalOp::SetName { prev } => {
                *name = prev;
            }
        }
    }
}

/// Derives one segment's [`ModelDelta`] from its ops alone — no
/// before/after model sweep.
///
/// * created — `Create` ids still present (created-then-removed cancels
///   out; ids are never reused, so presence is unambiguous);
/// * removed — elements deleted by `Remove` cascades that pre-existed
///   the segment;
/// * modified — pre-existing elements with a recorded pre-image whose
///   final content differs from it (the *earliest* pre-image wins, so
///   a mutate-then-mutate-back sequence reports clean).
fn summarize(ops: &[JournalOp], elements: &BTreeMap<ElementId, Element>) -> ModelDelta {
    let mut created: BTreeSet<ElementId> = BTreeSet::new();
    let mut removed: BTreeSet<ElementId> = BTreeSet::new();
    let mut pre_image: BTreeMap<ElementId, &Element> = BTreeMap::new();
    for op in ops {
        match op {
            JournalOp::Create { id, .. } => {
                created.insert(*id);
            }
            JournalOp::Mutate { id, before } => {
                pre_image.entry(*id).or_insert(before);
            }
            JournalOp::Remove { before } => {
                for e in before {
                    if !created.contains(&e.id()) {
                        removed.insert(e.id());
                    }
                }
            }
            JournalOp::SetName { .. } => {}
        }
    }
    ModelDelta {
        created: created.iter().copied().filter(|id| elements.contains_key(id)).collect(),
        modified: pre_image
            .iter()
            .filter(|(id, before)| {
                !created.contains(*id)
                    && !removed.contains(*id)
                    && elements.get(*id).map(|now| now != **before).unwrap_or(false)
            })
            .map(|(id, _)| *id)
            .collect(),
        removed: removed.into_iter().collect(),
    }
}
