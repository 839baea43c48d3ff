//! The change journal: delta-based undo for transactional mutation.
//!
//! A transformation that fails halfway must leave the model exactly as
//! it found it. The original mechanism was a whole-model clone taken
//! before the body ran — O(model) per application even when the body
//! touches three elements. The journal replaces that: while a journal
//! is active, every mutation choke point of [`Model`](crate::Model)
//! (element allocation, [`element_mut`](crate::Model::element_mut),
//! [`remove_element`](crate::Model::remove_element),
//! [`set_name`](crate::Model::set_name),
//! [`apply_stereotype`](crate::Model::apply_stereotype),
//! [`set_tag`](crate::Model::set_tag) — the same choke points that
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
//! | `apply_stereotype(id, s)` | `Stereotype{id, name}`    | take stereotype `name` off `id`     |
//! | `set_tag(id, k, v)`       | `Tag{id, key, prev}`      | restore `prev` under `key` (`None`: remove it) |
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
//! The two typed ops clone no element: they carry only the field they
//! change. `Stereotype` is recorded only when the stereotype was
//! absent (re-applying one changes nothing), and neither is recorded
//! for an id the segment created or already holds a `Mutate`
//! pre-image of, whose replay undoes the write anyway. The summary reconstructs
//! an id's segment-start state from its earliest record: the typed ops
//! before its first pre-image are undone on that pre-image, or, with no
//! pre-image, compared field by field against the final element.
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
use crate::index::IndexCache;
use crate::kinds::TagValue;
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
    /// A stereotype the element lacked was applied to it.
    Stereotype {
        /// The element.
        id: ElementId,
        /// The stereotype applied.
        name: String,
    },
    /// A tagged value was set on the element.
    Tag {
        /// The element.
        id: ElementId,
        /// The tag key.
        key: String,
        /// The value under `key` before the write (`None`: absent).
        prev: Option<TagValue>,
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
    /// One entry per `begin_journal` not yet committed or rolled back,
    /// innermost last.
    segments: Vec<Segment>,
}

/// One open segment of a [`Journal`].
#[derive(Debug)]
struct Segment {
    /// Where the segment's ops start in `Journal::ops`.
    start: usize,
    /// The id watermark when the segment began: an id at or above it
    /// was created in the segment, so the segment's `Create` inverse
    /// already undoes everything written to it.
    first_new_id: u64,
    /// Ids that already have a `Mutate` pre-image in the segment.
    /// Keeping only the first pre-image per segment is enough for
    /// inverse replay (the earliest snapshot restores the pre-segment
    /// state) and stops repeated `element_mut(id)` from appending one
    /// op each.
    mutated: BTreeSet<ElementId>,
}

impl Journal {
    /// Opens the outermost segment; `next_id` is the id watermark.
    pub(crate) fn new(next_id: u64) -> Self {
        let mut journal = Journal::default();
        journal.push_savepoint(next_id);
        journal
    }

    /// Opens a nested segment; `next_id` is the id watermark.
    pub(crate) fn push_savepoint(&mut self, next_id: u64) {
        let start = self.ops.len();
        self.segments.push(Segment { start, first_new_id: next_id, mutated: BTreeSet::new() });
    }

    fn innermost(&self) -> &Segment {
        self.segments.last().expect("active journal has a segment")
    }

    /// Whether a `Mutate` pre-image for `id` is still wanted in the
    /// innermost segment. Callers check this *before* cloning the
    /// pre-image so the duplicate case costs a set lookup, not a clone.
    /// A nested segment records its own first pre-image even when the
    /// enclosing segment already has one: a rollback of the inner
    /// segment must be able to restore the element on its own.
    pub(crate) fn wants_mutate(&self, id: ElementId) -> bool {
        !self.innermost().mutated.contains(&id)
    }

    /// Records an op. Duplicate `Mutate`s per id per segment are
    /// dropped (see [`Journal::wants_mutate`]), and so are typed ops on
    /// an id the segment created or already holds a pre-image of: the
    /// replay of that `Create` or `Mutate` undoes them anyway.
    pub(crate) fn record(&mut self, op: JournalOp) {
        let segment = self.segments.last_mut().expect("active journal has a segment");
        let covered = match &op {
            JournalOp::Mutate { id, .. } => !segment.mutated.insert(*id),
            JournalOp::Stereotype { id, .. } | JournalOp::Tag { id, .. } => {
                id.raw() >= segment.first_new_id || segment.mutated.contains(id)
            }
            _ => false,
        };
        if !covered {
            self.ops.push(op);
        }
    }

    /// Ids created since the innermost savepoint, in recording order.
    pub(crate) fn created_since_savepoint(&self) -> Vec<ElementId> {
        self.ops[self.innermost().start..]
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
        let segment = self.segments.pop().expect("active journal has a segment");
        let delta = summarize(&self.ops[segment.start..], elements);
        // A nested segment's ops stay: the enclosing segment must still
        // be able to unwind them. Its pre-imaged ids fold into the
        // enclosing segment for the same reason — the enclosing replay
        // already restores them, so re-recording would be redundant.
        // The ids it created are the enclosing segment's too.
        match self.segments.last_mut() {
            Some(enclosing) => {
                enclosing.mutated.extend(segment.mutated);
                (delta, None)
            }
            None => (delta, Some(UndoLog { ops: std::mem::take(&mut self.ops) })),
        }
    }

    /// Unwinds the innermost segment: replays inverses newest-first and
    /// drops the segment's ops, reporting each element the replay
    /// changes to `cache` (see [`unwind`]). Returns the mutations undone
    /// and whether the journal is now finished.
    pub(crate) fn rollback(
        &mut self,
        elements: &mut BTreeMap<ElementId, Element>,
        next_id: &mut u64,
        name: &mut String,
        cache: &mut IndexCache,
    ) -> (usize, bool) {
        // The segment's ops are about to be drained, so its dedup set
        // simply disappears with them; ids the enclosing segment also
        // pre-imaged are still covered by its own set.
        let segment = self.segments.pop().expect("active journal has a segment");
        let undone = self.ops.len() - segment.start;
        unwind(self.ops.drain(segment.start..), elements, next_id, name, cache);
        (undone, self.segments.is_empty())
    }
}

/// Replays inverse ops newest-first: the one unwind loop under both a
/// rollback of an open segment and [`Model::revert`](crate::Model::revert)
/// of a committed one. Every element an op restores or deletes is
/// touched in `cache` with the state the op replaced (`None`: absent),
/// and every stereotype or tag an op restores is touched as that field
/// alone, which keeps the model index current.
pub(crate) fn unwind(
    ops: impl DoubleEndedIterator<Item = JournalOp>,
    elements: &mut BTreeMap<ElementId, Element>,
    next_id: &mut u64,
    name: &mut String,
    cache: &mut IndexCache,
) {
    let mut ops = ops.rev().peekable();
    while let Some(op) = ops.next() {
        match op {
            JournalOp::Create { id, prev_next_id } => {
                let gone = elements.remove(&id);
                cache.touch(id, || gone);
                *next_id = prev_next_id;
            }
            JournalOp::Mutate { id, before } => {
                let filed = elements.insert(id, *before);
                cache.touch(id, || filed);
            }
            JournalOp::Remove { before } => {
                for e in before {
                    let id = e.id();
                    let filed = elements.insert(id, e);
                    cache.touch(id, || filed);
                }
            }
            JournalOp::SetName { prev } => {
                *name = prev;
            }
            op @ (JournalOp::Stereotype { id, .. } | JournalOp::Tag { id, .. }) => {
                // Ops replay newest-first, so the element is back by the
                // time its own ops are undone. A body writes an
                // element's stereotype and tags in a row, so the whole
                // run is undone under one lookup and one touch.
                let e = elements.get_mut(&id).expect("a marked element exists");
                let mut run = Some(op);
                while let Some(op) = run {
                    if let Some(name) = unmark(e, op) {
                        cache.edit_stereotype(id, name.into(), false);
                    }
                    run = ops.next_if(|op| {
                        matches!(op, JournalOp::Stereotype { id: next, .. }
                            | JournalOp::Tag { id: next, .. } if *next == id)
                    });
                }
                cache.touch_marks(id);
            }
        }
    }
}

/// Undoes a typed op on `e`; returns the stereotype it took off, if
/// any.
fn unmark(e: &mut Element, op: JournalOp) -> Option<String> {
    match op {
        JournalOp::Stereotype { name, .. } => {
            e.core_mut().remove_stereotype(&name);
            Some(name)
        }
        JournalOp::Tag { key, prev, .. } => {
            let tags = &mut e.core_mut().tags;
            match prev {
                Some(prev) => tags.insert(key, prev),
                None => tags.remove(&key),
            };
            None
        }
        _ => unreachable!("only typed ops mark one field of one element"),
    }
}

/// Derives one segment's [`ModelDelta`] from its ops alone — no
/// before/after model sweep.
///
/// * created — `Create` ids still present (created-then-removed cancels
///   out; ids are never reused, so presence is unambiguous);
/// * removed — elements deleted by `Remove` cascades that pre-existed
///   the segment;
/// * modified — pre-existing elements with a recorded op whose final
///   content differs from their state at segment start (the *earliest*
///   state wins, so a mutate-then-mutate-back sequence reports clean,
///   as does a tag set and then set back).
fn summarize(ops: &[JournalOp], elements: &BTreeMap<ElementId, Element>) -> ModelDelta {
    let mut created: BTreeSet<ElementId> = BTreeSet::new();
    let mut removed: BTreeSet<ElementId> = BTreeSet::new();
    let mut pre_image: BTreeMap<ElementId, &Element> = BTreeMap::new();
    // Per id, the typed ops recorded before its first pre-image (all of
    // them, for an id without one).
    let mut marks: BTreeMap<ElementId, Vec<&JournalOp>> = BTreeMap::new();
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
            JournalOp::Stereotype { id, .. } | JournalOp::Tag { id, .. } => {
                if !pre_image.contains_key(id) {
                    marks.entry(*id).or_default().push(op);
                }
            }
        }
    }
    let changed = |id: &ElementId| {
        let Some(now) = elements.get(id) else { return false };
        match (pre_image.get(id), marks.get(id)) {
            (Some(before), None) => now != *before,
            (Some(before), Some(marks)) => {
                let mut start = (*before).clone();
                for op in marks.iter().rev() {
                    unmark(&mut start, (*op).clone());
                }
                *now != start
            }
            (None, Some(marks)) => marks_changed(now, marks),
            (None, None) => false,
        }
    };
    let touched: BTreeSet<ElementId> = pre_image.keys().chain(marks.keys()).copied().collect();
    ModelDelta {
        created: created.iter().copied().filter(|id| elements.contains_key(id)).collect(),
        modified: touched
            .into_iter()
            .filter(|id| !created.contains(id) && !removed.contains(id) && changed(id))
            .collect(),
        removed: removed.into_iter().collect(),
    }
}

/// Whether `now` differs from its segment-start state, given that only
/// the typed ops `marks` wrote to it in the segment. Typed ops only
/// ever add stereotypes, so a recorded one is absent at the start and
/// present now; a tag differs when its earliest `prev` differs from its
/// final value. The other fields are as they started, which the sweep
/// still reports as a change when one holds a NaN tag (element equality
/// is not reflexive then), and so does this.
fn marks_changed(now: &Element, marks: &[&JournalOp]) -> bool {
    let mut keys: Vec<&str> = Vec::new();
    let differs = marks.iter().any(|op| match op {
        JournalOp::Stereotype { .. } => true,
        JournalOp::Tag { key, prev, .. } => {
            !keys.contains(&key.as_str()) && {
                keys.push(key);
                now.core().tag(key) != prev.as_ref()
            }
        }
        _ => unreachable!("only typed ops mark one field of one element"),
    });
    differs || !now.eq(now)
}

#[cfg(test)]
mod tests {
    //! The segment summary equals the sweep [`ModelDelta::between`] from
    //! the segment's start, and a rollback or revert restores that
    //! start, when typed stereotype and tag ops, `element_mut` writes and
    //! removes hit the same ids within one segment and across nested
    //! ones. Values come from a small set, so a tag is often set back.

    use crate::{ElementId, Model, ModelDelta, UndoLog};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Stereotype(u8, u8),
        Tag(u8, u8, u8),
        EditStereotype(u8, u8),
        EditTag(u8, u8, u8),
        Rename(u8, u8),
        TouchOnly(u8),
        Add(u8),
        Remove(u8),
        Begin,
        Commit,
        Rollback,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let b = any::<u8>;
        prop_oneof![
            (b(), b()).prop_map(|(x, s)| Op::Stereotype(x, s)),
            (b(), b(), b()).prop_map(|(x, k, v)| Op::Tag(x, k, v)),
            (b(), b()).prop_map(|(x, s)| Op::EditStereotype(x, s)),
            (b(), b(), b()).prop_map(|(x, k, v)| Op::EditTag(x, k, v)),
            (b(), b()).prop_map(|(x, n)| Op::Rename(x, n)),
            b().prop_map(Op::TouchOnly),
            b().prop_map(Op::Add),
            b().prop_map(Op::Remove),
            Just(Op::Begin),
            Just(Op::Commit),
            Just(Op::Rollback),
        ]
    }

    /// Runs one op. `starts` holds a clone of the model at each open
    /// segment's start, innermost last; a write with none open opens
    /// one, so every committed step has a log to revert.
    fn run(m: &mut Model, op: &Op, starts: &mut Vec<Model>, logs: &mut Vec<UndoLog>) {
        if starts.is_empty() && !matches!(op, Op::Begin | Op::Commit | Op::Rollback) {
            run(m, &Op::Begin, starts, logs);
        }
        let ids: Vec<ElementId> = m.iter().map(|e| e.id()).filter(|&id| id != m.root()).collect();
        let pick = |i: u8| (!ids.is_empty()).then(|| ids[i as usize % ids.len()]);
        let stereotype = |s: u8| format!("s{}", s % 2);
        let tag = |k: u8, v: u8| (format!("k{}", k % 2), ["a", "b"][v as usize % 2]);
        match *op {
            Op::Stereotype(x, s) => {
                if let Some(x) = pick(x) {
                    m.apply_stereotype(x, &stereotype(s)).unwrap();
                }
            }
            Op::Tag(x, k, v) => {
                if let Some(x) = pick(x) {
                    let (k, v) = tag(k, v);
                    m.set_tag(x, &k, v).unwrap();
                }
            }
            Op::EditStereotype(x, s) => {
                if let Some(x) = pick(x) {
                    let core = m.element_mut(x).unwrap().core_mut();
                    if !core.remove_stereotype(&stereotype(s)) {
                        core.apply_stereotype(stereotype(s));
                    }
                }
            }
            Op::EditTag(x, k, v) => {
                if let Some(x) = pick(x) {
                    let tags = &mut m.element_mut(x).unwrap().core_mut().tags;
                    let (k, v) = tag(k, v);
                    if tags.remove(&k).is_none() {
                        tags.insert(k, v.into());
                    }
                }
            }
            Op::Rename(x, n) => {
                if let Some(x) = pick(x) {
                    m.element_mut(x).unwrap().core_mut().name = format!("n{}", n % 3);
                }
            }
            Op::TouchOnly(x) => {
                if let Some(x) = pick(x) {
                    let _ = m.element_mut(x).unwrap();
                }
            }
            Op::Add(n) => {
                let root = m.root();
                let _ = m.add_class(root, &format!("Added{n}"));
            }
            Op::Remove(x) => {
                if let Some(x) = pick(x) {
                    m.remove_element(x).unwrap();
                }
            }
            Op::Begin => {
                starts.push(m.clone());
                m.begin_journal();
            }
            Op::Commit => {
                if let Some(start) = starts.pop() {
                    let (delta, log) = m.commit_journal().unwrap();
                    assert_eq!(delta, ModelDelta::between(&start, m), "after {op:?}");
                    logs.extend(log);
                }
            }
            Op::Rollback => {
                if let Some(start) = starts.pop() {
                    m.rollback_journal().unwrap();
                    assert_eq!(*m, start);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn summaries_and_unwinds_match_the_segment_start(
            script in prop::collection::vec(arb_op(), 0..50),
        ) {
            let mut m = crate::sample::synthetic(3, 1, 2);
            let _ = m.index();
            let base = m.clone();
            let (mut starts, mut logs) = (Vec::new(), Vec::new());
            run(&mut m, &Op::Begin, &mut starts, &mut logs);
            for op in &script {
                run(&mut m, op, &mut starts, &mut logs);
            }
            while !starts.is_empty() {
                run(&mut m, &Op::Commit, &mut starts, &mut logs);
            }
            // Every step since `base` began inside a journal, so the
            // committed logs revert newest-first back to it.
            while let Some(log) = logs.pop() {
                m.revert(log);
            }
            prop_assert_eq!(&m, &base);
        }
    }
}
