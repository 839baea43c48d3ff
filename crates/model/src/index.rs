//! Maintained query index over a [`Model`]: the [`ModelIndex`].
//!
//! Every navigation helper in `query.rs` used to be a full scan of the
//! element arena — fine for one lookup, quadratic the moment a
//! transformation loops over classes calling `operations_of` /
//! `ancestors_of` per class. The `ModelIndex` answers all of those
//! queries from hash maps, and is kept current by patching the ids a
//! mutation touched rather than rebuilt after every write.
//!
//! ## Maintenance rules
//!
//! * **Touched elements.** Every mutation choke point of [`Model`]
//!   reports each element it changes to the [`IndexCache`], with the
//!   element's state before the change: element allocation (all
//!   `add_*` constructors funnel through it), [`Model::element_mut`],
//!   [`Model::remove_element`] (every element of the cascade),
//!   [`Model::set_name`] (the root), and the unwind loop under
//!   [`Model::rollback_journal`] and [`Model::revert`] (every element a
//!   replayed journal op restores or deletes). Only the first report
//!   per id since the last patch is kept: its state is the one the
//!   index filed. While no index has been built yet, nothing is
//!   recorded.
//! * **Marked elements.** [`Model::apply_stereotype`] and
//!   [`Model::set_tag`], and the unwind of their typed journal ops,
//!   change one field the index mostly does not read, so they queue no
//!   refile ([`IndexCache::touch_marks`]). A tag write queues nothing;
//!   no table reads tags. A stereotype write queues one edit of the
//!   `stereotyped` table for its id, or nothing when a refile of the id
//!   is already pending, since that refile files the element as it is
//!   then.
//! * **Patching.** The next query takes the slot's write lock and
//!   patches the index in place (`Arc::make_mut`): it applies the
//!   queued `stereotyped` edits in write order, then, for each pending
//!   id, takes the recorded state's entries out and files the element
//!   as it is now. A build is the same filing over an empty index, so
//!   the two cannot disagree.
//! * **Order.** Every table is a sorted set: id vectors stay in id
//!   order, name maps answer their lowest id, and `parents` /
//!   `specializations` stay in generalization-edge id order. The
//!   ancestor closure is recomputed only when a patch touched a
//!   generalization or moved a generalization child in or out of the
//!   classifier set.
//! * **Revision.** [`Model::revision`] is bumped at every touch, so
//!   caches keyed on it still see every mutation. Cloning a model
//!   resets the clone's cache (the index is derived data, never
//!   copied), and model equality ignores the cache entirely.
//! * **Other per-id state.** The same touch drops the element's
//!   rendered fragment (`fragment.rs`) and, once a validation has
//!   passed, adds the id to the ids the next one checks
//!   (`validate.rs`). Both work whether or not an index exists. A
//!   marking write drops the fragment too, but adds no id to check.
//!
//! The property tests in `tests/index_properties.rs` drive random
//! mutation, rollback and revert sequences and assert every indexed
//! query answers exactly like a full scan of the element arena (the
//! scan oracle in `tests/scan/mod.rs`); the unit properties below
//! assert the maintained index equals a fresh [`ModelIndex::build`]
//! after every op.

use crate::element::{Element, ElementKind};
use crate::fragment::Fragments;
use crate::id::ElementId;
use crate::kinds::TypeRef;
use crate::model::Model;
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, RwLock};

/// The index slot living inside every [`Model`], plus its revision
/// counter and the other state derived per touched id: the rendered
/// fragments (`fragment.rs`) and the ids touched since the last
/// passing validation (`validate.rs`).
#[derive(Debug, Default)]
pub(crate) struct IndexCache {
    revision: u64,
    slot: RwLock<Slot>,
    pub(crate) fragments: Mutex<Fragments>,
    /// Ids touched since [`Model::validate`] last passed; `None` while
    /// no validation has passed on this instance.
    pub(crate) unchecked: Mutex<Option<BTreeSet<ElementId>>>,
}

#[derive(Debug, Default)]
struct Slot {
    index: Option<Arc<ModelIndex>>,
    /// Ids touched since `index` was last patched, each with the element
    /// as `index` filed it (`None`: nothing is filed under the id).
    pending: BTreeMap<ElementId, Option<Element>>,
    /// Edits of the `stereotyped` table: a stereotype put on (`true`)
    /// or taken off (`false`) an id that was not in `pending` at the
    /// time, in write order.
    stereotype_edits: Vec<(ElementId, String, bool)>,
}

impl IndexCache {
    /// Records that a mutation changes element `id`, whose state before
    /// the change `filed` returns (`None`: absent): bumps the revision,
    /// drops the element's rendered fragment, adds `id` to the ids the
    /// next validation checks and, once an index exists, queues `id`
    /// for the next patch. Only the first touch since that patch calls
    /// `filed` — its state is the one the index holds. Takes `&mut
    /// self` — mutation always happens under `&mut Model` — so none of
    /// this needs a lock.
    pub(crate) fn touch(&mut self, id: ElementId, filed: impl FnOnce() -> Option<Element>) {
        self.revision += 1;
        self.fragments.get_mut().expect("fragment lock poisoned").drop_id(id);
        if let Some(unchecked) = self.unchecked.get_mut().expect("validation lock poisoned") {
            unchecked.insert(id);
        }
        let slot = self.slot.get_mut().expect("index lock poisoned");
        if slot.index.is_some() {
            slot.pending.entry(id).or_insert_with(|| {
                #[cfg(test)]
                REFILES.with(|n| n.set(n.get() + 1));
                filed()
            });
        }
    }

    /// Records that a write changes only element `id`'s stereotypes or
    /// tagged values: bumps the revision and drops the element's
    /// rendered fragment as [`IndexCache::touch`] does, but queues no
    /// refile and adds nothing to the ids the next validation checks —
    /// no well-formedness rule reads either field. No table reads tags;
    /// a stereotype change also goes to [`IndexCache::edit_stereotype`].
    pub(crate) fn touch_marks(&mut self, id: ElementId) {
        self.revision += 1;
        self.fragments.get_mut().expect("fragment lock poisoned").drop_id(id);
    }

    /// Queues putting `id` into (`insert`) or taking it out of the
    /// `stereotyped` entry of `name` at the next patch, once an index
    /// exists — unless a refile of `id` is already pending and covers
    /// it.
    pub(crate) fn edit_stereotype(&mut self, id: ElementId, name: Cow<str>, insert: bool) {
        let slot = self.slot.get_mut().expect("index lock poisoned");
        if slot.index.is_some() && !slot.pending.contains_key(&id) {
            slot.stereotype_edits.push((id, name.into_owned(), insert));
        }
    }

    /// The revision counter behind [`Model::revision`].
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }
}

/// Precomputed lookup tables over the whole model. All vectors are in
/// element-id order, matching what the full scans produce.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct ModelIndex {
    /// Kind name (`"Class"`, `"Operation"`, ...) → ids.
    pub by_kind: HashMap<&'static str, Vec<ElementId>>,
    /// All classifier ids.
    pub classifiers: Vec<ElementId>,
    /// Owner → directly owned ids.
    pub children: HashMap<ElementId, Vec<ElementId>>,
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
    /// Generalization child → (edge, parent), in edge-id order.
    pub parents: HashMap<ElementId, Vec<(ElementId, ElementId)>>,
    /// Generalization parent → (edge, child), in edge-id order.
    pub specializations: HashMap<ElementId, Vec<(ElementId, ElementId)>>,
    /// Classifier → transitive ancestor closure, in worklist order: the
    /// last direct parent is expanded first.
    pub ancestors: HashMap<ElementId, Vec<ElementId>>,
    /// Stereotype → ids carrying it.
    pub stereotyped: HashMap<String, Vec<ElementId>>,
    /// Simple name → classifier ids with that name.
    pub classifier_by_name: HashMap<String, Vec<ElementId>>,
    /// Simple name → class ids with that name.
    pub class_by_name: HashMap<String, Vec<ElementId>>,
    /// Element → ids of the elements that refer to it other than as
    /// owner: type references and relationship endpoints.
    pub referrers: HashMap<ElementId, Vec<ElementId>>,
}

#[cfg(test)]
thread_local! {
    /// Full builds on this thread (the unit tests pin that writes patch).
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Refiles queued on this thread (the unit tests pin that a marking
    /// write queues none).
    pub(crate) static REFILES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ModelIndex {
    /// Builds all tables by filing every element of `model` into an
    /// empty index.
    pub(crate) fn build(model: &Model) -> Self {
        #[cfg(test)]
        BUILDS.with(|b| b.set(b.get() + 1));
        let mut ix = ModelIndex::default();
        for e in model.iter() {
            ix.file(e, true);
        }
        ix.close_ancestors();
        ix
    }

    /// Applies the queued `stereotyped` edits, then refiles each touched
    /// id: takes the element out as it was filed and files it as it is
    /// in `model` now (nothing, if it is gone). The edits go first: a
    /// refile queued after an edit recorded the element with it.
    fn patch(
        &mut self,
        model: &Model,
        stereotype_edits: impl Iterator<Item = (ElementId, String, bool)>,
        touched: BTreeMap<ElementId, Option<Element>>,
    ) {
        for (id, name, insert) in stereotype_edits {
            edit_at(&mut self.stereotyped, name.as_str(), id, insert);
        }
        let mut reclose = false;
        for (id, filed) in touched {
            let now = model.element(id).ok();
            reclose |= self.recloses(id, filed.as_ref(), now);
            if let Some(filed) = &filed {
                self.file(filed, false);
            }
            if let Some(now) = now {
                self.file(now, true);
            }
        }
        if reclose {
            self.close_ancestors();
        }
    }

    /// Adds (`insert`) or takes back out the table entries of `e`: the
    /// one insert/remove pair under both a build and a patch.
    fn file(&mut self, e: &Element, insert: bool) {
        let id = e.id();
        let kind = e.kind().kind_name();
        edit_at(&mut self.by_kind, &kind, id, insert);
        if e.is_classifier() {
            edit(&mut self.classifiers, id, insert);
            edit_at(&mut self.classifier_by_name, e.name(), id, insert);
            if matches!(e.kind(), ElementKind::Class(_)) {
                edit_at(&mut self.class_by_name, e.name(), id, insert);
            }
        }
        if let Some(owner) = e.owner() {
            edit_at(&mut self.children, &owner, id, insert);
            let features = match e.kind() {
                ElementKind::Attribute(_) => Some(&mut self.attributes),
                ElementKind::Operation(_) => Some(&mut self.operations),
                ElementKind::Parameter(_) => Some(&mut self.parameters),
                _ => None,
            };
            if let Some(features) = features {
                edit_at(features, &owner, id, insert);
            }
        }
        for s in &e.core().stereotypes {
            edit_at(&mut self.stereotyped, s.as_str(), id, insert);
        }
        for target in references(e).into_iter().flatten() {
            edit_at(&mut self.referrers, &target, id, insert);
        }
        match e.kind() {
            ElementKind::Constraint(c) => {
                edit_at(&mut self.constraints_on, &c.constrained, id, insert);
            }
            // A self-association is filed once: the tables are sets.
            ElementKind::Association(a) => {
                for end in &a.ends {
                    edit_at(&mut self.associations_of, &end.class, id, insert);
                }
            }
            ElementKind::Generalization(g) => {
                edit_at(&mut self.parents, &g.child, (id, g.parent), insert);
                edit_at(&mut self.specializations, &g.parent, (id, g.child), insert);
            }
            _ => {}
        }
    }

    /// Whether element `id` changing from `filed` to `now` can move an
    /// ancestor closure: a generalization edge changed, or a
    /// generalization child joined or left the classifier set (a
    /// classifier with no parents has no closure to move).
    fn recloses(&self, id: ElementId, filed: Option<&Element>, now: Option<&Element>) -> bool {
        let generalizes = |e: Option<&Element>| {
            e.is_some_and(|e| matches!(e.kind(), ElementKind::Generalization(_)))
        };
        let classifier = |e: Option<&Element>| e.is_some_and(Element::is_classifier);
        generalizes(filed)
            || generalizes(now)
            || (classifier(filed) != classifier(now) && self.parents.contains_key(&id))
    }

    /// Recomputes every classifier's ancestor closure by a worklist
    /// traversal over the `parents` edges.
    fn close_ancestors(&mut self) {
        let mut ancestors = HashMap::new();
        for (&c, edges) in &self.parents {
            if self.classifiers.binary_search(&c).is_err() {
                continue;
            }
            let mut out: Vec<ElementId> = Vec::new();
            let mut frontier: Vec<ElementId> = ends(Some(edges));
            while let Some(p) = frontier.pop() {
                if !out.contains(&p) {
                    out.push(p);
                    frontier.extend(ends(self.parents.get(&p)));
                }
            }
            ancestors.insert(c, out);
        }
        self.ancestors = ancestors;
    }
}

/// The ids `e` refers to other than its owner: its type reference or
/// its relationship endpoints.
fn references(e: &Element) -> [Option<ElementId>; 2] {
    let typed = |ty: TypeRef| match ty {
        TypeRef::Element(id) => [Some(id), None],
        TypeRef::Primitive(_) => [None, None],
    };
    match e.kind() {
        ElementKind::Attribute(a) => typed(a.ty),
        ElementKind::Operation(o) => typed(o.return_type),
        ElementKind::Parameter(p) => typed(p.ty),
        ElementKind::Association(a) => [Some(a.ends[0].class), Some(a.ends[1].class)],
        ElementKind::Generalization(g) => [Some(g.child), Some(g.parent)],
        ElementKind::Dependency(d) => [Some(d.client), Some(d.supplier)],
        ElementKind::Constraint(c) => [Some(c.constrained), None],
        _ => [None, None],
    }
}

/// The far ends of a `parents` / `specializations` edge list, in edge
/// order.
pub(crate) fn ends(edges: Option<&Vec<(ElementId, ElementId)>>) -> Vec<ElementId> {
    edges.map_or_else(Vec::new, |edges| edges.iter().map(|&(_, end)| end).collect())
}

/// Adds or takes back out `item` in the sorted set `items`.
fn edit<T: Ord>(items: &mut Vec<T>, item: T, insert: bool) {
    // Fast path: a build files ids in ascending order.
    if insert && items.last().is_none_or(|last| *last < item) {
        items.push(item);
        return;
    }
    match (items.binary_search(&item), insert) {
        (Err(at), true) => items.insert(at, item),
        (Ok(at), false) => {
            items.remove(at);
        }
        _ => {}
    }
}

/// [`edit`] on the set filed under `key`, dropping the key once its set
/// is empty (a build never stores an empty set).
fn edit_at<K, Q, T>(map: &mut HashMap<K, Vec<T>>, key: &Q, item: T, insert: bool)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    T: Ord,
{
    match map.get_mut(key) {
        Some(items) => {
            edit(items, item, insert);
            if items.is_empty() {
                map.remove(key);
            }
        }
        None if insert => {
            map.insert(key.to_owned(), vec![item]);
        }
        None => {}
    }
}

impl Model {
    /// The index, current for the model as it is now: built on first
    /// use, patched with the ids touched since the last query after
    /// that.
    pub(crate) fn index(&self) -> Arc<ModelIndex> {
        let slot = &self.cache().slot;
        {
            let slot = slot.read().expect("index lock poisoned");
            let current = slot.pending.is_empty() && slot.stereotype_edits.is_empty();
            if let (Some(ix), true) = (&slot.index, current) {
                return Arc::clone(ix);
            }
        }
        let mut slot = slot.write().expect("index lock poisoned");
        let Slot { index, pending, stereotype_edits } = &mut *slot;
        match index {
            Some(ix) => {
                if !pending.is_empty() || !stereotype_edits.is_empty() {
                    let edits = stereotype_edits.drain(..);
                    Arc::make_mut(ix).patch(self, edits, std::mem::take(pending));
                }
                Arc::clone(ix)
            }
            None => Arc::clone(index.insert(Arc::new(ModelIndex::build(self)))),
        }
    }
}

/// Convenience: the name of an element known to exist during
/// index-backed filtering (the index never holds dangling ids once
/// patched).
pub(crate) fn name_of(model: &Model, id: ElementId) -> &str {
    model.element(id).expect("indexed id resolves").name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{AssociationEnd, Primitive};

    fn builds() -> usize {
        BUILDS.with(std::cell::Cell::get)
    }

    #[test]
    fn index_is_shared_until_mutation_then_patched_in_place() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let i1 = m.index();
        let i2 = m.index();
        assert!(Arc::ptr_eq(&i1, &i2), "an unchanged model must share the index");
        drop((i1, i2));
        m.add_operation(c, "f").unwrap();
        assert_eq!(m.index().operations.get(&c).map(Vec::len), Some(1));
    }

    #[test]
    fn element_mut_and_remove_bump_the_revision() {
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
    fn writes_rollbacks_and_reverts_patch_instead_of_rebuilding() {
        let before = builds();
        // Sibling-name checks query the index, so a model's first add
        // builds it and every later add patches it.
        let mut m = crate::sample::synthetic(6, 2, 2);
        assert_eq!(builds(), before + 1, "constructing a model builds once");
        let c0 = m.find_class("C0").unwrap();
        m.apply_stereotype(c0, "Hot").unwrap();
        assert_eq!(m.stereotyped("Hot"), vec![c0]);
        m.begin_journal();
        let x = m.add_class(m.root(), "X").unwrap();
        assert_eq!(m.find_class("X"), Some(x));
        m.rollback_journal().unwrap();
        assert_eq!(m.find_class("X"), None);
        m.begin_journal();
        let y = m.add_class(m.root(), "Y").unwrap();
        m.remove_element(c0).unwrap();
        let (_, log) = m.commit_journal().unwrap();
        assert_eq!(m.find_class("Y"), Some(y));
        m.revert(log.unwrap());
        assert_eq!(m.find_class("Y"), None);
        assert_eq!(m.stereotyped("Hot"), vec![c0]);
        assert_eq!(builds(), before + 1, "no write may rebuild the index");
        assert_eq!(*m.index(), ModelIndex::build(&m));
    }

    #[test]
    fn edge_order_survives_removing_and_re_adding_a_generalization() {
        let mut m = Model::new("m");
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|n| m.add_class(m.root(), n).unwrap());
        let g_da = m.add_generalization(d, a).unwrap();
        m.add_generalization(d, b).unwrap();
        m.add_generalization(d, c).unwrap();
        m.add_generalization(c, a).unwrap();
        assert_eq!(m.parents_of(d), vec![a, b, c]);
        m.remove_element(g_da).unwrap();
        assert_eq!(m.parents_of(d), vec![b, c]);
        m.add_generalization(d, a).unwrap();
        // The new edge has the highest id, so `a` now comes last.
        assert_eq!(m.parents_of(d), vec![b, c, a]);
        assert_eq!(m.specializations_of(a), vec![c, d]);
        assert_eq!(m.ancestors_of(d), vec![a, c, b]);
        assert_eq!(*m.index(), ModelIndex::build(&m));
    }

    #[test]
    fn an_id_freed_by_a_rollback_and_reused_is_indexed_as_the_new_element() {
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let _ = m.index();
        m.begin_journal();
        let ghost = m.add_interface(m.root(), "Ghost").unwrap();
        m.add_operation(ghost, "boo").unwrap();
        assert_eq!(m.interfaces(), vec![ghost]);
        m.rollback_journal().unwrap();
        let reused = m.add_attribute(a, "x", Primitive::Int.into()).unwrap();
        assert_eq!(reused, ghost, "the watermark hands the freed id out again");
        assert!(m.interfaces().is_empty());
        assert!(m.find_classifier("Ghost").is_none());
        assert_eq!(m.attributes_of(a), vec![reused]);
        assert_eq!(m.children(a), vec![reused]);
        assert_eq!(*m.index(), ModelIndex::build(&m));
    }

    #[test]
    fn clone_resets_cache_and_preserves_equality() {
        let mut m = Model::new("m");
        m.add_class(m.root(), "A").unwrap();
        let _ = m.index();
        let copy = m.clone();
        assert_eq!(m, copy);
        // The clone builds its own index and answers identically.
        assert_eq!(m.classes(), copy.classes());
    }

    #[test]
    fn self_association_indexed_once() {
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
        m.remove_element(assoc).unwrap();
        assert!(m.associations_of(a).is_empty());
    }

    mod maintained {
        //! The maintained index equals a from-scratch build after every
        //! op of random scripts mixing every mutation path.

        use super::super::ModelIndex;
        use crate::kinds::{AssociationEnd, Primitive};
        use crate::{ElementId, ElementKind, Model, UndoLog};
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            AddPackage(u8),
            AddClassifier(u8, u8),
            AddAttribute(u8),
            AddOperation(u8),
            AddParameter(u8),
            AddAssociation(u8, u8),
            AddGeneralization(u8, u8),
            AddDependency(u8, u8),
            AddConstraint(u8),
            Rename(u8, u8),
            Stereotype(u8, u8),
            Mark(u8, u8),
            Tag(u8),
            MoveOwner(u8, u8),
            RetargetAssociationEnd(u8, u8),
            RetargetGeneralization(u8, u8),
            Reclassify(u8),
            Remove(u8),
            SetName(u8),
            Begin,
            Commit,
            Rollback,
            Revert,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let b = any::<u8>;
            prop_oneof![
                b().prop_map(Op::AddPackage),
                (b(), b()).prop_map(|(p, k)| Op::AddClassifier(p, k)),
                b().prop_map(Op::AddAttribute),
                b().prop_map(Op::AddOperation),
                b().prop_map(Op::AddParameter),
                (b(), b()).prop_map(|(x, y)| Op::AddAssociation(x, y)),
                (b(), b()).prop_map(|(x, y)| Op::AddGeneralization(x, y)),
                (b(), b()).prop_map(|(x, y)| Op::AddDependency(x, y)),
                b().prop_map(Op::AddConstraint),
                (b(), b()).prop_map(|(x, n)| Op::Rename(x, n)),
                (b(), b()).prop_map(|(x, s)| Op::Stereotype(x, s)),
                (b(), b()).prop_map(|(x, s)| Op::Mark(x, s)),
                b().prop_map(Op::Tag),
                (b(), b()).prop_map(|(x, o)| Op::MoveOwner(x, o)),
                (b(), b()).prop_map(|(x, c)| Op::RetargetAssociationEnd(x, c)),
                (b(), b()).prop_map(|(x, c)| Op::RetargetGeneralization(x, c)),
                b().prop_map(Op::Reclassify),
                b().prop_map(Op::Remove),
                b().prop_map(Op::SetName),
                Just(Op::Begin),
                Just(Op::Commit),
                Just(Op::Rollback),
                Just(Op::Revert),
            ]
        }

        fn pick(ids: &[ElementId], i: u8) -> Option<ElementId> {
            (!ids.is_empty()).then(|| ids[i as usize % ids.len()])
        }

        /// Every id of the given kinds, by arena scan (so picking
        /// targets never patches the index itself).
        fn ids(m: &Model, keep: impl Fn(&ElementKind) -> bool) -> Vec<ElementId> {
            m.iter().filter(|e| keep(e.kind())).map(|e| e.id()).collect()
        }

        /// Runs one op. `logs` holds the committed, not yet reverted
        /// undo logs; a mutation outside any journal invalidates them.
        fn run(m: &mut Model, op: &Op, logs: &mut Vec<UndoLog>, n: &mut usize) {
            *n += 1;
            let all = ids(m, |_| true);
            let classifiers = ids(m, ElementKind::is_classifier);
            let packages = ids(m, |k| matches!(k, ElementKind::Package(_)));
            let mutates = !matches!(op, Op::Begin | Op::Commit | Op::Rollback | Op::Revert);
            if mutates && !m.journal_active() {
                logs.clear();
            }
            match *op {
                Op::AddPackage(p) => {
                    if let Some(p) = pick(&packages, p) {
                        let _ = m.add_package(p, &format!("p{n}"));
                    }
                }
                Op::AddClassifier(p, k) => {
                    if let Some(p) = pick(&packages, p) {
                        let name = format!("K{}", *n % 7);
                        let _ = match k % 4 {
                            0 => m.add_class(p, &name),
                            1 => m.add_interface(p, &name),
                            2 => m.add_data_type(p, &name),
                            _ => m.add_enumeration(p, &name, vec!["L".into()]),
                        };
                    }
                }
                Op::AddAttribute(c) => {
                    if let Some(c) = pick(&classifiers, c) {
                        let _ = m.add_attribute(c, &format!("a{n}"), Primitive::Int.into());
                    }
                }
                Op::AddOperation(c) => {
                    if let Some(c) = pick(&classifiers, c) {
                        let _ = m.add_operation(c, &format!("o{}", *n % 5));
                    }
                }
                Op::AddParameter(o) => {
                    let ops = ids(m, |k| matches!(k, ElementKind::Operation(_)));
                    if let Some(o) = pick(&ops, o) {
                        let _ = m.add_parameter(o, &format!("x{n}"), Primitive::Str.into());
                    }
                }
                Op::AddAssociation(x, y) => {
                    if let (Some(x), Some(y)) = (pick(&classifiers, x), pick(&classifiers, y)) {
                        let root = m.root();
                        let ends = (AssociationEnd::new("x", x), AssociationEnd::new("y", y));
                        let _ = m.add_association(root, "", ends.0, ends.1);
                    }
                }
                Op::AddGeneralization(x, y) => {
                    if let (Some(x), Some(y)) = (pick(&classifiers, x), pick(&classifiers, y)) {
                        let _ = m.add_generalization(x, y);
                    }
                }
                Op::AddDependency(x, y) => {
                    if let (Some(x), Some(y)) = (pick(&all, x), pick(&all, y)) {
                        let _ = m.add_dependency(x, y);
                    }
                }
                Op::AddConstraint(x) => {
                    if let Some(x) = pick(&all, x) {
                        let _ = m.add_constraint(x, &format!("inv{n}"), "true");
                    }
                }
                Op::Rename(x, name) => {
                    if let Some(x) = pick(&all, x) {
                        m.element_mut(x).unwrap().core_mut().name = format!("K{}", name % 7);
                    }
                }
                Op::Stereotype(x, s) => {
                    if let Some(x) = pick(&all, x) {
                        let core = m.element_mut(x).unwrap().core_mut();
                        let s = format!("s{}", s % 3);
                        if !core.remove_stereotype(&s) {
                            core.apply_stereotype(s);
                        }
                    }
                }
                Op::Mark(x, s) => {
                    if let Some(x) = pick(&all, x) {
                        m.apply_stereotype(x, &format!("s{}", s % 3)).unwrap();
                    }
                }
                Op::Tag(x) => {
                    if let Some(x) = pick(&all, x) {
                        m.set_tag(x, "k", n.to_string().as_str()).unwrap();
                    }
                }
                Op::MoveOwner(x, o) => {
                    let root = m.root();
                    let movable: Vec<ElementId> =
                        all.iter().copied().filter(|&id| id != root).collect();
                    if let (Some(x), Some(o)) = (pick(&movable, x), pick(&packages, o)) {
                        // Only onto a package outside x's own subtree,
                        // so ownership stays a tree.
                        let inside = m
                            .qualified_name(o)
                            .unwrap()
                            .starts_with(&format!("{}::", m.qualified_name(x).unwrap()));
                        if o != x && !inside {
                            m.element_mut(x).unwrap().core_mut().owner = Some(o);
                        }
                    }
                }
                Op::RetargetAssociationEnd(x, c) => {
                    let assocs = ids(m, |k| matches!(k, ElementKind::Association(_)));
                    if let (Some(x), Some(end)) = (pick(&assocs, x), pick(&classifiers, c)) {
                        if let ElementKind::Association(a) = m.element_mut(x).unwrap().kind_mut() {
                            a.ends[c as usize % 2].class = end;
                        }
                    }
                }
                Op::RetargetGeneralization(x, c) => {
                    let gens = ids(m, |k| matches!(k, ElementKind::Generalization(_)));
                    if let (Some(x), Some(end)) = (pick(&gens, x), pick(&classifiers, c)) {
                        let (child, parent) = match m.element(x).unwrap().kind() {
                            ElementKind::Generalization(g) if c % 2 == 0 => (g.child, end),
                            ElementKind::Generalization(g) => (end, g.parent),
                            _ => unreachable!("picked from generalizations"),
                        };
                        // Re-point one end only where the new edge
                        // closes no cycle (asked of a clone, whose cold
                        // index leaves this one's pending ids alone).
                        if child != parent && !m.clone().ancestors_of(parent).contains(&child) {
                            if let ElementKind::Generalization(g) =
                                m.element_mut(x).unwrap().kind_mut()
                            {
                                (g.child, g.parent) = (child, parent);
                            }
                        }
                    }
                }
                Op::Reclassify(x) => {
                    // Class ↔ package: the id leaves or joins the
                    // classifier set while its generalizations stay.
                    let root = m.root();
                    let movable: Vec<ElementId> =
                        all.iter().copied().filter(|&id| id != root).collect();
                    if let Some(x) = pick(&movable, x) {
                        let kind = m.element_mut(x).unwrap().kind_mut();
                        match kind {
                            ElementKind::Class(_) => {
                                *kind = ElementKind::Package(Default::default())
                            }
                            ElementKind::Package(_) => {
                                *kind = ElementKind::Class(Default::default())
                            }
                            _ => {}
                        }
                    }
                }
                Op::Remove(x) => {
                    if let Some(x) = pick(&all, x) {
                        let _ = m.remove_element(x);
                    }
                }
                Op::SetName(s) => m.set_name(format!("model{}", s % 3)),
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
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// After each checked op the maintained index equals a
            /// fresh build; unchecked ops let several writes pile up
            /// into one patch.
            #[test]
            fn maintained_index_equals_a_fresh_build(
                script in prop::collection::vec((arb_op(), any::<u8>()), 0..60),
            ) {
                let mut m = crate::sample::synthetic(3, 1, 2);
                let _ = m.index();
                let (mut logs, mut n) = (Vec::new(), 0);
                for (op, check) in &script {
                    run(&mut m, op, &mut logs, &mut n);
                    if check % 4 != 0 {
                        prop_assert_eq!(&*m.index(), &ModelIndex::build(&m), "after {:?}", op);
                    }
                }
                prop_assert_eq!(&*m.index(), &ModelIndex::build(&m));
            }
        }
    }
}
