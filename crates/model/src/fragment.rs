//! Per-element rendering cache: what lets a serializer such as the XMI
//! exporter re-render only the elements a write touched.
//!
//! A document that lists every element in id order, each rendered from
//! that element alone, is the concatenation of per-element fragments.
//! [`Model::render_fragments`] keeps each fragment after rendering it
//! and drops it at the same per-id touch that keeps the model index
//! current (element allocation, [`Model::element_mut`],
//! [`Model::remove_element`], [`Model::set_name`],
//! [`Model::apply_stereotype`], [`Model::set_tag`], and the unwind loop
//! under [`Model::rollback_journal`] and [`Model::revert`]), so after a
//! write only the touched ids render again.
//!
//! Like the index, the fragments are derived data: `Clone` resets them
//! (a clone renders every element, which makes it the cold oracle the
//! tests compare against) and model equality ignores them.

use crate::element::Element;
use crate::id::ElementId;
use crate::model::Model;
use std::collections::BTreeMap;

/// The fragments of one renderer, keyed by element id. Every key is
/// the id of an element of the model, rendered as it is now: a touch
/// removes the key before its element changes or goes.
#[derive(Debug, Default)]
pub(crate) struct Fragments {
    renderer: &'static str,
    by_id: BTreeMap<ElementId, Box<str>>,
}

impl Fragments {
    /// Forgets the fragment of `id`, which is about to change.
    pub(crate) fn drop_id(&mut self, id: ElementId) {
        self.by_id.remove(&id);
    }
}

#[cfg(test)]
thread_local! {
    /// Ids rendered on this thread, in render order (the unit tests pin
    /// that a write re-renders only its touched ids).
    pub(crate) static RENDERED: std::cell::RefCell<Vec<ElementId>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Model {
    /// Appends every element's fragment to `out`, in id order, as
    /// `render` writes it. Only elements touched since their fragment
    /// was last rendered are rendered again; the rest come from the
    /// cache. `render` must depend on nothing but the element it is
    /// given. `renderer` names the rendering: a call under another name
    /// drops every cached fragment first, so two renderers never see
    /// each other's fragments.
    pub fn render_fragments(
        &self,
        renderer: &'static str,
        render: impl Fn(&Element, &mut String),
        out: &mut String,
    ) {
        let mut cache = self.cache().fragments.lock().expect("fragment lock poisoned");
        if cache.renderer != renderer {
            cache.by_id.clear();
            cache.renderer = renderer;
        }
        if cache.by_id.len() != self.len() {
            // Keys are a subset of the element ids, so one merge walk
            // over both id-ordered sequences finds the missing ones.
            let missing: Vec<&Element> = {
                let mut cached = cache.by_id.keys().peekable();
                self.iter().filter(|e| cached.next_if_eq(&&e.id()).is_none()).collect()
            };
            let mut buf = String::new();
            for e in missing {
                #[cfg(test)]
                RENDERED.with(|r| r.borrow_mut().push(e.id()));
                buf.clear();
                render(e, &mut buf);
                cache.by_id.insert(e.id(), buf.as_str().into());
            }
        }
        for fragment in cache.by_id.values() {
            out.push_str(fragment);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::Primitive;
    use crate::ModelDelta;

    /// The ids rendered since the last call, sorted.
    fn rendered() -> Vec<ElementId> {
        let mut ids = RENDERED.with(|r| std::mem::take(&mut *r.borrow_mut()));
        ids.sort();
        ids
    }

    fn render(m: &Model) -> String {
        let mut out = String::new();
        m.render_fragments("debug", |e, out| out.push_str(&format!("{e:?}\n")), &mut out);
        out
    }

    /// A refinement step as the lifecycle runs one: a journal segment
    /// that adds, stereotypes, renames and removes, then commits.
    fn step(m: &mut Model, n: usize) -> (ModelDelta, crate::UndoLog) {
        m.begin_journal();
        let c0 = m.find_class("C0").unwrap();
        let proxy = m.add_class(m.root(), &format!("Proxy{n}")).unwrap();
        m.add_attribute(proxy, "target", Primitive::Str.into()).unwrap();
        m.apply_stereotype(c0, "Remote").unwrap();
        let op = m.operations_of(c0)[0];
        m.element_mut(op).unwrap().core_mut().name = format!("op{n}");
        let attr = m.attributes_of(m.find_class("C1").unwrap())[0];
        m.remove_element(attr).unwrap();
        let (delta, log) = m.commit_journal().unwrap();
        (delta, log.unwrap())
    }

    /// What an export after `delta` must render: what it created or
    /// modified (removed elements have nothing to render).
    fn expected(delta: &ModelDelta) -> Vec<ElementId> {
        let mut ids: Vec<ElementId> =
            delta.created.iter().chain(&delta.modified).copied().collect();
        ids.sort();
        ids
    }

    #[test]
    fn apply_undo_apply_and_rollback_re_render_only_touched_ids() {
        let mut m = crate::sample::synthetic(6, 2, 2);
        let warm = render(&m);
        assert_eq!(rendered().len(), m.len(), "a cold render renders every element");
        assert_eq!(render(&m), warm);
        assert!(rendered().is_empty(), "an unchanged model renders nothing");

        let (delta, log) = step(&mut m, 1);
        let applied = render(&m);
        assert_eq!(rendered(), expected(&delta));
        assert_eq!(applied, render(&m.clone()), "warm and cold renders agree");
        let _ = rendered();

        // Undo: the revert restores the modified and removed elements
        // and deletes the created ones; only the restored ones render.
        m.revert(log);
        assert_eq!(render(&m), warm, "undo renders the pre-step document");
        let mut restored: Vec<ElementId> =
            delta.modified.iter().chain(&delta.removed).copied().collect();
        restored.sort();
        assert_eq!(rendered(), restored);

        let (delta, _) = step(&mut m, 2);
        let after = render(&m);
        assert_eq!(rendered(), expected(&delta));
        assert_eq!(after, render(&m.clone()), "warm and cold renders agree");
        let _ = rendered();

        // A rollback renders only what it unwound and is still there.
        m.begin_journal();
        let c2 = m.find_class("C2").unwrap();
        m.apply_stereotype(c2, "Hot").unwrap();
        let ghost = m.add_class(m.root(), "Ghost").unwrap();
        assert_ne!(render(&m), after);
        assert_eq!(rendered(), vec![c2, ghost]);
        m.rollback_journal().unwrap();
        assert_eq!(render(&m), after);
        assert_eq!(rendered(), vec![c2], "the ghost is gone; only c2 was restored");
    }

    #[test]
    fn another_renderer_renders_every_element_afresh() {
        let m = crate::sample::synthetic(2, 1, 1);
        let _ = render(&m);
        let mut out = String::new();
        m.render_fragments("ids", |e, out| out.push_str(&format!("{}\n", e.id())), &mut out);
        assert_eq!(out.lines().count(), m.len());
        assert!(!out.contains("Element"), "no fragment of the other renderer leaks in: {out}");
    }
}
