//! The element-level change record: what one refinement step changed.
//!
//! The transformation engine reports it (derived from the change
//! journal), the versioned repository stores it with each commit, and
//! a comparison of any two model versions computes it with
//! [`ModelDelta::between`]. Element ids are never reused within a
//! lineage, so id identity is meaningful across versions.

use crate::id::ElementId;
use crate::model::Model;

/// The elements a change created, modified and removed, each list in
/// id order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelDelta {
    /// Elements present after the change but not before.
    pub created: Vec<ElementId>,
    /// Elements present on both sides whose content differs.
    pub modified: Vec<ElementId>,
    /// Elements present before the change but not after.
    pub removed: Vec<ElementId>,
}

impl ModelDelta {
    /// True when the change left every element untouched.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }

    /// Total elements touched.
    pub fn touched(&self) -> usize {
        self.created.len() + self.modified.len() + self.removed.len()
    }

    /// The delta from `before` to `after`, by a sweep over both arenas:
    /// O(model), where the change journal's summary is O(delta).
    pub fn between(before: &Model, after: &Model) -> ModelDelta {
        let mut delta = ModelDelta::default();
        for now in after.iter() {
            match before.element(now.id()) {
                Err(_) => delta.created.push(now.id()),
                Ok(was) if was != now => delta.modified.push(now.id()),
                Ok(_) => {}
            }
        }
        delta.removed = before.iter().map(|e| e.id()).filter(|id| !after.contains(*id)).collect();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::banking_pim;
    use crate::Primitive;

    #[test]
    fn identical_models_have_an_empty_delta() {
        let m = banking_pim();
        let d = ModelDelta::between(&m, &m.clone());
        assert!(d.is_empty());
        assert_eq!(d.touched(), 0);
    }

    #[test]
    fn detects_created_removed_modified() {
        let a = banking_pim();
        let mut b = a.clone();
        let bank = b.find_class("Bank").unwrap();
        b.apply_stereotype(bank, "Remote").unwrap();
        let created = b.add_class(b.root(), "NewThing").unwrap();
        let customer = b.find_class("Customer").unwrap();
        let removed = b.remove_element(customer).unwrap();
        let d = ModelDelta::between(&a, &b);
        assert!(d.created.contains(&created));
        assert!(d.modified.contains(&bank));
        for r in &removed {
            assert!(d.removed.contains(r));
        }
        assert_eq!(d.touched(), d.created.len() + d.modified.len() + d.removed.len());
    }

    #[test]
    fn delta_is_directional() {
        let a = banking_pim();
        let mut b = a.clone();
        let c = b.add_class(b.root(), "X").unwrap();
        b.add_attribute(c, "y", Primitive::Int.into()).unwrap();
        let fwd = ModelDelta::between(&a, &b);
        let bwd = ModelDelta::between(&b, &a);
        assert_eq!(fwd.created.len(), 2);
        assert_eq!(fwd.removed.len(), 0);
        assert_eq!(bwd.removed.len(), 2);
        assert_eq!(bwd.created.len(), 0);
    }
}
