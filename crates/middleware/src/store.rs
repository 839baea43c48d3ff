//! A simulated document store: the persistence backend the persistence
//! concern saves object snapshots into (the role a persistence service
//! or entity-bean container plays in a J2EE-era platform).
//!
//! `save` and `load` are fallible: they are fault-injection choke
//! points (`store.save` / `store.load`). A store built standalone via
//! [`StoreService::new`] has no injector attached and never fails.

use crate::error::MiddlewareError;
use crate::faults::{FaultInjector, FaultOp};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Documents written (including overwrites).
    pub saves: u64,
    /// Successful loads.
    pub loads: u64,
    /// Loads that found nothing.
    pub misses: u64,
    /// Saves or loads rejected by an injected fault.
    pub faulted: u64,
}

/// A key-value document store, generic over the snapshot type (the
/// interpreter stores its runtime values).
#[derive(Debug, Clone, Default)]
pub struct StoreService<V> {
    documents: BTreeMap<String, V>,
    stats: StoreStats,
    faults: Option<Rc<RefCell<FaultInjector>>>,
}

impl<V: Clone> StoreService<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        StoreService { documents: BTreeMap::new(), stats: StoreStats::default(), faults: None }
    }

    pub(crate) fn attach_faults(&mut self, faults: Rc<RefCell<FaultInjector>>) {
        self.faults = Some(faults);
    }

    fn check(&mut self, op: FaultOp) -> Result<(), MiddlewareError> {
        if let Some(faults) = &self.faults {
            if let Err(e) = faults.borrow_mut().check(op, &[]) {
                self.stats.faulted += 1;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<&str> {
        self.documents.keys().map(String::as_str).collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Writes (or overwrites) a document.
    ///
    /// # Errors
    /// Fails when the fault injector perturbs `store.save` (the
    /// document is then *not* written).
    pub fn save(&mut self, key: &str, snapshot: V) -> Result<(), MiddlewareError> {
        self.check(FaultOp::StoreSave)?;
        self.documents.insert(key.to_owned(), snapshot);
        self.stats.saves += 1;
        Ok(())
    }

    /// Reads a document.
    ///
    /// # Errors
    /// Fails only when the fault injector perturbs `store.load`.
    pub fn load(&mut self, key: &str) -> Result<Option<V>, MiddlewareError> {
        self.check(FaultOp::StoreLoad)?;
        match self.documents.get(key) {
            Some(v) => {
                self.stats.loads += 1;
                Ok(Some(v.clone()))
            }
            None => {
                self.stats.misses += 1;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::faults::{FaultKind, FaultPlan};

    #[test]
    fn save_load_delete() {
        let mut s: StoreService<i64> = StoreService::new();
        assert!(s.is_empty());
        s.save("a/1", 10).unwrap();
        s.save("a/1", 20).unwrap(); // overwrite
        s.save("a/2", 30).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.load("a/1").unwrap(), Some(20));
        assert_eq!(s.load("ghost").unwrap(), None);
        assert_eq!(s.keys(), vec!["a/1", "a/2"]);
        let st = s.stats();
        assert_eq!((st.saves, st.loads, st.misses, st.faulted), (3, 1, 1, 0));
    }

    #[test]
    fn faulted_save_writes_nothing() {
        let clock = Rc::new(RefCell::new(SimClock::default()));
        let faults = Rc::new(RefCell::new(FaultInjector::new(clock, 1)));
        faults.borrow_mut().install_plan(FaultPlan::new(1).at(
            FaultOp::StoreSave,
            1,
            FaultKind::Transient,
        ));
        let mut s: StoreService<i64> = StoreService::new();
        s.attach_faults(faults);
        let err = s.save("k", 1).unwrap_err();
        assert!(matches!(err, MiddlewareError::FaultInjected { ref op } if op == "store.save"));
        assert!(s.is_empty(), "a faulted save must not write");
        assert_eq!(s.stats().faulted, 1);
        s.save("k", 2).unwrap();
        assert_eq!(s.load("k").unwrap(), Some(2));
    }
}
