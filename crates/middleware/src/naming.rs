//! The naming service: binds logical names to (node, object key) pairs,
//! the way a CORBA naming service or RMI registry would.

use crate::error::MiddlewareError;
use crate::faults::{FaultInjector, FaultOp};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One name binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Node hosting the object.
    pub node: String,
    /// Opaque object key on that node (interpreter object handle).
    pub object_key: u64,
}

/// The naming service.
#[derive(Debug, Clone, Default)]
pub struct NamingService {
    bindings: BTreeMap<String, Registration>,
    faults: Option<Rc<RefCell<FaultInjector>>>,
}

impl NamingService {
    /// Creates an empty naming service.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn attach_faults(&mut self, faults: Rc<RefCell<FaultInjector>>) {
        self.faults = Some(faults);
    }

    /// Binds `name` to an object. Rebinding an existing name fails; use
    /// [`NamingService::rebind`] for that.
    ///
    /// # Errors
    /// Fails when the name is already bound.
    pub fn bind(&mut self, name: &str, node: &str, object_key: u64) -> Result<(), MiddlewareError> {
        if self.bindings.contains_key(name) {
            return Err(MiddlewareError::NameAlreadyBound(name.to_owned()));
        }
        self.bindings.insert(name.to_owned(), Registration { node: node.to_owned(), object_key });
        Ok(())
    }

    /// Binds or replaces `name`.
    pub fn rebind(&mut self, name: &str, node: &str, object_key: u64) {
        self.bindings.insert(name.to_owned(), Registration { node: node.to_owned(), object_key });
    }

    /// Resolves a name.
    ///
    /// # Errors
    /// Fails when the name is not bound, or with a typed injected fault
    /// when the fault injector perturbs `naming.lookup`.
    pub fn lookup(&self, name: &str) -> Result<&Registration, MiddlewareError> {
        if let Some(faults) = &self.faults {
            faults.borrow_mut().check(FaultOp::NamingLookup, &[])?;
        }
        self.bindings.get(name).ok_or_else(|| MiddlewareError::NameNotBound(name.to_owned()))
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.bindings.keys().map(String::as_str).collect()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let mut n = NamingService::new();
        assert!(n.is_empty());
        n.bind("bank", "server", 7).unwrap();
        assert_eq!(
            n.lookup("bank").unwrap(),
            &Registration { node: "server".into(), object_key: 7 }
        );
        assert_eq!(n.len(), 1);
        assert!(matches!(n.lookup("ghost"), Err(MiddlewareError::NameNotBound(_))));
    }

    #[test]
    fn double_bind_rejected_rebind_allowed() {
        let mut n = NamingService::new();
        n.bind("x", "a", 1).unwrap();
        assert!(matches!(n.bind("x", "b", 2), Err(MiddlewareError::NameAlreadyBound(_))));
        n.rebind("x", "b", 2);
        assert_eq!(n.lookup("x").unwrap().node, "b");
        assert_eq!(n.names(), vec!["x"]);
    }
}
