//! Error type shared by the middleware services.

use std::error::Error;
use std::fmt;

/// Failures reported by the simulated middleware services.
#[derive(Debug, Clone, PartialEq)]
pub enum MiddlewareError {
    /// A node name does not exist on the bus.
    UnknownNode(String),
    /// A message was lost by injected failure.
    MessageLost {
        /// Sender node.
        from: String,
        /// Receiver node.
        to: String,
    },
    /// Naming lookup failed.
    NameNotBound(String),
    /// A name is already registered.
    NameAlreadyBound(String),
    /// A lock is held by a conflicting owner.
    LockConflict {
        /// The lock name.
        lock: String,
        /// Owner currently holding it.
        held_by: u64,
        /// Owner requesting it.
        requested_by: u64,
    },
    /// Granting the lock would close a wait-for cycle (deadlock).
    Deadlock {
        /// The lock name.
        lock: String,
    },
    /// Releasing a lock not held by the caller.
    NotLockOwner {
        /// The lock name.
        lock: String,
    },
    /// A transaction id does not resolve to an active transaction.
    NoSuchTransaction(u64),
    /// An operation requires an active transaction and none exists.
    NoActiveTransaction,
    /// The transaction was already committed or rolled back.
    TransactionFinished(u64),
    /// A 2PC participant voted to abort.
    VotedAbort {
        /// The participant node.
        node: String,
    },
    /// Access denied by the security manager.
    AccessDenied {
        /// The principal attempting access (empty when unauthenticated).
        principal: String,
        /// Required role.
        role: String,
        /// Resource being accessed.
        resource: String,
    },
    /// No principal is logged in.
    NotAuthenticated,
    /// A principal name is unknown to the security manager.
    UnknownPrincipal(String),
    /// A transient fault was injected at a middleware choke point.
    FaultInjected {
        /// The perturbed operation (e.g. `bus.send`).
        op: String,
    },
    /// The target node is partitioned away from the network.
    NodePartitioned {
        /// The partitioned node.
        node: String,
    },
    /// The target node has crashed and not yet healed.
    NodeCrashed {
        /// The crashed node.
        node: String,
    },
    /// A deadline enforced by the fault-tolerance concern expired.
    DeadlineExceeded {
        /// The guarded join point (`Class.method`).
        callee: String,
        /// Sim-µs elapsed when the deadline check fired.
        elapsed_us: u64,
        /// The configured deadline in sim-µs.
        deadline_us: u64,
    },
    /// A circuit breaker is open and rejected the call.
    CircuitOpen {
        /// The guarded join point (`Class.method`).
        callee: String,
    },
    /// An unknown fault point was passed to a fault hook.
    UnknownFaultPoint(String),
}

impl fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddlewareError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            MiddlewareError::MessageLost { from, to } => {
                write!(f, "message from `{from}` to `{to}` was lost")
            }
            MiddlewareError::NameNotBound(n) => write!(f, "name `{n}` is not bound"),
            MiddlewareError::NameAlreadyBound(n) => write!(f, "name `{n}` is already bound"),
            MiddlewareError::LockConflict { lock, held_by, requested_by } => {
                write!(f, "lock `{lock}` held by owner {held_by}, requested by {requested_by}")
            }
            MiddlewareError::Deadlock { lock } => {
                write!(f, "acquiring lock `{lock}` would deadlock")
            }
            MiddlewareError::NotLockOwner { lock } => {
                write!(f, "caller does not hold lock `{lock}`")
            }
            MiddlewareError::NoSuchTransaction(id) => write!(f, "no such transaction {id}"),
            MiddlewareError::NoActiveTransaction => write!(f, "no active transaction"),
            MiddlewareError::TransactionFinished(id) => {
                write!(f, "transaction {id} already finished")
            }
            MiddlewareError::VotedAbort { node } => {
                write!(f, "participant `{node}` voted abort")
            }
            MiddlewareError::AccessDenied { principal, role, resource } => write!(
                f,
                "access denied for `{principal}` to `{resource}` (requires role `{role}`)"
            ),
            MiddlewareError::NotAuthenticated => write!(f, "no principal is authenticated"),
            MiddlewareError::UnknownPrincipal(p) => write!(f, "unknown principal `{p}`"),
            MiddlewareError::FaultInjected { op } => {
                write!(f, "transient fault injected at `{op}`")
            }
            MiddlewareError::NodePartitioned { node } => {
                write!(f, "node `{node}` is partitioned")
            }
            MiddlewareError::NodeCrashed { node } => write!(f, "node `{node}` has crashed"),
            MiddlewareError::DeadlineExceeded { callee, elapsed_us, deadline_us } => write!(
                f,
                "deadline exceeded at `{callee}` ({elapsed_us}µs elapsed, limit {deadline_us}µs)"
            ),
            MiddlewareError::CircuitOpen { callee } => {
                write!(f, "circuit open for `{callee}`")
            }
            MiddlewareError::UnknownFaultPoint(p) => write!(f, "unknown fault point `{p}`"),
        }
    }
}

impl Error for MiddlewareError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        assert_eq!(MiddlewareError::UnknownNode("x".into()).to_string(), "unknown node `x`");
        assert!(MiddlewareError::AccessDenied {
            principal: "bob".into(),
            role: "teller".into(),
            resource: "Bank.transfer".into(),
        }
        .to_string()
        .contains("requires role"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<MiddlewareError>();
    }
}
