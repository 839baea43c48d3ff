//! # comet-middleware — deterministic simulated middleware
//!
//! The paper's running example refines an application along three
//! middleware-service concern dimensions: **distribution**,
//! **transactions** and **security** (Section 2, Fig. 2). For the woven
//! aspects to have *observable* behaviour, this crate provides a
//! deterministic, single-process simulation of the middleware services a
//! CORBA/J2EE-era platform would supply:
//!
//! * [`MessageBus`] — named nodes, seeded per-link latency, optional
//!   message-loss injection, traffic statistics;
//! * [`NamingService`] — object registration and lookup;
//! * [`LockManager`] — exclusive, reentrant named locks with wait-for
//!   deadlock detection;
//! * [`TransactionManager`] — flat transactions with undo logs (generic
//!   over the stored value type), two-phase commit across nodes with
//!   vote-failure injection;
//! * [`SecurityManager`] — principals, roles, ACL checks, a denial count;
//! * [`LogService`] — levelled log records;
//! * [`SimClock`] — the logical clock everything advances.
//!
//! Everything is bundled in [`Middleware`], which `comet-interp` drives
//! through intrinsics. Determinism: all randomness comes from a single
//! seeded [`rand::rngs::StdRng`], so a given seed reproduces byte-equal
//! traces.
//!
//! ## Example
//!
//! ```
//! use comet_middleware::{Middleware, MiddlewareConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mw: Middleware<i64> = Middleware::new(MiddlewareConfig::default());
//! mw.bus.add_node("client");
//! mw.bus.add_node("server");
//! let latency = mw.bus.send("client", "server", 128)?;
//! assert!(latency > 0);
//! let tx = mw.tx.begin("read-committed")?;
//! mw.tx.log_write(tx, 1, "balance", 100)?;
//! mw.tx.rollback(tx)?;
//! # Ok(())
//! # }
//! ```

mod bus;
mod clock;
mod error;
mod faults;
mod locks;
mod logging;
mod naming;
mod plan_text;
mod security;
mod store;
mod tx;

pub use bus::{BusStats, MessageBus};
pub use clock::SimClock;
pub use error::MiddlewareError;
pub use faults::{
    FaultEvent, FaultHook, FaultInjector, FaultKind, FaultLog, FaultOp, FaultPlan, FaultPlanError,
    FaultRecord, ScheduledFault,
};
pub use locks::{LockManager, LockStats};
pub use logging::{LogRecord, LogService};
pub use naming::{NamingService, Registration};
pub use plan_text::{plan_lines, PlanLine, PlanLineError};
pub use security::SecurityManager;
pub use store::{StoreService, StoreStats};
pub use tx::{
    recover, RecoveredState, TransactionManager, TwoPhaseOutcome, TxId, TxStats, UndoEntry,
    WalRecord,
};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the simulated platform.
#[derive(Debug, Clone)]
pub struct MiddlewareConfig {
    /// RNG seed; equal seeds reproduce identical runs.
    pub seed: u64,
    /// Minimum one-way message latency in microseconds.
    pub min_latency_us: u64,
    /// Maximum one-way message latency in microseconds.
    pub max_latency_us: u64,
    /// Probability in [0, 1] that a message is lost.
    pub drop_probability: f64,
    /// Probability in [0, 1] that a 2PC participant votes abort.
    pub vote_abort_probability: f64,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            seed: 42,
            min_latency_us: 50,
            max_latency_us: 500,
            drop_probability: 0.0,
            vote_abort_probability: 0.0,
        }
    }
}

/// The full simulated platform, bundling every service around one clock
/// and one RNG. Generic over the value type `V` stored in transaction
/// undo logs (the interpreter instantiates it with its runtime value).
#[derive(Debug)]
pub struct Middleware<V: Clone> {
    /// The message bus.
    pub bus: MessageBus,
    /// The naming service.
    pub naming: NamingService,
    /// The lock manager.
    pub locks: LockManager,
    /// The transaction manager.
    pub tx: TransactionManager<V>,
    /// The security manager.
    pub security: SecurityManager,
    /// The log service.
    pub log: LogService,
    /// The document store (persistence concern).
    pub store: StoreService<V>,
    /// The fault injector shared by every service above.
    pub faults: Rc<RefCell<FaultInjector>>,
}

impl<V: Clone> Middleware<V> {
    /// Creates a platform from configuration.
    pub fn new(config: MiddlewareConfig) -> Self {
        let clock = Rc::new(RefCell::new(SimClock::default()));
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(config.seed)));
        let faults = Rc::new(RefCell::new(FaultInjector::new(Rc::clone(&clock), config.seed)));
        let mut naming = NamingService::default();
        naming.attach_faults(Rc::clone(&faults));
        let mut store = StoreService::new();
        store.attach_faults(Rc::clone(&faults));
        Middleware {
            bus: MessageBus::new(Rc::clone(&clock), Rc::clone(&rng), &config, Rc::clone(&faults)),
            naming,
            locks: LockManager::default(),
            tx: TransactionManager::new(
                config.vote_abort_probability,
                Rc::clone(&rng),
                Rc::clone(&faults),
            ),
            security: SecurityManager::default(),
            log: LogService::default(),
            store,
            faults,
        }
    }

    /// Current logical time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.bus.now_us()
    }

    /// Installs a fault plan on the shared injector (resets its log).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.faults.borrow_mut().install_plan(plan);
    }

    /// Attaches a trace collector to the fault injector: from here on
    /// every fault-log record is mirrored into the trace as a
    /// `fault`-category event (survives later `install_fault_plan`s).
    pub fn attach_collector(&self, obs: comet_obs::Collector) {
        self.faults.borrow_mut().set_collector(obs);
    }

    /// A snapshot of the fault log.
    pub fn fault_log(&self) -> FaultLog {
        self.faults.borrow().log().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_latencies() {
        let mk = || {
            let mut mw: Middleware<i64> = Middleware::new(MiddlewareConfig::default());
            mw.bus.add_node("a");
            mw.bus.add_node("b");
            (0..10).map(|_| mw.bus.send("a", "b", 64).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seed_changes_latencies() {
        let run = |seed| {
            let mut mw: Middleware<i64> =
                Middleware::new(MiddlewareConfig { seed, ..MiddlewareConfig::default() });
            mw.bus.add_node("a");
            mw.bus.add_node("b");
            (0..10).map(|_| mw.bus.send("a", "b", 64).unwrap()).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn clock_advances_with_traffic() {
        let mut mw: Middleware<i64> = Middleware::new(MiddlewareConfig::default());
        mw.bus.add_node("a");
        mw.bus.add_node("b");
        let t0 = mw.now_us();
        mw.bus.send("a", "b", 8).unwrap();
        assert!(mw.now_us() > t0);
    }
}
