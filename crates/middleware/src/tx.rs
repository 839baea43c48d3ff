//! Flat transactions with undo logs, plus a two-phase-commit coordinator
//! for transactions that touched multiple nodes.
//!
//! The manager is generic over the logged value type `V`; the interpreter
//! instantiates it with its runtime value so field writes can be undone
//! on rollback.

use crate::error::MiddlewareError;
use crate::faults::{FaultInjector, FaultOp};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Transaction identifier.
pub type TxId = u64;

/// One write-ahead-log record. The WAL is append-only; recovery derives
/// the set of durably committed transactions from it (everything else is
/// presumed aborted), mirroring how a real resource manager survives a
/// crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began.
    Begin(TxId),
    /// A field write was logged.
    Write {
        /// The transaction.
        tx: TxId,
        /// Object handle.
        object: u64,
        /// Field name.
        field: String,
    },
    /// The transaction committed (durable).
    Commit(TxId),
    /// The transaction rolled back.
    Rollback(TxId),
}

/// The state reconstructed by replaying a WAL after a crash.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveredState {
    /// Transactions with a durable commit record.
    pub committed: Vec<TxId>,
    /// Transactions rolled back explicitly.
    pub rolled_back: Vec<TxId>,
    /// Transactions that were in flight at the crash; recovery treats
    /// them as aborted (presumed abort).
    pub in_flight: Vec<TxId>,
}

/// Replays a WAL (possibly truncated by a crash) into the recovered
/// state. Presumed abort: a `Begin` without a matching `Commit` or
/// `Rollback` lands in `in_flight`.
pub fn recover(wal: &[WalRecord]) -> RecoveredState {
    let mut state = RecoveredState::default();
    let mut open: Vec<TxId> = Vec::new();
    for record in wal {
        match record {
            WalRecord::Begin(tx) => open.push(*tx),
            WalRecord::Write { .. } => {}
            WalRecord::Commit(tx) => {
                open.retain(|t| t != tx);
                state.committed.push(*tx);
            }
            WalRecord::Rollback(tx) => {
                open.retain(|t| t != tx);
                state.rolled_back.push(*tx);
            }
        }
    }
    state.in_flight = open;
    state
}

/// One undo-log record: a field of an object had `old` before the write.
#[derive(Debug, Clone, PartialEq)]
pub struct UndoEntry<V> {
    /// Object handle (interpreter heap key).
    pub object: u64,
    /// Field name.
    pub field: String,
    /// Value before the first write in this transaction.
    pub old: V,
}

/// Outcome of a two-phase commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoPhaseOutcome {
    /// All participants voted yes and committed.
    Committed {
        /// Number of participants.
        participants: usize,
    },
    /// Some participant voted no; everyone aborted.
    Aborted {
        /// The participant that voted no.
        by: String,
    },
}

/// Transaction-manager statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions rolled back.
    pub rolled_back: u64,
    /// Undo-log records written.
    pub undo_records: u64,
    /// Two-phase commits run.
    pub two_phase_commits: u64,
    /// Two-phase aborts.
    pub two_phase_aborts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Active,
    Committed,
    RolledBack,
}

#[derive(Debug, Clone)]
struct Tx<V> {
    state: TxState,
    isolation: String,
    undo: Vec<UndoEntry<V>>,
    /// Nodes whose objects this transaction wrote (2PC participants).
    participants: Vec<String>,
    /// (object, field) pairs already logged (first-write wins).
    logged: Vec<(u64, String)>,
}

/// The transaction manager.
#[derive(Debug)]
pub struct TransactionManager<V> {
    next_id: TxId,
    transactions: BTreeMap<TxId, Tx<V>>,
    current: Vec<TxId>,
    vote_abort_probability: f64,
    rng: Rc<RefCell<StdRng>>,
    faults: Rc<RefCell<FaultInjector>>,
    stats: TxStats,
    wal: Vec<WalRecord>,
}

impl<V: Clone> TransactionManager<V> {
    pub(crate) fn new(
        vote_abort_probability: f64,
        rng: Rc<RefCell<StdRng>>,
        faults: Rc<RefCell<FaultInjector>>,
    ) -> Self {
        TransactionManager {
            next_id: 1,
            transactions: BTreeMap::new(),
            current: Vec::new(),
            vote_abort_probability: vote_abort_probability.clamp(0.0, 1.0),
            rng,
            faults,
            stats: TxStats::default(),
            wal: Vec::new(),
        }
    }

    /// Begins a transaction and makes it current. With `required`
    /// propagation semantics the caller should check
    /// [`TransactionManager::current`] first; `begin` always starts a new
    /// transaction (a stack is kept so `requires-new` nests).
    ///
    /// # Errors
    /// Infallible today; returns `Result` for forward compatibility with
    /// resource-exhaustion simulation.
    pub fn begin(&mut self, isolation: &str) -> Result<TxId, MiddlewareError> {
        let id = self.next_id;
        self.next_id += 1;
        self.transactions.insert(
            id,
            Tx {
                state: TxState::Active,
                isolation: isolation.to_owned(),
                undo: Vec::new(),
                participants: Vec::new(),
                logged: Vec::new(),
            },
        );
        self.current.push(id);
        self.stats.begun += 1;
        self.wal.push(WalRecord::Begin(id));
        Ok(id)
    }

    /// The innermost active transaction, if any.
    pub fn current(&self) -> Option<TxId> {
        self.current.last().copied()
    }

    /// The isolation level of a transaction.
    ///
    /// # Errors
    /// Fails when the id is unknown.
    pub fn isolation(&self, tx: TxId) -> Result<&str, MiddlewareError> {
        Ok(&self.tx(tx)?.isolation)
    }

    fn tx(&self, id: TxId) -> Result<&Tx<V>, MiddlewareError> {
        self.transactions.get(&id).ok_or(MiddlewareError::NoSuchTransaction(id))
    }

    fn tx_mut_active(&mut self, id: TxId) -> Result<&mut Tx<V>, MiddlewareError> {
        let tx = self.transactions.get_mut(&id).ok_or(MiddlewareError::NoSuchTransaction(id))?;
        if tx.state != TxState::Active {
            return Err(MiddlewareError::TransactionFinished(id));
        }
        Ok(tx)
    }

    /// Records the pre-image of `object.field` (first write wins) so a
    /// rollback can restore it.
    ///
    /// # Errors
    /// Fails when the transaction is unknown or finished.
    pub fn log_write(
        &mut self,
        tx: TxId,
        object: u64,
        field: &str,
        old: V,
    ) -> Result<(), MiddlewareError> {
        let t = self.tx_mut_active(tx)?;
        let key = (object, field.to_owned());
        if !t.logged.contains(&key) {
            t.logged.push(key);
            t.undo.push(UndoEntry { object, field: field.to_owned(), old });
            self.stats.undo_records += 1;
            self.wal.push(WalRecord::Write { tx, object, field: field.to_owned() });
        }
        Ok(())
    }

    /// Registers a node as a participant of `tx` (it hosted a write).
    ///
    /// # Errors
    /// Fails when the transaction is unknown or finished.
    pub fn touch_node(&mut self, tx: TxId, node: &str) -> Result<(), MiddlewareError> {
        let t = self.tx_mut_active(tx)?;
        if !t.participants.iter().any(|n| n == node) {
            t.participants.push(node.to_owned());
        }
        Ok(())
    }

    /// Commits `tx`. Single-node transactions commit directly; when the
    /// transaction touched two or more nodes a two-phase commit runs, and
    /// an injected abort vote rolls everything back.
    ///
    /// Returns the undo entries to *discard* on plain commit (empty) or
    /// to **apply** when 2PC aborted — the caller restores the pre-images
    /// exactly as for [`TransactionManager::rollback`].
    ///
    /// # Errors
    /// `VotedAbort` when 2PC failed, and `FaultInjected` when the fault
    /// injector perturbs the commit; in both cases the transaction stays
    /// *active* and the caller must roll back and apply the undo log
    /// [`TransactionManager::rollback`] returns. Unknown or finished
    /// transactions fail accordingly.
    pub fn commit(&mut self, tx: TxId) -> Result<TwoPhaseOutcome, MiddlewareError> {
        // Unknown/finished errors win over injected ones.
        self.tx_mut_active(tx)?;
        // An injected commit fault mirrors a vote-abort: the tx is left
        // active so the caller restores pre-images.
        self.faults.borrow_mut().check(FaultOp::TxCommit, &[])?;
        let (participants, abort_by) = {
            let t = self.tx_mut_active(tx)?;
            let participants = t.participants.clone();
            let mut abort_by = None;
            if participants.len() >= 2 && self.vote_abort_probability > 0.0 {
                let mut rng = self.rng.borrow_mut();
                for p in &participants {
                    if rng.gen::<f64>() < self.vote_abort_probability {
                        abort_by = Some(p.clone());
                        break;
                    }
                }
            }
            (participants, abort_by)
        };
        if participants.len() >= 2 {
            self.stats.two_phase_commits += 1;
        }
        if let Some(by) = abort_by {
            self.stats.two_phase_aborts += 1;
            // The transaction stays active; the caller rolls it back and
            // applies the undo log.
            return Err(MiddlewareError::VotedAbort { node: by });
        }
        let t = self.tx_mut_active(tx)?;
        t.state = TxState::Committed;
        t.undo.clear();
        t.logged.clear();
        self.current.retain(|&c| c != tx);
        self.stats.committed += 1;
        self.wal.push(WalRecord::Commit(tx));
        Ok(TwoPhaseOutcome::Committed { participants: participants.len() })
    }

    /// Rolls back `tx`, returning the undo log **in reverse write order**
    /// for the caller to apply to its store.
    ///
    /// # Errors
    /// Fails when the transaction is unknown or finished.
    pub fn rollback(&mut self, tx: TxId) -> Result<Vec<UndoEntry<V>>, MiddlewareError> {
        let t = self.tx_mut_active(tx)?;
        t.state = TxState::RolledBack;
        let mut undo = std::mem::take(&mut t.undo);
        undo.reverse();
        t.logged.clear();
        self.current.retain(|&c| c != tx);
        self.stats.rolled_back += 1;
        self.wal.push(WalRecord::Rollback(tx));
        Ok(undo)
    }

    /// True when `tx` is active.
    pub fn is_active(&self, tx: TxId) -> bool {
        self.tx(tx).map(|t| t.state == TxState::Active).unwrap_or(false)
    }

    /// The participant nodes registered so far.
    ///
    /// # Errors
    /// Fails when the id is unknown.
    pub fn participants(&self, tx: TxId) -> Result<&[String], MiddlewareError> {
        Ok(&self.tx(tx)?.participants)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// The write-ahead log, oldest record first.
    pub fn wal(&self) -> &[WalRecord] {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    use crate::clock::SimClock;
    use crate::faults::{FaultKind, FaultPlan};

    fn mgr(p: f64) -> TransactionManager<i64> {
        let clock = Rc::new(RefCell::new(SimClock::default()));
        TransactionManager::new(
            p,
            Rc::new(RefCell::new(StdRng::seed_from_u64(3))),
            Rc::new(RefCell::new(FaultInjector::new(clock, 3))),
        )
    }

    #[test]
    fn injected_commit_fault_leaves_tx_active() {
        let mut m = mgr(0.0);
        m.faults.borrow_mut().install_plan(FaultPlan::new(1).at(
            FaultOp::TxCommit,
            1,
            FaultKind::Transient,
        ));
        let tx = m.begin("rc").unwrap();
        m.log_write(tx, 1, "x", 5).unwrap();
        let err = m.commit(tx).unwrap_err();
        assert!(matches!(err, MiddlewareError::FaultInjected { ref op } if op == "tx.commit"));
        // Exactly the vote-abort contract: active, undo intact.
        assert!(m.is_active(tx));
        assert_eq!(m.rollback(tx).unwrap().len(), 1);
        // A later commit attempt (occurrence 2, unscheduled) succeeds.
        let tx2 = m.begin("rc").unwrap();
        assert!(m.commit(tx2).is_ok());
    }

    #[test]
    fn begin_commit_lifecycle() {
        let mut m = mgr(0.0);
        assert_eq!(m.current(), None);
        let tx = m.begin("serializable").unwrap();
        assert_eq!(m.current(), Some(tx));
        assert!(m.is_active(tx));
        assert_eq!(m.isolation(tx).unwrap(), "serializable");
        let out = m.commit(tx).unwrap();
        assert_eq!(out, TwoPhaseOutcome::Committed { participants: 0 });
        assert!(!m.is_active(tx));
        assert_eq!(m.current(), None);
        assert_eq!(m.stats().committed, 1);
    }

    #[test]
    fn rollback_returns_undo_in_reverse_first_write_wins() {
        let mut m = mgr(0.0);
        let tx = m.begin("rc").unwrap();
        m.log_write(tx, 1, "balance", 100).unwrap();
        m.log_write(tx, 1, "balance", 150).unwrap(); // ignored: first write wins
        m.log_write(tx, 2, "balance", 50).unwrap();
        let undo = m.rollback(tx).unwrap();
        assert_eq!(undo.len(), 2);
        assert_eq!(undo[0].object, 2);
        assert_eq!(undo[0].old, 50);
        assert_eq!(undo[1].object, 1);
        assert_eq!(undo[1].old, 100);
        assert_eq!(m.stats().undo_records, 2);
        assert_eq!(m.stats().rolled_back, 1);
    }

    #[test]
    fn finished_transactions_reject_operations() {
        let mut m = mgr(0.0);
        let tx = m.begin("rc").unwrap();
        m.commit(tx).unwrap();
        assert!(matches!(m.log_write(tx, 1, "x", 0), Err(MiddlewareError::TransactionFinished(_))));
        assert!(matches!(m.commit(tx), Err(MiddlewareError::TransactionFinished(_))));
        assert!(matches!(m.rollback(tx), Err(MiddlewareError::TransactionFinished(_))));
        assert!(matches!(m.log_write(999, 1, "x", 0), Err(MiddlewareError::NoSuchTransaction(_))));
    }

    #[test]
    fn nested_requires_new_stack() {
        let mut m = mgr(0.0);
        let outer = m.begin("rc").unwrap();
        let inner = m.begin("rc").unwrap();
        assert_eq!(m.current(), Some(inner));
        m.commit(inner).unwrap();
        assert_eq!(m.current(), Some(outer));
        m.rollback(outer).unwrap();
        assert_eq!(m.current(), None);
    }

    #[test]
    fn single_node_commit_never_runs_2pc() {
        let mut m = mgr(1.0); // would always vote abort if 2PC ran
        let tx = m.begin("rc").unwrap();
        m.touch_node(tx, "only").unwrap();
        assert!(m.commit(tx).is_ok());
        assert_eq!(m.stats().two_phase_commits, 0);
    }

    #[test]
    fn multi_node_commit_runs_2pc_and_can_abort() {
        let mut m = mgr(1.0);
        let tx = m.begin("rc").unwrap();
        m.touch_node(tx, "a").unwrap();
        m.touch_node(tx, "b").unwrap();
        m.log_write(tx, 1, "x", 5).unwrap();
        let err = m.commit(tx).unwrap_err();
        assert!(matches!(err, MiddlewareError::VotedAbort { .. }));
        assert_eq!(m.stats().two_phase_aborts, 1);
        // Transaction is still active; caller rolls back and applies undo.
        assert!(m.is_active(tx));
        assert_eq!(m.rollback(tx).unwrap().len(), 1);
    }

    #[test]
    fn multi_node_commit_succeeds_without_injection() {
        let mut m = mgr(0.0);
        let tx = m.begin("rc").unwrap();
        m.touch_node(tx, "a").unwrap();
        m.touch_node(tx, "b").unwrap();
        m.touch_node(tx, "a").unwrap(); // dedup
        let out = m.commit(tx).unwrap();
        assert_eq!(out, TwoPhaseOutcome::Committed { participants: 2 });
        assert_eq!(m.stats().two_phase_commits, 1);
        assert_eq!(m.stats().two_phase_aborts, 0);
    }
}
