//! Typed requests, read-only query selectors, and the engine traits a
//! host crate implements to plug its domain sessions into the serving
//! substrate.
//!
//! `comet-serve` deliberately does not know about `MdaLifecycle` or the
//! banking model: the scheduler works against [`TenantEngine`] (one
//! live session) and [`EngineFactory`] (how a shard materialises a
//! tenant's session inside its own worker thread). Engines are allowed
//! to be `!Send` — the whole point of the factory indirection is that a
//! session full of `Rc<RefCell<...>>` middleware state is created,
//! driven, and dropped on a single rayon worker; only plain-data
//! results cross threads.

use crate::error::ServeError;
use comet_obs::Collector;
use comet_transform::ParamSet;
use std::fmt;

/// A read-only query against a tenant's current model, answerable from
/// one `ModelIndex` pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySelector {
    /// Count the model's classes.
    Classes,
    /// Count elements carrying this stereotype.
    Stereotype(String),
    /// Count operations of the named class.
    Operations(String),
}

impl fmt::Display for QuerySelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySelector::Classes => f.write_str("classes"),
            QuerySelector::Stereotype(s) => write!(f, "stereotype:{s}"),
            QuerySelector::Operations(c) => write!(f, "operations:{c}"),
        }
    }
}

/// One request against one tenant's session.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a concern pair, specialised by `si`, through the tenant's
    /// lifecycle (workflow admission, CMT, repo commit).
    ApplyConcern {
        /// Concern name as understood by the host's registry.
        concern: String,
        /// The specialisation decisions Si for the generic pair.
        si: ParamSet,
    },
    /// Undo the most recent applied concern.
    UndoLast,
    /// Run functional + aspect generation, weave the current model, and
    /// render the artifact with the named generation backend (an
    /// unknown id is a typed [`ServeError::UnknownBackend`]).
    Generate {
        /// Backend id, e.g. `"java-functional"` or `"rust-skeleton"`.
        backend: String,
    },
    /// Read-only model query; consecutive queued queries are batched.
    Query(QuerySelector),
    /// Persist an XMI snapshot of the current model via the store.
    Snapshot,
}

impl Request {
    /// Stable short name used in spans, logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::ApplyConcern { .. } => "apply",
            Request::UndoLast => "undo",
            Request::Generate { .. } => "generate",
            Request::Query(_) => "query",
            Request::Snapshot => "snapshot",
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::ApplyConcern { concern, si } => {
                write!(f, "apply {concern}{}", si.angle_signature())
            }
            Request::UndoLast => f.write_str("undo"),
            Request::Generate { backend } => write!(f, "generate {backend}"),
            Request::Query(sel) => write!(f, "query {sel}"),
            Request::Snapshot => f.write_str("snapshot"),
        }
    }
}

/// One tenant's live session, driven by the scheduler on a single
/// shard worker thread. Implementations may hold `!Send` state.
pub trait TenantEngine {
    /// Executes one non-`Query` request, returning a short outcome
    /// token (recorded in the request span and folded into the
    /// tenant's outcome hash). Failures must leave the session
    /// consistent — an `Err` degrades this request only.
    fn execute(&mut self, req: &Request, obs: &Collector) -> Result<String, ServeError>;

    /// Answers a batch of read-only queries in one pass over the
    /// current model. Must not mutate the session.
    fn execute_queries(
        &mut self,
        selectors: &[QuerySelector],
        obs: &Collector,
    ) -> Result<Vec<u64>, ServeError>;

    /// The next `ApplyConcern` request this tenant's workflow admits,
    /// or `None` once the workflow is complete (the scheduler then
    /// falls back to a query).
    fn next_apply(&mut self) -> Option<Request>;

    /// Names of applied concerns, in application order (§3 precedence).
    fn applied(&self) -> Vec<String>;

    /// Sim-µs consumed by the engine since the last call (latency
    /// faults etc.); charged on top of the plan's base service cost.
    fn take_service_us(&mut self) -> u64;

    /// The session's middleware fault log.
    fn fault_log(&self) -> comet_middleware::FaultLog;

    /// Engine-internal counters to bridge into the run's metrics
    /// snapshot, record-for-record (weave-cache hits, WAL fsyncs, …).
    /// Each `(name, value)` becomes `comet_serve_{name}_total{tenant=}`.
    /// The default is empty: engines opt in.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// How a shard materialises tenant sessions. The factory itself must be
/// `Sync` (it is shared by reference across shard workers); the engines
/// it creates need not be `Send`.
pub trait EngineFactory: Sync {
    /// The session type driven by the scheduler.
    type Engine: TenantEngine;

    /// Creates the session for `tenant`, wiring the per-tenant
    /// collector into its lifecycle and middleware.
    fn create(&self, tenant: &str, obs: &Collector) -> Self::Engine;

    /// The pool of query selectors the workload generator draws from.
    fn query_pool(&self) -> Vec<QuerySelector>;
}
