//! The banking-backed serving engine: plugs [`MdaLifecycle`] sessions
//! into the `comet-serve` substrate.
//!
//! `comet-serve` knows queues, deadlines, shards and reports;
//! this module knows what a request *does*. Each tenant gets a full
//! private stack — the executable banking PIM, an `MdaLifecycle`
//! (model + repository + workflow), and a simulated middleware platform
//! whose seed derives from the workload seed and the tenant name, so a
//! tenant behaves identically no matter which shard runs it. The
//! middleware also gives injected faults a real surface: every request
//! kind crosses one of the fault choke points before (or while)
//! touching the lifecycle, so a `FaultPlan` degrades individual
//! requests exactly the way the chaos harness degrades individual
//! transfers — and never poisons the session.
//!
//! | request    | choke point              | lifecycle work                   |
//! |------------|--------------------------|----------------------------------|
//! | apply      | `tx.begin`/`tx.commit`   | `apply_concern` (CMT + Si)       |
//! | undo       | `store.load`             | `undo_last`                      |
//! | generate   | `bus.send`               | `generate` (backend render)      |
//! | query      | `naming.lookup`          | `ModelIndex` reads               |
//! | snapshot   | `store.save`             | head commit's XMI into the store |
//!
//! Because each tenant owns a private [`MdaLifecycle`], the lifecycle's
//! incrementality caches (the per-state weave memo and the
//! content-addressed generation cache in front of `Backend::render`)
//! are **per-tenant automatically**: a steady-state tenant
//! that repeats `Generate` at an unchanged model revision pays one
//! cold weave + render and then hits both caches
//! (`weave.incremental.hit` / `gen.cache.hit` in the trace counters,
//! `comet_serve_gen_cache_hits_total` in the metrics exposition),
//! while other tenants' edits cannot invalidate them. The cached
//! results are byte-identical to full weaves and cold renders, so
//! shard-count invariance of reports and traces is unaffected.

use crate::chaos::{banking_bodies, executable_banking_pim};
use crate::lifecycle::{LifecycleError, MdaLifecycle};
use comet_aspectgen::ConcernPair;
use comet_codegen::BodyProvider;
use comet_interaction::{build_matrix, pair_key, InteractionMatrix};
use comet_middleware::{FaultLog, FaultPlan, Middleware, MiddlewareConfig};
use comet_obs::{fnv1a64, Collector};
use comet_repo::Repository;
use comet_serve::{
    EngineFactory, QuerySelector, Request, RunConfig, ServeError, TenantEngine, WorkloadPlan,
    WorkloadPlanError,
};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The default serving workflow, in §3 precedence order (application
/// order = aspect precedence). A workload plan's `[workflow]` section
/// overrides it per run.
pub const SERVE_WORKFLOW: [&str; 3] = ["distribution", "transactions", "security"];

/// Maps a journalled concern name back to its pair and `Si` — the
/// resolver [`MdaLifecycle::recover`] uses to regenerate the concrete
/// aspects of a crashed tenant. The serving `Si` is a pure function of
/// the concern name, so the regenerated aspects match the pre-crash
/// ones exactly.
fn serve_resolver(concern: &str) -> Option<(ConcernPair, ParamSet)> {
    comet_concerns::by_name(concern).zip(serve_si(concern))
}

/// The specialisation decisions Si binding each standard concern to the
/// executable banking PIM (`Bank.transfer` / `Bank.getBalance`), or
/// `None` for a concern with no serving binding. The concurrency and
/// fault-tolerance bindings deliberately meet on `Bank.getBalance`
/// («Synchronized» × «Retryable») — the standard matrix's `Conflicts`
/// cell, which the admission gate turns into typed rejections.
fn serve_si(concern: &str) -> Option<ParamSet> {
    let si = match concern {
        "distribution" => ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with(
                "operations",
                ParamValue::from(vec!["transfer".to_owned(), "getBalance".to_owned()]),
            ),
        "transactions" => ParamSet::new()
            .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
            .with("isolation", ParamValue::from("serializable")),
        "security" => ParamSet::new()
            .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]))
            .with("policy", ParamValue::from("deny")),
        "logging" => ParamSet::new()
            .with("targets", ParamValue::from(vec!["Bank.transfer".to_owned()]))
            .with("level", ParamValue::from("info")),
        "concurrency" => ParamSet::new().with(
            "methods",
            ParamValue::from(vec!["Bank.transfer".to_owned(), "Bank.getBalance".to_owned()]),
        ),
        "persistence" => ParamSet::new()
            .with("class", ParamValue::from("Bank"))
            .with("key_attr", ParamValue::from("a1"))
            .with("mutators", ParamValue::from(vec!["transfer".to_owned()])),
        "faulttolerance" => ParamSet::new()
            .with(
                "methods",
                ParamValue::from(vec!["Bank.transfer".to_owned(), "Bank.getBalance".to_owned()]),
            )
            .with("idempotent", ParamValue::from(vec!["Bank.getBalance".to_owned()])),
        _ => return None,
    };
    Some(si)
}

/// Builds the interaction matrix for a serving workflow: every step's
/// `(ConcernPair, Si)` binding is footprinted on the executable banking
/// PIM and pairwise critical-pair analysed (with the weave-both-orders
/// oracle backing each `Commutes` verdict). The entry point behind
/// `comet-cli interactions`.
///
/// # Errors
/// Returns a plan error when a step names an unknown concern, has no
/// serving `Si`, or fails the probe weave.
pub fn serve_interaction_matrix(steps: &[String]) -> Result<InteractionMatrix, ServeError> {
    let mut bindings = Vec::new();
    for step in steps {
        let pair = comet_concerns::by_name(step)
            .ok_or_else(|| ServeError::Plan(WorkloadPlanError::UnknownConcern(step.clone())))?;
        let si = serve_si(step).ok_or_else(|| {
            ServeError::Plan(WorkloadPlanError::BadConcern {
                concern: step.clone(),
                detail: "no serving Si binding".to_owned(),
            })
        })?;
        bindings.push((pair, si));
    }
    build_matrix(&executable_banking_pim(), &banking_bodies(), &bindings).map_err(|e| {
        ServeError::Plan(WorkloadPlanError::Invalid(format!("interaction analysis: {e}")))
    })
}

/// The per-run serving profile, computed once by the factory and shared
/// by every tenant session: the workflow model (with the matrix's
/// `OrderSensitive` cells ingested as auto-derived `Before`
/// constraints) and the conflict table the admission gate consults.
///
/// `Conflicts` cells deliberately do **not** become workflow
/// constraints — a `MutuallyExclusive` constraint would make
/// `next_apply` silently skip the clashing step, and the gate's typed
/// rejection must stay loud.
struct ServeProfile {
    /// The interaction-constrained workflow every tenant starts from.
    workflow: WorkflowModel,
    /// `pair_key(a, b)` → evidence, one entry per `Conflicts` cell.
    conflicts: BTreeMap<(String, String), String>,
}

/// Runs interaction analysis over `steps` and assembles the profile.
fn serve_profile(steps: &[String]) -> Result<Arc<ServeProfile>, ServeError> {
    let matrix = serve_interaction_matrix(steps)?;
    let mut workflow = WorkflowModel::new("serve");
    for step in steps {
        workflow = workflow.step(step, true);
    }
    let workflow = matrix.constrain(workflow);
    workflow.validate().map_err(|e| {
        ServeError::Plan(WorkloadPlanError::Invalid(format!("derived workflow: {e}")))
    })?;
    let conflicts = matrix
        .conflicts()
        .into_iter()
        .map(|(a, b, evidence)| (pair_key(&a, &b), evidence))
        .collect();
    Ok(Arc::new(ServeProfile { workflow, conflicts }))
}

/// The default-workflow steps as owned strings.
fn default_steps() -> Vec<String> {
    SERVE_WORKFLOW.iter().map(|s| (*s).to_owned()).collect()
}

/// The steps a plan asks for: its `[workflow]` section, or the default.
fn effective_steps(plan: &WorkloadPlan) -> Vec<String> {
    if plan.workflow.is_empty() {
        default_steps()
    } else {
        plan.workflow.clone()
    }
}

/// A request named a concern the registry does not know.
#[derive(Debug)]
struct UnknownConcern(String);

impl std::fmt::Display for UnknownConcern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown concern `{}`", self.0)
    }
}

impl std::error::Error for UnknownConcern {}

/// A deterministic crash instruction for the serving harness: the named
/// tenant's lifecycle dies at the start of its `at_request`-th request
/// (1-based, counting both executes and query batches), leaving a torn
/// write-ahead-log tail, and is rebuilt from the journal before the
/// request then executes normally. One-shot: each tenant crashes at
/// most once per run.
#[derive(Debug, Clone)]
pub struct KillPoint {
    /// The tenant to crash.
    pub tenant: String,
    /// 1-based request ordinal at which the crash fires.
    pub at_request: u64,
}

/// One tenant's live banking session: lifecycle + middleware platform.
/// Holds `Rc`-based middleware state, so it is `!Send` by design — the
/// shard creates and drives it on a single worker thread.
pub struct BankingSession {
    mda: MdaLifecycle,
    /// The run's method bodies, shared with every session.
    bodies: Arc<BodyProvider>,
    mw: Middleware<String>,
    /// The run's shared workflow + conflict-table profile.
    profile: Arc<ServeProfile>,
    /// Conflicting concerns already offered once by `next_apply` — each
    /// is surfaced exactly once (so the typed rejection lands in the
    /// report) and skipped thereafter (so the rest of the plan serves).
    conflict_reported: BTreeSet<String>,
    /// Middleware sim time already charged to earlier requests.
    charged_us: u64,
    /// Snapshots taken, for distinct store keys.
    snapshots: u64,
    /// The session's collector, kept to re-attach after a recovery.
    obs: Collector,
    /// This tenant's journal directory (durable mode only).
    data_dir: Option<PathBuf>,
    /// Pending one-shot kill: crash at the start of this request.
    kill_at: Option<u64>,
    /// Requests seen so far (executes + query batches).
    requests_seen: u64,
    /// Run-wide recovery counter, shared with the factory.
    recoveries: Arc<AtomicU64>,
}

impl BankingSession {
    fn new(factory: &BankingFactory, tenant: &str, obs: &Collector) -> Self {
        let profile = Arc::clone(&factory.profile);
        let data_dir = factory.data_dir.as_ref().map(|d| d.join(tenant));
        let kill_at = factory.kill.as_ref().filter(|k| k.tenant == tenant).map(|k| k.at_request);
        let workflow = profile.workflow.clone();
        let mut mda = match &data_dir {
            None => MdaLifecycle::new(executable_banking_pim(), workflow)
                .expect("banking PIM admits the serving workflow"),
            // A journal already present means a previous run (or a
            // previous process) served this tenant: resume from it
            // instead of starting over.
            Some(dir) if Repository::exists(dir) => {
                MdaLifecycle::recover(dir, workflow, serve_resolver)
                    .expect("journalled tenant state recovers")
                    .0
            }
            Some(dir) => MdaLifecycle::new_durable(executable_banking_pim(), workflow, dir)
                .expect("tenant journal directory is writable"),
        };
        mda.set_collector(obs.clone());
        let tenant_salt = fnv1a64(tenant.as_bytes());
        let mw: Middleware<String> = Middleware::new(MiddlewareConfig {
            seed: factory.seed ^ tenant_salt,
            ..MiddlewareConfig::default()
        });
        mw.attach_collector(obs.clone());
        if let Some(plan) = factory.fault_plan.as_ref() {
            // Same plan, tenant-distinct draws: reseed per tenant so
            // fault streams are independent but shard-invariant.
            let mut plan = plan.clone();
            plan.seed ^= tenant_salt;
            mw.install_fault_plan(plan);
        }
        let mut session = BankingSession {
            mda,
            bodies: Arc::clone(&factory.bodies),
            mw,
            profile,
            conflict_reported: BTreeSet::new(),
            charged_us: 0,
            snapshots: 0,
            obs: obs.clone(),
            data_dir,
            kill_at,
            requests_seen: 0,
            recoveries: Arc::clone(&factory.recoveries),
        };
        session.mw.bus.add_node("client");
        session.mw.bus.add_node("server");
        session
            .mw
            .naming
            .bind("bank", "server", 1)
            .expect("fresh naming service accepts the binding");
        session.charged_us = session.mw.now_us();
        session
    }

    /// Counts a request and, if the kill point fires here, crashes and
    /// recovers the lifecycle before the request runs.
    fn tick(&mut self) -> Result<(), ServeError> {
        self.requests_seen += 1;
        if self.kill_at == Some(self.requests_seen) {
            self.kill_at = None;
            self.crash_and_recover().map_err(ServeError::engine)?;
        }
        Ok(())
    }

    /// The simulated crash: the lifecycle process dies mid-append —
    /// its in-memory state is dropped and the journal gets a torn tail
    /// — while the middleware platform (the tenant's environment:
    /// clock, RNG, fault counters, document store) stays up. Recovery
    /// replays the write-ahead log to the last committed operation and
    /// rebuilds the lifecycle from it; the snapshot counter is
    /// recounted from the surviving store instead of trusted from the
    /// dead session. Recovery itself touches neither the middleware
    /// nor the trace, so a recovered run is byte-identical to an
    /// uninterrupted one.
    fn crash_and_recover(&mut self) -> Result<(), LifecycleError> {
        let dir = self
            .data_dir
            .as_ref()
            .ok_or_else(|| LifecycleError::Recovery("kill points require a data dir".to_owned()))?;
        Repository::simulate_torn_tail(dir)?;
        let (mut mda, _report) =
            MdaLifecycle::recover(dir, self.profile.workflow.clone(), serve_resolver)?;
        mda.set_collector(self.obs.clone());
        self.mda = mda;
        self.snapshots =
            self.mw.store.keys().iter().filter(|k| k.starts_with("model/v")).count() as u64;
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks `concern` up against every already-applied concern in the
    /// profile's conflict table. Returns the clashing applied concern
    /// and the matrix evidence — an O(applied) walk over O(1) table
    /// lookups, the hot path of the admission gate.
    fn conflict_with_applied(&self, concern: &str) -> Option<(String, String)> {
        for done in self.mda.applied() {
            let other = done.cmt.concern();
            if let Some(evidence) = self.profile.conflicts.get(&pair_key(other, concern)) {
                return Some((other.to_owned(), evidence.clone()));
            }
        }
        None
    }

    fn answer(&self, selector: &QuerySelector) -> u64 {
        let model = self.mda.model();
        match selector {
            QuerySelector::Classes => model.classes().len() as u64,
            QuerySelector::Stereotype(s) => model.stereotyped(s).len() as u64,
            QuerySelector::Operations(class) => {
                model.find_classifier(class).map_or(0, |id| model.operations_of(id).len() as u64)
            }
        }
    }
}

impl TenantEngine for BankingSession {
    fn execute(&mut self, req: &Request, _obs: &Collector) -> Result<String, ServeError> {
        self.tick()?;
        match req {
            Request::ApplyConcern { concern, si } => {
                // Critical-pair admission gate: a concern the matrix
                // proved incompatible with one already applied is
                // rejected here, before the platform transaction and
                // before any model mutation.
                if let Some((applied, evidence)) = self.conflict_with_applied(concern) {
                    return Err(ServeError::Conflict { a: applied, b: concern.clone(), evidence });
                }
                let pair = comet_concerns::by_name(concern)
                    .ok_or_else(|| ServeError::engine(UnknownConcern(concern.clone())))?;
                // The platform transaction brackets the refinement:
                // commit faults degrade the request before the model
                // is touched.
                let tx = self.mw.tx.begin("serializable").map_err(ServeError::engine)?;
                self.mw.tx.commit(tx).map_err(ServeError::engine)?;
                self.mda.apply_concern(&pair, si.clone()).map_err(ServeError::engine)?;
                Ok(format!("applied:{concern}"))
            }
            Request::UndoLast => {
                self.mw.store.load("model/head").map_err(ServeError::engine)?;
                self.mda.undo_last().map_err(ServeError::engine)?;
                Ok("undone".to_owned())
            }
            Request::Generate { backend } => {
                let be = comet_gen::Backend::parse(backend)
                    .ok_or_else(|| ServeError::UnknownBackend(backend.clone()))?;
                self.mw.bus.send("client", "server", 512).map_err(ServeError::engine)?;
                let system = self.mda.generate(&self.bodies, be).map_err(ServeError::engine)?;
                Ok(format!("generated:{backend}:{}", system.woven().classes.len()))
            }
            Request::Query(_) => unreachable!("queries are batched via execute_queries"),
            Request::Snapshot => {
                let xmi = self.mda.snapshot_xmi().to_owned();
                self.snapshots += 1;
                let key = format!("model/v{}", self.snapshots);
                self.mw.store.save(&key, xmi).map_err(ServeError::engine)?;
                self.mw.store.save("model/head", key.clone()).map_err(ServeError::engine)?;
                Ok(format!("snapshot:{key}"))
            }
        }
    }

    fn execute_queries(
        &mut self,
        selectors: &[QuerySelector],
        _obs: &Collector,
    ) -> Result<Vec<u64>, ServeError> {
        self.tick()?;
        // One naming round per batch — the batching win the report's
        // `batched_queries` counter measures.
        self.mw.naming.lookup("bank").map_err(ServeError::engine)?;
        Ok(selectors.iter().map(|s| self.answer(s)).collect())
    }

    fn next_apply(&mut self) -> Option<Request> {
        let allowed: Vec<String> =
            self.mda.workflow().allowed_next().iter().map(|c| (*c).to_owned()).collect();
        for concern in allowed {
            // A conflict-blocked step is offered exactly once — the
            // gate's typed rejection must surface in the report — and
            // skipped on every later draw so the remaining steps serve.
            if self.conflict_with_applied(&concern).is_some()
                && !self.conflict_reported.insert(concern.clone())
            {
                continue;
            }
            let si = serve_si(&concern).expect("planned concern has a serving Si");
            return Some(Request::ApplyConcern { concern, si });
        }
        None
    }

    fn applied(&self) -> Vec<String> {
        self.mda.applied().iter().map(|a| a.cmt.concern().to_owned()).collect()
    }

    fn take_service_us(&mut self) -> u64 {
        let now = self.mw.now_us();
        let delta = now - self.charged_us;
        self.charged_us = now;
        delta
    }

    fn fault_log(&self) -> FaultLog {
        self.mw.fault_log()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let (hits, misses) = self.mda.weave_cache_stats();
        let (gen_hits, gen_misses) = self.mda.gen_cache_stats();
        vec![
            ("weave_cache_hits", hits),
            ("weave_cache_misses", misses),
            ("gen_cache_hits", gen_hits),
            ("gen_cache_misses", gen_misses),
            ("wal_fsyncs", self.mda.wal_fsyncs()),
        ]
    }
}

/// Creates [`BankingSession`]s for the server core. Construction runs
/// interaction analysis over the workflow steps once and builds the
/// banking method bodies once; every session shares the resulting
/// `ServeProfile` and bodies.
pub struct BankingFactory {
    seed: u64,
    fault_plan: Option<FaultPlan>,
    profile: Arc<ServeProfile>,
    bodies: Arc<BodyProvider>,
    data_dir: Option<PathBuf>,
    kill: Option<KillPoint>,
    recoveries: Arc<AtomicU64>,
}

impl BankingFactory {
    /// A factory deriving per-tenant seeds from the workload seed, with
    /// an optional fault plan installed (reseeded) per tenant, serving
    /// the default [`SERVE_WORKFLOW`].
    pub fn new(seed: u64, fault_plan: Option<FaultPlan>) -> Self {
        Self::with_steps(seed, fault_plan, &default_steps())
            .expect("the default serving workflow passes interaction analysis")
    }

    /// A factory serving `steps` instead of the default workflow.
    ///
    /// # Errors
    /// Fails when a step names an unknown concern, has no serving `Si`,
    /// or interaction analysis rejects the workflow.
    pub fn with_steps(
        seed: u64,
        fault_plan: Option<FaultPlan>,
        steps: &[String],
    ) -> Result<Self, ServeError> {
        Ok(BankingFactory {
            seed,
            fault_plan,
            profile: serve_profile(steps)?,
            bodies: Arc::new(banking_bodies()),
            data_dir: None,
            kill: None,
            recoveries: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Journals every tenant's repository under `dir` (one
    /// subdirectory per tenant). Tenants whose journal already exists
    /// resume from it.
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Arms a deterministic crash (requires a data dir).
    fn with_kill(mut self, kill: KillPoint) -> Self {
        self.kill = Some(kill);
        self
    }

    /// The shared counter of recoveries performed during the run.
    pub fn recoveries(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.recoveries)
    }
}

impl EngineFactory for BankingFactory {
    type Engine = BankingSession;

    fn create(&self, tenant: &str, obs: &Collector) -> BankingSession {
        BankingSession::new(self, tenant, obs)
    }

    fn query_pool(&self) -> Vec<QuerySelector> {
        vec![
            QuerySelector::Classes,
            QuerySelector::Stereotype(comet_codegen::marks::STEREO_REMOTE.to_owned()),
            QuerySelector::Stereotype(comet_codegen::marks::STEREO_TRANSACTIONAL.to_owned()),
            QuerySelector::Operations("Bank".to_owned()),
            QuerySelector::Operations("Account".to_owned()),
        ]
    }
}

/// Runs the banking workload end to end: validates the plan's workflow
/// steps against the concern registry, builds the factory (which runs
/// interaction analysis once), shards the tenants, executes with the
/// collection switches in `cfg` (tracing and/or metrics), and returns
/// the outcome. The entry point behind `comet-cli serve` and the
/// integration tests.
///
/// # Errors
/// Propagates plan validation failures from the server core.
pub fn run_banking_serve(
    plan: &WorkloadPlan,
    shards: usize,
    fault_plan: Option<FaultPlan>,
    cfg: &RunConfig,
) -> Result<comet_serve::ServeOutcome, ServeError> {
    plan.validate_concerns(|c| comet_concerns::by_name(c).is_some())?;
    plan.validate_backends(|b| comet_gen::Backend::parse(b).is_some())?;
    let factory = BankingFactory::with_steps(plan.seed, fault_plan, &effective_steps(plan))?;
    let core = comet_serve::ServerCore::new(plan, &factory, shards)?;
    Ok(core.run_with(cfg))
}

/// [`run_banking_serve`] with every tenant's repository journalled
/// under `data_dir` and an optional deterministic crash armed. Returns
/// the outcome plus the number of crash recoveries performed; a
/// recovered run's report and trace are byte-identical to the same run
/// without the kill.
///
/// # Errors
/// Propagates plan validation failures from the server core.
pub fn run_banking_serve_durable(
    plan: &WorkloadPlan,
    shards: usize,
    fault_plan: Option<FaultPlan>,
    cfg: &RunConfig,
    data_dir: &Path,
    kill: Option<KillPoint>,
) -> Result<(comet_serve::ServeOutcome, u64), ServeError> {
    plan.validate_concerns(|c| comet_concerns::by_name(c).is_some())?;
    plan.validate_backends(|b| comet_gen::Backend::parse(b).is_some())?;
    let mut factory = BankingFactory::with_steps(plan.seed, fault_plan, &effective_steps(plan))?
        .with_data_dir(data_dir);
    if let Some(kill) = kill {
        factory = factory.with_kill(kill);
    }
    let recoveries = factory.recoveries();
    let core = comet_serve::ServerCore::new(plan, &factory, shards)?;
    let outcome = core.run_with(cfg);
    Ok((outcome, recoveries.load(Ordering::Relaxed)))
}
