//! Seeded workload description for the serving harness.
//!
//! A [`WorkloadPlan`] is to the serving layer what `FaultPlan` is to the
//! middleware: a small, seeded, declarative description of *what the
//! world does to the system*, parsed from the same hand-rolled TOML
//! subset (`key = value` lines, `[section]` headers, `#` comments — no
//! TOML dependency). The plan fixes the tenant/client population, the
//! closed-loop request mix, the admission limits, and the simulated
//! service costs; together with the seed it fully determines every
//! request the simulated clients will ever issue, which is what makes
//! `ServeReport`s byte-comparable across shard and thread counts.

use std::fmt;

use comet_metrics::SloPolicy;
use comet_middleware::{plan_lines, PlanLine, PlanLineError};

/// Errors from [`WorkloadPlan::parse_toml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadPlanError {
    /// A line that is neither `key = value`, a section header, a
    /// comment, nor blank — or a key unknown in its section.
    BadLine(String),
    /// A value that failed to parse as the expected number.
    BadValue(String),
    /// A plan whose numbers cannot describe a runnable workload
    /// (zero tenants, zero clients, an all-zero request mix, ...).
    Invalid(String),
    /// A key or section header appeared twice. The payload is the key
    /// (or `[section]`) as written; the message format is shared
    /// verbatim with the fault-plan parser in `comet-middleware`.
    Duplicate(String),
    /// A `[workflow]` step named a concern no registered `ConcernPair`
    /// provides (checked via
    /// [`validate_concerns`](WorkloadPlan::validate_concerns)).
    UnknownConcern(String),
    /// A `[mix.generate]` entry named a backend the host's generator
    /// factory does not register (checked via
    /// [`validate_backends`](WorkloadPlan::validate_backends)).
    UnknownBackend(String),
    /// A planned concern exists but its serving binding is unusable.
    BadConcern {
        /// The concern as named by the plan.
        concern: String,
        /// Why the binding cannot serve.
        detail: String,
    },
}

impl fmt::Display for WorkloadPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadPlanError::BadLine(l) => write!(f, "unparseable plan line `{l}`"),
            WorkloadPlanError::BadValue(v) => write!(f, "bad numeric value `{v}`"),
            WorkloadPlanError::Invalid(why) => write!(f, "invalid plan: {why}"),
            WorkloadPlanError::Duplicate(k) => write!(f, "duplicate plan entry `{k}`"),
            WorkloadPlanError::UnknownConcern(c) => {
                write!(f, "workflow step names unknown concern `{c}`")
            }
            WorkloadPlanError::UnknownBackend(b) => {
                write!(f, "generate mix names unknown backend `{b}`")
            }
            WorkloadPlanError::BadConcern { concern, detail } => {
                write!(f, "workflow step `{concern}` cannot serve: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadPlanError {}

impl From<PlanLineError> for WorkloadPlanError {
    fn from(e: PlanLineError) -> Self {
        match e {
            PlanLineError::BadLine(l) => WorkloadPlanError::BadLine(l),
            PlanLineError::Duplicate(k) => WorkloadPlanError::Duplicate(k),
        }
    }
}

/// The backend a `Generate` request targets when the plan has no
/// `[mix.generate]` section. This is the pre-factory behaviour — the
/// Java functional target every earlier serving plan exercised.
pub const DEFAULT_BACKEND: &str = "java-functional";

/// Relative weights of the five request kinds in the generated stream.
///
/// Weights are relative, not probabilities — they are normalised over
/// their sum when a client draws its next request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    /// Weight of `ApplyConcern` requests.
    pub apply: f64,
    /// Weight of `UndoLast` requests.
    pub undo: f64,
    /// Weight of `Generate` requests.
    pub generate: f64,
    /// Weight of read-only `Query` requests (batchable).
    pub query: f64,
    /// Weight of `Snapshot` requests.
    pub snapshot: f64,
    /// Relative weights of the generation backends a `Generate`
    /// request targets, from the `[mix.generate]` section (key =
    /// backend id, value = weight). Empty means every `Generate` uses
    /// [`DEFAULT_BACKEND`] and the workload generator draws no extra
    /// random number — existing plans keep their exact request
    /// streams. Order is the plan's textual order, which the secondary
    /// weighted draw walks deterministically.
    pub generate_backends: Vec<(String, f64)>,
}

impl RequestMix {
    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.apply + self.undo + self.generate + self.query + self.snapshot
    }
}

impl Default for RequestMix {
    fn default() -> Self {
        RequestMix {
            apply: 0.25,
            undo: 0.05,
            generate: 0.10,
            query: 0.50,
            snapshot: 0.10,
            generate_backends: Vec::new(),
        }
    }
}

/// Admission-control limits applied per tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Bounded ingress queue depth; an arrival beyond this is rejected
    /// with `ServeError::Overloaded`.
    pub queue_depth: usize,
    /// Per-request queueing deadline in sim-µs; `0` disables deadline
    /// shedding.
    pub deadline_us: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { queue_depth: 4, deadline_us: 0 }
    }
}

/// Simulated service costs (sim-µs) charged by the scheduler, on top of
/// whatever sim time the engine itself consumes (e.g. middleware
/// latency faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCosts {
    /// Client think time between a completion and the next issue.
    pub think_us: u64,
    /// Max uniform jitter added to each service and think time.
    pub jitter_us: u64,
    /// Base cost of `ApplyConcern`.
    pub apply_us: u64,
    /// Base cost of `UndoLast`.
    pub undo_us: u64,
    /// Base cost of `Generate`.
    pub generate_us: u64,
    /// Base cost of one `Query` batch (batching amortises this).
    pub query_us: u64,
    /// Base cost of `Snapshot`.
    pub snapshot_us: u64,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        ServiceCosts {
            think_us: 300,
            jitter_us: 50,
            apply_us: 900,
            undo_us: 250,
            generate_us: 1500,
            query_us: 120,
            snapshot_us: 400,
        }
    }
}

/// When the scheduler keeps a request's recorded span tree.
///
/// Sampling is decided from plan data alone (tenant-name hash, request
/// outcome, SLO target), never from wall clocks or global state, so
/// the sampled trace for a given seed + plan is byte-identical at any
/// shard count — and always a subset of the `Always` trace's spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleMode {
    /// Keep every request's spans (the default; full fidelity).
    Always,
    /// Record no per-request spans (scheduler events still fire).
    Never,
    /// Keep all requests of tenants whose FNV-1a name hash falls under
    /// `rate` (0.0 ..= 1.0); whole tenants sample together so a kept
    /// tenant's trace is complete, not request-diced.
    PerTenantHash {
        /// Fraction of tenants to keep.
        rate: f64,
    },
    /// Tail-based sampling: keep a request's spans only when it
    /// failed, was injected with a fault, or missed its SLO latency
    /// target — every interesting request keeps its full span tree,
    /// everything healthy is discarded.
    TailOnError,
}

/// A complete, seeded workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Master seed; every per-tenant RNG derives from it.
    pub seed: u64,
    /// Number of tenants (`t00`, `t01`, ...).
    pub tenants: usize,
    /// Closed-loop clients per tenant.
    pub clients: usize,
    /// Requests each client attempts before retiring (rejections count
    /// as attempts — the workload is bounded even under overload).
    pub requests: u64,
    /// Request-kind weights.
    pub mix: RequestMix,
    /// Per-tenant admission limits.
    pub limits: Limits,
    /// Simulated service costs.
    pub service: ServiceCosts,
    /// Concern steps each tenant's workflow plans, in order. Empty
    /// means "use the engine's default workflow"; names are validated
    /// against the concern registry via
    /// [`validate_concerns`](WorkloadPlan::validate_concerns).
    pub workflow: Vec<String>,
    /// Optional SLO policy from the `[slo]` / `[slo.tenants]`
    /// sections. When present, metrics collection is implied and the
    /// `ServeReport` carries per-tenant `SloVerdict`s.
    pub slo: Option<SloPolicy>,
    /// Trace-sampling mode from the `[sampling]` section.
    pub sampling: SampleMode,
}

impl Default for WorkloadPlan {
    fn default() -> Self {
        WorkloadPlan {
            seed: 7,
            tenants: 4,
            clients: 2,
            requests: 8,
            mix: RequestMix::default(),
            limits: Limits::default(),
            service: ServiceCosts::default(),
            workflow: Vec::new(),
            slo: None,
            sampling: SampleMode::Always,
        }
    }
}

impl WorkloadPlan {
    /// A default plan re-seeded with `seed`.
    pub fn new(seed: u64) -> WorkloadPlan {
        WorkloadPlan { seed, ..WorkloadPlan::default() }
    }

    /// The canonical zero-padded tenant names, `t00` .. `tNN`.
    pub fn tenant_names(&self) -> Vec<String> {
        (0..self.tenants).map(|i| format!("t{i:02}")).collect()
    }

    /// Validates that the plan describes a runnable workload.
    ///
    /// # Errors
    /// Returns [`WorkloadPlanError::Invalid`] naming the first problem.
    pub fn validate(&self) -> Result<(), WorkloadPlanError> {
        let invalid = |why: &str| Err(WorkloadPlanError::Invalid(why.to_owned()));
        if self.tenants == 0 {
            return invalid("tenants must be >= 1");
        }
        if self.clients == 0 {
            return invalid("clients must be >= 1");
        }
        if self.requests == 0 {
            return invalid("requests must be >= 1");
        }
        if self.limits.queue_depth == 0 {
            return invalid("queue_depth must be >= 1");
        }
        let total = self.mix.total();
        if !total.is_finite() || total <= 0.0 {
            return invalid("request mix weights must sum to a positive finite value");
        }
        if !self.mix.generate_backends.is_empty() {
            let backend_total: f64 = self.mix.generate_backends.iter().map(|(_, w)| w).sum();
            if !backend_total.is_finite() || backend_total <= 0.0 {
                return invalid("generate backend weights must sum to a positive finite value");
            }
        }
        if let Some(slo) = &self.slo {
            if !(slo.percentile > 0.0 && slo.percentile <= 100.0) {
                return invalid("slo percentile must be in (0, 100]");
            }
            if !(slo.error_budget > 0.0 && slo.error_budget <= 1.0) {
                return invalid("slo error_budget must be in (0, 1]");
            }
            if slo.window_us == 0 {
                return invalid("slo window_us must be >= 1");
            }
        }
        if let SampleMode::PerTenantHash { rate } = self.sampling {
            if !(0.0..=1.0).contains(&rate) {
                return invalid("sampling rate must be in [0, 1]");
            }
        }
        Ok(())
    }

    /// Checks every `[workflow]` step against the concern registry.
    ///
    /// The substrate does not depend on `comet-concerns`, so callers
    /// inject the registry as a predicate (`comet::run_banking_serve`
    /// passes `|c| by_name(c).is_some()`). Rejecting unknown names here
    /// — at plan-parse/admission time — keeps a typo from surfacing as
    /// a per-request engine failure deep inside a serving run.
    ///
    /// # Errors
    /// Returns [`WorkloadPlanError::UnknownConcern`] naming the first
    /// step no registered `ConcernPair` provides.
    pub fn validate_concerns(
        &self,
        is_known: impl Fn(&str) -> bool,
    ) -> Result<(), WorkloadPlanError> {
        for step in &self.workflow {
            if !is_known(step) {
                return Err(WorkloadPlanError::UnknownConcern(step.clone()));
            }
        }
        Ok(())
    }

    /// Checks every `[mix.generate]` backend against the host's
    /// generator registry — the same injected-predicate pattern as
    /// [`validate_concerns`](WorkloadPlan::validate_concerns), and for
    /// the same reason: the substrate does not depend on `comet-gen`,
    /// so `comet::run_banking_serve` passes
    /// `|b| comet_gen::Backend::parse(b).is_some()`. Rejecting a typo
    /// here keeps it from surfacing as a per-request
    /// `ServeError::UnknownBackend` deep inside a serving run.
    ///
    /// # Errors
    /// Returns [`WorkloadPlanError::UnknownBackend`] naming the first
    /// backend the registry does not know.
    pub fn validate_backends(
        &self,
        is_known: impl Fn(&str) -> bool,
    ) -> Result<(), WorkloadPlanError> {
        for (backend, _) in &self.mix.generate_backends {
            if !is_known(backend) {
                return Err(WorkloadPlanError::UnknownBackend(backend.clone()));
            }
        }
        Ok(())
    }

    /// Parses the TOML-subset plan format (mirrors `FaultPlan`):
    ///
    /// ```toml
    /// seed = 7
    /// tenants = 4
    /// clients = 2
    /// requests = 8
    ///
    /// [mix]
    /// apply = 0.25
    /// undo = 0.05
    /// generate = 0.10
    /// query = 0.50
    /// snapshot = 0.10
    ///
    /// [mix.generate]            # backend weights for Generate draws
    /// java-functional = 2.0     # omit the section to pin the default
    /// rust-skeleton = 1.0       # backend with no extra RNG draw
    ///
    /// [limits]
    /// queue_depth = 4
    /// deadline_us = 0
    ///
    /// [service]
    /// think_us = 300
    /// jitter_us = 50
    /// apply_us = 900
    /// undo_us = 250
    /// generate_us = 1500
    /// query_us = 120
    /// snapshot_us = 400
    ///
    /// [workflow]
    /// steps = "distribution, transactions, security"
    ///
    /// [slo]
    /// percentile = 99.0
    /// target_us = 50000
    /// error_budget = 0.01
    /// window_us = 1000000
    ///
    /// [slo.tenants]
    /// t00 = 20000
    ///
    /// [sampling]
    /// mode = "tail-on-error"   # always | never | per-tenant-hash | tail-on-error
    /// rate = 0.0625            # per-tenant-hash keep fraction
    /// ```
    ///
    /// Unspecified keys keep their defaults; the parsed plan is
    /// [`validate`](WorkloadPlan::validate)d before being returned.
    /// Lines are read by `comet-middleware`'s shared `plan_lines`
    /// reader, the one `FaultPlan::parse_toml` uses: duplicate keys,
    /// repeated section headers, and trailing garbage after a header
    /// are rejected with the same messages.
    ///
    /// # Errors
    /// Returns a [`WorkloadPlanError`] describing the first bad line.
    pub fn parse_toml(text: &str) -> Result<WorkloadPlan, WorkloadPlanError> {
        let mut plan = WorkloadPlan::default();
        // `[sampling]` keys may arrive in any order; combined at the end.
        let mut sampling_mode: Option<String> = None;
        let mut sampling_rate: Option<f64> = None;
        for entry in plan_lines(text) {
            let (section, key, value, line) = match entry? {
                // An `[slo]`/`[slo.tenants]` header enables the policy
                // even when every key keeps its default.
                PlanLine::Section("slo" | "slo.tenants") => {
                    plan.slo.get_or_insert_with(SloPolicy::default);
                    continue;
                }
                PlanLine::Section(_) => continue,
                PlanLine::Entry { section, key, value, line } => (section, key, value, line),
            };
            let bad_value = || WorkloadPlanError::BadValue(value.to_owned());
            match section {
                "" => match key {
                    "seed" => plan.seed = value.parse().map_err(|_| bad_value())?,
                    "tenants" => plan.tenants = value.parse().map_err(|_| bad_value())?,
                    "clients" => plan.clients = value.parse().map_err(|_| bad_value())?,
                    "requests" => plan.requests = value.parse().map_err(|_| bad_value())?,
                    _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                },
                "mix" => {
                    let w: f64 = value.parse().map_err(|_| bad_value())?;
                    let w = w.max(0.0);
                    match key {
                        "apply" => plan.mix.apply = w,
                        "undo" => plan.mix.undo = w,
                        "generate" => plan.mix.generate = w,
                        "query" => plan.mix.query = w,
                        "snapshot" => plan.mix.snapshot = w,
                        _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                    }
                }
                // Any key is a backend id; the value its draw weight.
                // Duplicate ids are caught by the shared key set.
                "mix.generate" => {
                    let w: f64 = value.parse().map_err(|_| bad_value())?;
                    plan.mix.generate_backends.push((key.to_owned(), w.max(0.0)));
                }
                "limits" => match key {
                    "queue_depth" => {
                        plan.limits.queue_depth = value.parse().map_err(|_| bad_value())?;
                    }
                    "deadline_us" => {
                        plan.limits.deadline_us = value.parse().map_err(|_| bad_value())?;
                    }
                    _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                },
                "workflow" => match key {
                    "steps" => {
                        let mut steps: Vec<String> = Vec::new();
                        for step in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                            if steps.iter().any(|s| s == step) {
                                return Err(WorkloadPlanError::Duplicate(step.to_owned()));
                            }
                            steps.push(step.to_owned());
                        }
                        plan.workflow = steps;
                    }
                    _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                },
                "service" => {
                    let us: u64 = value.parse().map_err(|_| bad_value())?;
                    match key {
                        "think_us" => plan.service.think_us = us,
                        "jitter_us" => plan.service.jitter_us = us,
                        "apply_us" => plan.service.apply_us = us,
                        "undo_us" => plan.service.undo_us = us,
                        "generate_us" => plan.service.generate_us = us,
                        "query_us" => plan.service.query_us = us,
                        "snapshot_us" => plan.service.snapshot_us = us,
                        _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                    }
                }
                "slo" => {
                    let slo = plan.slo.as_mut().expect("header handler inserted policy");
                    match key {
                        "percentile" => slo.percentile = value.parse().map_err(|_| bad_value())?,
                        "target_us" => slo.target_us = value.parse().map_err(|_| bad_value())?,
                        "error_budget" => {
                            slo.error_budget = value.parse().map_err(|_| bad_value())?;
                        }
                        "window_us" => slo.window_us = value.parse().map_err(|_| bad_value())?,
                        _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                    }
                }
                // Any key is a tenant name; the value its target_us.
                "slo.tenants" => {
                    let slo = plan.slo.as_mut().expect("header handler inserted policy");
                    let target: u64 = value.parse().map_err(|_| bad_value())?;
                    slo.tenant_targets.insert(key.to_owned(), target);
                }
                "sampling" => match key {
                    "mode" => sampling_mode = Some(value.to_owned()),
                    "rate" => sampling_rate = Some(value.parse().map_err(|_| bad_value())?),
                    _ => return Err(WorkloadPlanError::BadLine(line.to_owned())),
                },
                other => {
                    return Err(WorkloadPlanError::BadLine(format!("[{other}] {line}")));
                }
            }
        }
        if let Some(mode) = sampling_mode {
            plan.sampling = match mode.as_str() {
                "always" => SampleMode::Always,
                "never" => SampleMode::Never,
                "per-tenant-hash" => {
                    SampleMode::PerTenantHash { rate: sampling_rate.unwrap_or(1.0) }
                }
                "tail-on-error" => SampleMode::TailOnError,
                _ => return Err(WorkloadPlanError::BadValue(mode)),
            };
        }
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let text = r#"
            seed = 42          # master seed
            tenants = 3
            clients = 5
            requests = 20

            [mix]
            apply = 1.0
            query = 3.0
            snapshot = 0

            [limits]
            queue_depth = 2
            deadline_us = 1500

            [service]
            think_us = 100
            generate_us = 2000
        "#;
        let plan = WorkloadPlan::parse_toml(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.tenants, 3);
        assert_eq!(plan.clients, 5);
        assert_eq!(plan.requests, 20);
        assert_eq!(plan.mix.apply, 1.0);
        assert_eq!(plan.mix.query, 3.0);
        assert_eq!(plan.mix.snapshot, 0.0);
        // Unspecified keys keep defaults.
        assert_eq!(plan.mix.undo, RequestMix::default().undo);
        assert_eq!(plan.limits.queue_depth, 2);
        assert_eq!(plan.limits.deadline_us, 1500);
        assert_eq!(plan.service.think_us, 100);
        assert_eq!(plan.service.generate_us, 2000);
        assert_eq!(plan.service.apply_us, ServiceCosts::default().apply_us);
        assert_eq!(plan.tenant_names(), ["t00", "t01", "t02"]);
    }

    #[test]
    fn empty_text_is_the_default_plan() {
        assert_eq!(WorkloadPlan::parse_toml("").unwrap(), WorkloadPlan::default());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(WorkloadPlan::parse_toml("wat"), Err(WorkloadPlanError::BadLine(_))));
        assert!(matches!(
            WorkloadPlan::parse_toml("seed = banana"),
            Err(WorkloadPlanError::BadValue(_))
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix]\nwarp = 1.0"),
            Err(WorkloadPlanError::BadLine(_))
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("tenants = 0"),
            Err(WorkloadPlanError::Invalid(_))
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix]\napply=0\nundo=0\ngenerate=0\nquery=0\nsnapshot=0"),
            Err(WorkloadPlanError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_duplicates_and_header_garbage() {
        let e = WorkloadPlan::parse_toml("seed = 1\nseed = 2").unwrap_err();
        assert!(matches!(&e, WorkloadPlanError::Duplicate(k) if k == "seed"));
        assert_eq!(e.to_string(), "duplicate plan entry `seed`");
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix]\napply = 1.0\napply = 2.0"),
            Err(WorkloadPlanError::Duplicate(k)) if k == "apply"
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix]\napply = 1.0\n[mix]\nquery = 2.0"),
            Err(WorkloadPlanError::Duplicate(k)) if k == "[mix]"
        ));
        // The same key name in different sections stays legal.
        WorkloadPlan::parse_toml("[limits]\nqueue_depth = 2\n[service]\nthink_us = 9").unwrap();
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix] junk"),
            Err(WorkloadPlanError::BadLine(_))
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix]]\napply = 1.0"),
            Err(WorkloadPlanError::BadLine(_))
        ));
        assert!(matches!(WorkloadPlan::parse_toml("[]"), Err(WorkloadPlanError::BadLine(_))));
    }

    #[test]
    fn parses_workflow_steps() {
        let plan =
            WorkloadPlan::parse_toml("[workflow]\nsteps = \"distribution, transactions,security\"")
                .unwrap();
        assert_eq!(plan.workflow, ["distribution", "transactions", "security"]);
        assert!(WorkloadPlan::parse_toml("").unwrap().workflow.is_empty());
        assert!(matches!(
            WorkloadPlan::parse_toml("[workflow]\nsteps = \"security, security\""),
            Err(WorkloadPlanError::Duplicate(k)) if k == "security"
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[workflow]\norder = \"security\""),
            Err(WorkloadPlanError::BadLine(_))
        ));
    }

    #[test]
    fn parses_slo_and_sampling_sections() {
        let text = r#"
            [slo]
            percentile = 95.0
            target_us = 8000
            error_budget = 0.05
            window_us = 20000

            [slo.tenants]
            t01 = 3000

            [sampling]
            rate = 0.25
            mode = "per-tenant-hash"
        "#;
        let plan = WorkloadPlan::parse_toml(text).unwrap();
        let slo = plan.slo.expect("policy parsed");
        assert_eq!(slo.percentile, 95.0);
        assert_eq!(slo.target_us, 8000);
        assert_eq!(slo.error_budget, 0.05);
        assert_eq!(slo.window_us, 20000);
        assert_eq!(slo.target_for("t01"), 3000);
        assert_eq!(slo.target_for("t00"), 8000);
        assert_eq!(plan.sampling, SampleMode::PerTenantHash { rate: 0.25 });

        // A bare [slo] header enables the default policy.
        let bare = WorkloadPlan::parse_toml("[slo]").unwrap();
        assert_eq!(bare.slo, Some(comet_metrics::SloPolicy::default()));
        // No sections at all: no policy, full tracing.
        let none = WorkloadPlan::parse_toml("").unwrap();
        assert_eq!(none.slo, None);
        assert_eq!(none.sampling, SampleMode::Always);
        for mode in ["always", "never", "tail-on-error"] {
            WorkloadPlan::parse_toml(&format!("[sampling]\nmode = \"{mode}\"")).unwrap();
        }
    }

    #[test]
    fn rejects_bad_slo_and_sampling_values() {
        for bad in [
            "[slo]\npercentile = 0",
            "[slo]\npercentile = 101",
            "[slo]\nerror_budget = 0",
            "[slo]\nerror_budget = 1.5",
            "[slo]\nwindow_us = 0",
            "[sampling]\nmode = \"per-tenant-hash\"\nrate = 1.5",
        ] {
            assert!(
                matches!(WorkloadPlan::parse_toml(bad), Err(WorkloadPlanError::Invalid(_))),
                "accepted {bad:?}"
            );
        }
        assert!(matches!(
            WorkloadPlan::parse_toml("[sampling]\nmode = \"coin-flip\""),
            Err(WorkloadPlanError::BadValue(m)) if m == "coin-flip"
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[slo]\nbudget = 1"),
            Err(WorkloadPlanError::BadLine(_))
        ));
        assert!(matches!(
            WorkloadPlan::parse_toml("[slo.tenants]\nt00 = soon"),
            Err(WorkloadPlanError::BadValue(_))
        ));
    }

    #[test]
    fn parses_generate_backend_weights() {
        let text = r#"
            [mix]
            generate = 1.0

            [mix.generate]
            java-functional = 2.0
            rust-skeleton = 1.0
            report = -0.5          # clamped to zero, like [mix] weights
        "#;
        let plan = WorkloadPlan::parse_toml(text).unwrap();
        assert_eq!(
            plan.mix.generate_backends,
            [
                ("java-functional".to_owned(), 2.0),
                ("rust-skeleton".to_owned(), 1.0),
                ("report".to_owned(), 0.0),
            ]
        );
        // No section: empty list, Generate pins DEFAULT_BACKEND.
        assert!(WorkloadPlan::parse_toml("").unwrap().mix.generate_backends.is_empty());
        assert_eq!(DEFAULT_BACKEND, "java-functional");
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix.generate]\nreport = snail"),
            Err(WorkloadPlanError::BadValue(v)) if v == "snail"
        ));
        let dup = "[mix.generate]\nreport = 1.0\nreport = 2.0";
        let e = WorkloadPlan::parse_toml(dup).unwrap_err();
        assert!(matches!(&e, WorkloadPlanError::Duplicate(k) if k == "report"));
        assert_eq!(e.to_string(), "duplicate plan entry `report`");
        assert!(matches!(
            WorkloadPlan::parse_toml("[mix.generate]\nreport = 0\nrust-skeleton = 0"),
            Err(WorkloadPlanError::Invalid(_))
        ));
    }

    #[test]
    fn validates_generate_backends_against_injected_registry() {
        let plan =
            WorkloadPlan::parse_toml("[mix.generate]\njava-functional = 1.0\nquantum-foam = 1.0")
                .unwrap();
        plan.validate_backends(|_| true).unwrap();
        let err = plan.validate_backends(|b| b == "java-functional").unwrap_err();
        assert!(matches!(&err, WorkloadPlanError::UnknownBackend(b) if b == "quantum-foam"));
        assert_eq!(err.to_string(), "generate mix names unknown backend `quantum-foam`");
        // A plan with no [mix.generate] section always validates.
        WorkloadPlan::default().validate_backends(|_| false).unwrap();
    }

    #[test]
    fn validates_workflow_concerns_against_injected_registry() {
        let plan =
            WorkloadPlan::parse_toml("[workflow]\nsteps = \"security, teleportation\"").unwrap();
        plan.validate_concerns(|_| true).unwrap();
        let err = plan.validate_concerns(|c| c == "security").unwrap_err();
        assert!(matches!(&err, WorkloadPlanError::UnknownConcern(c) if c == "teleportation"));
        assert_eq!(err.to_string(), "workflow step names unknown concern `teleportation`");
    }
}
