//! The server: tenant→shard routing and the parallel run loop.

use crate::error::ServeError;
use crate::plan::WorkloadPlan;
use crate::report::ServeReport;
use crate::request::EngineFactory;
use crate::shard::{run_shard, TenantOutcome};
use comet_metrics::MetricsSnapshot;
use comet_obs::fnv1a64;
use comet_obs::Trace;
use rayon::prelude::*;

/// Per-run switches that are not part of the workload plan: what to
/// collect, not what to do. Both default to off; an `[slo]` section in
/// the plan turns metrics on regardless, since verdicts need the
/// histograms.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Collect per-request span trees.
    pub traced: bool,
    /// Collect counters/histograms/windows into a `MetricsSnapshot`.
    pub metrics: bool,
}

/// What a run produces: the byte-comparable report, plus the merged
/// trace when tracing was requested and the merged metrics snapshot
/// when metrics were requested (or implied by an SLO policy).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The shard-count-invariant report.
    pub report: ServeReport,
    /// Per-tenant traces merged in tenant order, if tracing was on.
    pub trace: Option<Trace>,
    /// Every tenant's labelled metrics, if metrics were on.
    pub metrics: Option<MetricsSnapshot>,
}

/// A sharded multi-tenant transformation server.
///
/// The core owns nothing but the routing decision: tenants hash to
/// shards by FNV-1a of their name, each shard runs its tenants on one
/// rayon worker (sessions are constructed inside the worker because
/// middleware state is `!Send`), and per-tenant outcomes — plain data —
/// come back to be folded in tenant-name order. Since tenants share no
/// state and the fold is order-canonical, the shard count is purely a
/// parallelism knob: it changes wall time, never a byte of the report,
/// trace, or metrics snapshot.
pub struct ServerCore<'a, F: EngineFactory> {
    plan: &'a WorkloadPlan,
    factory: &'a F,
    shards: usize,
}

impl<'a, F: EngineFactory> ServerCore<'a, F> {
    /// Builds a server over a validated plan.
    ///
    /// # Errors
    /// Returns `ServeError::Plan` when the plan is not runnable; a
    /// shard count of 0 is rounded up to 1.
    pub fn new(plan: &'a WorkloadPlan, factory: &'a F, shards: usize) -> Result<Self, ServeError> {
        plan.validate()?;
        Ok(ServerCore { plan, factory, shards: shards.max(1) })
    }

    /// The shard that owns `tenant`.
    pub fn shard_of(&self, tenant: &str) -> usize {
        (fnv1a64(tenant.as_bytes()) % self.shards as u64) as usize
    }

    /// Runs the whole workload to quiescence with explicit collection
    /// switches; shards execute in parallel.
    pub fn run_with(&self, cfg: &RunConfig) -> ServeOutcome {
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); self.shards];
        for tenant in self.plan.tenant_names() {
            let shard = self.shard_of(&tenant);
            groups[shard].push(tenant);
        }
        let per_shard: Vec<Vec<TenantOutcome>> = groups
            .par_iter()
            .map(|tenants| run_shard(self.plan, tenants, self.factory, cfg))
            .collect();
        let mut outcomes: Vec<TenantOutcome> = per_shard.into_iter().flatten().collect();
        // Canonical order: by tenant name, independent of grouping.
        outcomes.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let report = ServeReport::assemble(&outcomes);
        // Label every tenant's meters into one snapshot. Each series
        // carries its tenant, so no two tenants' series collide.
        let mut metrics: Option<MetricsSnapshot> = None;
        for o in &mut outcomes {
            if let Some(m) = o.meters.take() {
                m.label_into(&o.tenant, &o.stats, metrics.get_or_insert_with(Default::default));
            }
        }
        let trace = if cfg.traced {
            let traces: Vec<Trace> = outcomes.into_iter().filter_map(|o| o.trace).collect();
            Some(Trace::merge(&traces))
        } else {
            None
        };
        ServeOutcome { report, trace, metrics }
    }
}
