//! Per-tenant metrics: fixed meters a tenant records into while it
//! runs, labelled into the run's one `MetricsSnapshot` afterwards.
//!
//! The series set is fixed at compile time, so the meters are plain
//! fields indexed by request kind. Counts the report already keeps
//! (rejections, sheds, failures, conflicts, fault records) are read
//! from [`TenantStats`], and a kind's request count is its latency
//! histogram's count, so nothing is counted twice.

use crate::report::TenantStats;
use crate::request::Request;
use comet_metrics::{HistogramSnapshot, MetricKey, MetricsSnapshot, WindowSnapshot};

/// The five request kinds, in [`kind_index`] order.
const KINDS: [&str; 5] = ["apply", "undo", "generate", "query", "snapshot"];

pub(crate) fn kind_index(req: &Request) -> usize {
    match req {
        Request::ApplyConcern { .. } => 0,
        Request::UndoLast => 1,
        Request::Generate { .. } => 2,
        Request::Query(_) => 3,
        Request::Snapshot => 4,
    }
}

/// What one tenant records when metrics are on.
#[derive(Debug, Default)]
pub(crate) struct TenantMeters {
    /// Queue wait per request kind, in sim µs.
    pub queue_wait: [HistogramSnapshot; 5],
    /// Service time per request kind, in sim µs.
    pub service: [HistogramSnapshot; 5],
    /// Queue plus service time per request kind, in sim µs.
    pub e2e: [HistogramSnapshot; 5],
    /// Service batches whose span trees the sampler kept.
    pub trace_kept: u64,
    /// Service batches whose span trees the sampler discarded.
    pub trace_dropped: u64,
    /// Good/bad outcomes by sim time, for the SLO burn rate.
    pub slo: WindowSnapshot,
    /// The engine's counters (weave-cache hits, WAL fsyncs, ...), read
    /// once the tenant is quiescent.
    pub engine: Vec<(&'static str, u64)>,
}

impl TenantMeters {
    pub(crate) fn new(window_us: u64) -> Self {
        TenantMeters { slo: WindowSnapshot::new(window_us), ..TenantMeters::default() }
    }

    /// The tenant's latency distribution over every request kind.
    pub(crate) fn latency(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::default();
        for h in &self.e2e {
            all.merge(h);
        }
        all
    }

    /// Adds this tenant's series to `snap`, each labelled with
    /// `tenant`, zero-valued ones included. Histograms and the window
    /// move in. A counter key that repeats (an engine counter named
    /// like a scheduler one) adds.
    pub(crate) fn label_into(self, tenant: &str, stats: &TenantStats, snap: &mut MetricsSnapshot) {
        let key = |name: &str| MetricKey::new(name, &[("tenant", tenant)]);
        let kind_key =
            |name: &str, kind: &str| MetricKey::new(name, &[("kind", kind), ("tenant", tenant)]);
        for (kind, h) in KINDS.iter().zip(&self.e2e) {
            snap.counters.insert(kind_key("comet_serve_requests_total", kind), h.count);
        }
        let scheduler = [
            ("comet_serve_rejections_total", stats.rejected),
            ("comet_serve_deadline_sheds_total", stats.deadline_dropped),
            ("comet_serve_failures_total", stats.failed),
            ("comet_serve_conflicts_total", stats.conflicts),
            ("comet_serve_trace_sampled_total", self.trace_kept),
            ("comet_serve_trace_dropped_total", self.trace_dropped),
            ("comet_serve_fault_injections_total", stats.fault_records),
        ];
        for (name, value) in scheduler {
            *snap.counters.entry(key(name)).or_insert(0) += value;
        }
        for (name, value) in self.engine {
            *snap.counters.entry(key(&format!("comet_serve_{name}_total"))).or_insert(0) += value;
        }
        let families = [
            ("comet_serve_queue_wait_us", self.queue_wait),
            ("comet_serve_service_us", self.service),
            ("comet_serve_latency_us", self.e2e),
        ];
        for (name, family) in families {
            for (kind, h) in KINDS.iter().zip(family) {
                snap.histograms.insert(kind_key(name, kind), h);
            }
        }
        snap.windows.insert(key("comet_serve_slo_requests"), self.slo);
    }
}
