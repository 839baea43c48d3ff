//! Integration tests for the serve-time telemetry pipeline over real
//! banking sessions: byte-identical metrics snapshots and SLO verdicts
//! across shard counts, record-for-record bridging of engine counters
//! (fault injections, weave-cache hits, WAL fsyncs), and tail-based
//! trace sampling that keeps every faulted request's span tree.

use comet::{run_banking_serve, run_banking_serve_durable};
use comet_middleware::FaultPlan;
use comet_serve::{RunConfig, SampleMode, ServeOutcome, SloPolicy, WorkloadPlan};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (parallel tests, one process).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comet-metrics-{}-{}-{}",
        std::process::id(),
        name,
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    dir
}

fn run(
    plan: &WorkloadPlan,
    shards: usize,
    faults: Option<FaultPlan>,
    cfg: &RunConfig,
) -> ServeOutcome {
    run_banking_serve(plan, shards, faults, cfg).expect("valid plan")
}

fn commit_fault_plan() -> FaultPlan {
    FaultPlan::parse_toml("seed = 7\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n")
        .expect("well-formed plan")
}

fn slo_plan(seed: u64) -> WorkloadPlan {
    let mut plan = WorkloadPlan::new(seed);
    plan.slo = Some(SloPolicy { target_us: 60_000, ..SloPolicy::default() });
    plan
}

#[test]
fn metrics_and_slo_verdicts_are_byte_identical_across_shard_counts() {
    let plan = slo_plan(7);
    let cfg = RunConfig { traced: false, metrics: true };
    let baseline = run(&plan, 1, Some(commit_fault_plan()), &cfg);
    let base_snap = baseline.metrics.as_ref().expect("metrics on");
    let base_prom = base_snap.to_prometheus();
    assert!(base_prom.contains("comet_serve_requests_total{"), "{base_prom}");
    for shards in [2usize, 4, 8] {
        let other = run(&plan, shards, Some(commit_fault_plan()), &cfg);
        let snap = other.metrics.as_ref().expect("metrics on");
        assert_eq!(base_snap, snap, "snapshot diverged at {shards} shards");
        assert_eq!(base_prom, snap.to_prometheus(), "exposition diverged at {shards} shards");
        assert_eq!(base_snap.to_json(), snap.to_json(), "json diverged at {shards} shards");
        assert_eq!(baseline.report.slo, other.report.slo, "verdicts diverged at {shards} shards");
    }
    assert_eq!(baseline.report.slo.len(), plan.tenants, "one verdict per tenant");
}

#[test]
fn fault_injection_counters_bridge_the_fault_log_record_for_record() {
    let plan = slo_plan(7);
    let cfg = RunConfig { traced: false, metrics: true };
    let outcome = run(&plan, 2, Some(commit_fault_plan()), &cfg);
    let snap = outcome.metrics.as_ref().expect("metrics on");
    let fault_records: u64 = outcome.report.tenants.values().map(|t| t.fault_records).sum();
    assert!(fault_records > 0, "scheduled fault never fired");
    let bridged: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.name == "comet_serve_fault_injections_total")
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(bridged, fault_records, "fault-log bridging must be record-for-record");
}

#[test]
fn weave_cache_and_failure_counters_land_in_the_snapshot() {
    let plan = slo_plan(7);
    let cfg = RunConfig { traced: false, metrics: true };
    let outcome = run(&plan, 2, None, &cfg);
    let snap = outcome.metrics.as_ref().expect("metrics on");
    let total = |name: &str| -> u64 {
        snap.counters.iter().filter(|(k, _)| k.name == name).map(|(_, &v)| v).sum()
    };
    // Steady-state generates hit the per-tenant weave cache; both sides
    // of the split are bridged from the engine.
    assert!(total("comet_serve_weave_cache_hits_total") > 0, "no weave-cache hits bridged");
    assert!(total("comet_serve_weave_cache_misses_total") > 0, "no cold weaves bridged");
    // In-memory sessions never fsync.
    assert_eq!(total("comet_serve_wal_fsyncs_total"), 0);
    // Per-kind request counters reconcile with the report.
    assert_eq!(total("comet_serve_requests_total"), outcome.report.completed);
}

#[test]
fn durable_runs_count_wal_fsyncs() {
    let plan = slo_plan(7);
    let cfg = RunConfig { traced: false, metrics: true };
    let dir = tmp("fsyncs");
    let (outcome, recoveries) =
        run_banking_serve_durable(&plan, 2, None, &cfg, &dir, None).expect("valid plan");
    assert_eq!(recoveries, 0);
    let snap = outcome.metrics.as_ref().expect("metrics on");
    let fsyncs: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.name == "comet_serve_wal_fsyncs_total")
        .map(|(_, &v)| v)
        .sum();
    assert!(fsyncs > 0, "journalled tenants must issue durability barriers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tail_on_error_keeps_every_faulted_request_and_stays_deterministic() {
    let mut plan = slo_plan(7);
    plan.sampling = SampleMode::TailOnError;
    let cfg = RunConfig { traced: true, metrics: true };
    let sampled = run(&plan, 2, Some(commit_fault_plan()), &cfg);
    let trace = sampled.trace.as_ref().expect("traced run");
    // Every failed request keeps its span tree under tail sampling.
    let errored = trace
        .spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .filter(|s| {
            comet_obs::Trace::attr(&s.attrs, "outcome").is_some_and(|o| o.starts_with("err"))
        })
        .count() as u64;
    assert!(sampled.report.failed > 0, "fault plan produced no failures");
    assert_eq!(errored, sampled.report.failed, "a faulted request lost its span tree");
    // ...while the boring traffic is sampled out.
    plan.sampling = SampleMode::Always;
    let full = run(&plan, 2, Some(commit_fault_plan()), &cfg);
    assert!(
        trace.spans.len() < full.trace.as_ref().unwrap().spans.len(),
        "tail sampling kept everything"
    );
    // Sampling decisions are per-tenant-deterministic: shard count
    // cannot change which spans survive.
    plan.sampling = SampleMode::TailOnError;
    let again = run(&plan, 8, Some(commit_fault_plan()), &cfg);
    assert_eq!(sampled.trace, again.trace);
    // And the report itself is untouched by sampling.
    assert_eq!(sampled.report, full.report);
}

#[test]
fn chaos_reports_bridge_into_the_same_exposition_pipeline() {
    let report = comet::run_banking_chaos(&comet::ChaosConfig::default()).expect("chaos runs");
    let mut reg = comet_metrics::MetricsRegistry::enabled();
    report.record_metrics(&mut reg);
    let prom = reg.snapshot().to_prometheus();
    assert!(prom.contains("comet_chaos_attempted_total 12"), "{prom}");
    assert!(prom.contains("comet_chaos_tx_committed_total"), "{prom}");
    // Same report, same exposition — the bridge is a pure function.
    let mut reg2 = comet_metrics::MetricsRegistry::enabled();
    report.record_metrics(&mut reg2);
    assert_eq!(prom, reg2.snapshot().to_prometheus());
}
