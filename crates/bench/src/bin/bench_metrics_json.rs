//! Emits `BENCH_metrics.json`: the overhead budget of the serve-time
//! telemetry pipeline.
//!
//! Two comparisons over one fixed banking workload:
//!
//! 1. **Registry overhead** — the same untraced run with metrics off vs
//!    metrics on (per-request histogram observations, counters, SLO
//!    window cells). The enabled path must stay within 1.05× of the
//!    disabled path, which the bin asserts.
//! 2. **Sampling dividend** — a fully traced run vs the same run with
//!    `PerTenantHash{rate: 1/16}` sampling, which discards most tenants'
//!    span trees at the end of each service batch.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_metrics_json
//! [output-path]` (default `BENCH_metrics.json` in the working
//! directory).

use comet::run_banking_serve;
use comet_bench::harness::{median_secs, Report};
use comet_bench::obj;
use comet_serve::{RunConfig, SampleMode, SloPolicy, WorkloadPlan};
use std::hint::black_box;

const SHARDS: usize = 4;
const THREADS: usize = 8;
const REPS: (usize, usize) = (1, 5);
const OVERHEAD_BUDGET: f64 = 1.05;

/// The workload: enough tenants to spread over the shards, a mixed
/// request stream so every histogram family fills.
fn bench_plan() -> WorkloadPlan {
    let mut plan = WorkloadPlan::new(7);
    plan.tenants = 16;
    plan.clients = 2;
    plan.requests = 32;
    plan.mix.apply = 0.25;
    plan.mix.generate = 0.40;
    plan.mix.query = 0.20;
    plan.mix.snapshot = 0.10;
    plan.mix.undo = 0.05;
    plan
}

fn main() {
    let plan = bench_plan();
    let mut slo_plan = bench_plan();
    slo_plan.slo = Some(SloPolicy::default());
    let mut sampled_plan = bench_plan();
    sampled_plan.sampling = SampleMode::PerTenantHash { rate: 1.0 / 16.0 };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(THREADS).build().expect("pool builds");

    // Determinism gate: the metrics snapshot must not depend on the
    // shard count.
    let cfg_metrics = RunConfig { traced: false, metrics: true };
    let baseline =
        pool.install(|| run_banking_serve(&slo_plan, 1, None, &cfg_metrics)).expect("valid plan");
    let base_prom = baseline.metrics.as_ref().expect("metrics on").to_prometheus();
    for shards in [2usize, 4, 8] {
        let other = pool
            .install(|| run_banking_serve(&slo_plan, shards, None, &cfg_metrics))
            .expect("valid plan");
        assert_eq!(
            base_prom,
            other.metrics.as_ref().expect("metrics on").to_prometheus(),
            "metrics snapshot diverged at {shards} shards"
        );
        assert_eq!(baseline.report.slo, other.report.slo, "verdicts diverged at {shards} shards");
    }

    let time = |plan: &WorkloadPlan, cfg: RunConfig| {
        median_secs(REPS, || {
            black_box(
                pool.install(|| run_banking_serve(black_box(plan), SHARDS, None, &cfg))
                    .expect("valid plan"),
            );
        })
    };

    eprintln!("timing metrics-off baseline ...");
    let off = time(&plan, RunConfig { traced: false, metrics: false });
    eprintln!("timing metrics-on run ...");
    let on = time(&slo_plan, RunConfig { traced: false, metrics: true });
    eprintln!("timing full-trace run ...");
    let traced_full = time(&plan, RunConfig { traced: true, metrics: false });
    eprintln!("timing sampled-trace run (rate 1/16) ...");
    let traced_sampled = time(&sampled_plan, RunConfig { traced: true, metrics: false });

    let overhead = on / off;
    let sampling_ratio = traced_sampled / traced_full;
    let out_path = Report::new("pr9_metrics_overhead")
        .with(
            "workload",
            obj! {
                "tenants": plan.tenants,
                "clients": plan.clients,
                "requests_per_client": plan.requests,
                "seed": plan.seed,
                "shards": SHARDS,
                "threads": THREADS,
            },
        )
        .with("metrics_off_secs", off)
        .with("metrics_on_secs", on)
        .with("metrics_overhead", overhead)
        .with("overhead_budget", OVERHEAD_BUDGET)
        .with("trace_full_secs", traced_full)
        .with("trace_sampled_secs", traced_sampled)
        .with("sampled_vs_full", sampling_ratio)
        .write("BENCH_metrics.json");
    assert!(
        overhead <= OVERHEAD_BUDGET,
        "metrics overhead {overhead:.4}x exceeds the {OVERHEAD_BUDGET}x budget"
    );
    eprintln!(
        "wrote {out_path} (metrics overhead {overhead:.3}x, sampled trace {sampling_ratio:.3}x of full)"
    );
}
