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
//! Each comparison times its two sides in alternating samples, on a
//! pool of one thread per host core, each sample a batch of runs about
//! [`SAMPLE_SECS`] long: a slow phase of a shared host then lands on
//! both sides instead of on whichever side it ran in. Each ratio is the
//! ratio of the two sides' medians; the q1 and q3 of the per-pair
//! ratios beside it show how far one pair can stray.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_metrics_json
//! [output-path]` (default `BENCH_metrics.json` in the working
//! directory).

use comet::run_banking_serve;
use comet_bench::harness::{host_cores, quartiles, Report};
use comet_bench::obj;
use comet_serve::{RunConfig, SampleMode, SloPolicy, WorkloadPlan};
use std::hint::black_box;
use std::time::Instant;

const SHARDS: usize = 4;
/// Alternating sample pairs per comparison, after one untimed pair.
const PAIRS: usize = 9;
/// Wall time one timed sample aims at.
const SAMPLE_SECS: f64 = 0.15;
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
    let threads = host_cores();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");

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

    let run = |plan: &WorkloadPlan, cfg: &RunConfig| {
        black_box(
            pool.install(|| run_banking_serve(black_box(plan), SHARDS, None, cfg))
                .expect("valid plan"),
        );
    };
    let off_cfg = RunConfig { traced: false, metrics: false };
    let on_cfg = RunConfig { traced: false, metrics: true };
    let traced_cfg = RunConfig { traced: true, metrics: false };

    eprintln!("timing metrics off vs on ...");
    let (off, on, [overhead_q1, _, overhead_q3]) =
        alternating(|| run(&plan, &off_cfg), || run(&slo_plan, &on_cfg));
    eprintln!("timing full vs sampled (rate 1/16) trace ...");
    let (traced_full, traced_sampled, [sampling_q1, _, sampling_q3]) =
        alternating(|| run(&plan, &traced_cfg), || run(&sampled_plan, &traced_cfg));

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
                "threads": threads,
            },
        )
        .with("metrics_off_secs", off)
        .with("metrics_on_secs", on)
        .with("metrics_overhead", overhead)
        .with("metrics_overhead_pair_q1", overhead_q1)
        .with("metrics_overhead_pair_q3", overhead_q3)
        .with("overhead_budget", OVERHEAD_BUDGET)
        .with("trace_full_secs", traced_full)
        .with("trace_sampled_secs", traced_sampled)
        .with("sampled_vs_full", sampling_ratio)
        .with("sampled_vs_full_pair_q1", sampling_q1)
        .with("sampled_vs_full_pair_q3", sampling_q3)
        .write("BENCH_metrics.json");
    assert!(
        overhead <= OVERHEAD_BUDGET,
        "metrics overhead {overhead:.4}x exceeds the {OVERHEAD_BUDGET}x budget"
    );
    eprintln!(
        "wrote {out_path} (metrics overhead {overhead:.3}x, sampled trace {sampling_ratio:.3}x of full)"
    );
}

/// Median seconds per run of `a` and of `b`, and the `[q1, median, q3]`
/// of the per-pair ratios `b / a`, from [`PAIRS`] pairs of samples that
/// alternate which side runs first. Each sample runs a batch sized by
/// one untimed run of each side to about [`SAMPLE_SECS`].
fn alternating(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, [f64; 3]) {
    let secs_of = |f: &mut dyn FnMut(), runs: usize| {
        let t0 = Instant::now();
        for _ in 0..runs {
            f();
        }
        t0.elapsed().as_secs_f64() / runs as f64
    };
    let trial = secs_of(&mut a, 1).max(secs_of(&mut b, 1));
    let batch = (SAMPLE_SECS / trial.max(1e-9)).clamp(1.0, 1e4) as usize;
    let (mut a_secs, mut b_secs) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            a_secs.push(secs_of(&mut a, batch));
            b_secs.push(secs_of(&mut b, batch));
        } else {
            b_secs.push(secs_of(&mut b, batch));
            a_secs.push(secs_of(&mut a, batch));
        }
    }
    let ratios = a_secs.iter().zip(&b_secs).map(|(a, b)| b / a).collect();
    (quartiles(a_secs)[1], quartiles(b_secs)[1], quartiles(ratios))
}
