//! Emits `BENCH_serve.json`: the shard-scaling sweep of the
//! multi-tenant serving core.
//!
//! One fixed apply-heavy workload (every tenant walks the full
//! refinement workflow, generates code, and answers queries) runs on a
//! pool of one thread per host core. The `ServeReport` must stay
//! byte-identical at 1, 2, 4 and 8 shards, which the sweep asserts
//! before timing anything; the timed sweep then stops at the host's
//! core count, since shards beyond it share cores and add no
//! parallelism, so a "speedup" there would only measure scheduling.
//! `speedup_4_shards` is `null` on hosts with fewer than 4 cores.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_serve_json
//! [output-path]` (default `BENCH_serve.json` in the working
//! directory).

use comet::run_banking_serve;
use comet_bench::harness::{host_cores, median_secs, Report};
use comet_bench::obj;
use comet_serve::{RunConfig, WorkloadPlan};
use std::hint::black_box;

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const REPS: (usize, usize) = (1, 5);

/// The sweep workload: enough tenants to spread over 8 shards, an
/// apply/generate-heavy mix so each request does real lifecycle work.
fn sweep_plan() -> WorkloadPlan {
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
    let plan = sweep_plan();
    let threads = host_cores();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
    let serve = |shards| {
        pool.install(|| run_banking_serve(&plan, shards, None, &RunConfig::default()))
            .expect("valid plan")
    };

    // Determinism gate: the report must not depend on the shard count.
    let baseline = serve(1).report;
    for shards in SHARDS {
        assert_eq!(baseline, serve(shards).report, "report diverged at {shards} shards");
    }

    let mut medians = Vec::new();
    for shards in SHARDS.into_iter().filter(|&shards| shards <= threads) {
        eprintln!("timing serve at {shards} shard(s) ...");
        medians.push((shards, median_secs(REPS, || drop(black_box(serve(black_box(shards)))))));
    }

    let one_shard = medians[0].1;
    let speedup_4 = medians.iter().find(|(shards, _)| *shards == 4).map(|(_, s)| one_shard / s);
    let sweep = medians
        .iter()
        .map(|&(shards, secs)| {
            obj! {"shards": shards, "median_secs": secs, "speedup_vs_1": one_shard / secs}
        })
        .collect::<Vec<_>>();
    let out_path = Report::new("pr5_serve_shard_sweep")
        .with(
            "workload",
            obj! {
                "tenants": plan.tenants,
                "clients": plan.clients,
                "requests_per_client": plan.requests,
                "seed": plan.seed,
                "threads": threads,
            },
        )
        .with(
            "report",
            obj! {
                "issued": baseline.issued,
                "completed": baseline.completed,
                "ok": baseline.ok,
                "p50_us": baseline.p50_us,
                "p99_us": baseline.p99_us,
            },
        )
        .with("sweep", sweep)
        .with("speedup_4_shards", speedup_4)
        .write("BENCH_serve.json");
    eprintln!("wrote {out_path} (1→4 shard speedup {speedup_4:?})");
}
