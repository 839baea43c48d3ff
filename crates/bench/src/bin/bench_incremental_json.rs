//! Emits `BENCH_incremental.json`: the dirty-set re-weave numbers.
//!
//! Workload: the E10 100-class / 8-aspect program. "Before" is a full
//! [`Weaver::weave`] after a one-element edit (one statement appended
//! to one method of one class); "after" is
//! [`IncrementalWeaver::weave_at`] re-weaving only the dirty class and
//! splicing the other 99 from cache. Both paths are asserted
//! byte-identical before anything is timed. A serve steady-state sweep
//! then runs the default multi-tenant workload with tracing and reports
//! the `weave.incremental.*` counters, asserting the report stays
//! byte-identical across shard counts with the cache on the hot path.
//!
//! Usage: `cargo run --release -p comet-bench --bin
//! bench_incremental_json [output-path]` (default
//! `BENCH_incremental.json` in the working directory).

use comet::run_banking_serve;
use comet_aop::{IncrementalWeaver, Weaver};
use comet_bench::{weaver_aspects, weaver_program};
use comet_codegen::{Expr, Program, Stmt};
use comet_obs::Collector;
use comet_serve::WorkloadPlan;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const ASPECTS: usize = 8;
const WARMUP: usize = 2;
const SAMPLES: usize = 9;
const SHARDS: [usize; 3] = [1, 2, 4];

/// Median wall-clock seconds of `SAMPLES` runs (after `WARMUP` runs).
fn median_secs(mut run: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        run();
    }
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// The one-element edit: one extra statement in `C0.m0`.
fn edited(base: &Program) -> Program {
    let mut p = base.clone();
    p.classes[0].methods[0]
        .body
        .stmts
        .push(Stmt::Expr(Expr::intrinsic("log.emit", vec![Expr::str("info"), Expr::str("edit")])));
    p
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_incremental.json".to_owned());
    let base = weaver_program(CLASSES, METHODS);
    let edit = edited(&base);
    let weaver = Weaver::new(weaver_aspects(ASPECTS));
    let dirty: BTreeSet<String> = [base.classes[0].name.clone()].into();
    let off = Collector::disabled();

    // Sanity: the spliced result is byte-identical to the full weave,
    // and the dirty set really confines the re-weave to one class.
    let oracle = weaver.weave(&edit).expect("weaves");
    let mut iw = IncrementalWeaver::new(weaver.clone());
    iw.weave_at(0, &base, None, &off).expect("weaves");
    let (got, stats) = iw.weave_at(1, &edit, Some(&dirty), &off).expect("weaves");
    assert_eq!(got.program, oracle.program, "incremental weave diverged");
    assert_eq!(got.trace, oracle.trace, "incremental trace diverged");
    assert!(stats.hit, "edit re-weave missed the cache");
    assert_eq!(stats.rewoven, 1, "one-element edit re-wove {} classes", stats.rewoven);

    eprintln!("timing full re-weave after 1-element edit (before) ...");
    let before = median_secs(|| {
        black_box(weaver.weave(black_box(&edit)).expect("weaves"));
    });

    // Steady-state incremental re-weave: alternate between the two
    // program versions so every timed call re-weaves exactly the one
    // dirty class and splices the other 99 from the previous result.
    eprintln!("timing incremental re-weave of the dirty class (after) ...");
    let mut iw = IncrementalWeaver::new(weaver.clone());
    iw.weave_at(0, &base, None, &off).expect("weaves");
    let mut revision = 0u64;
    let after = median_secs(|| {
        revision += 1;
        let program = if revision.is_multiple_of(2) { &base } else { &edit };
        let (_, stats) = black_box(
            iw.weave_at(revision, black_box(program), Some(&dirty), &off).expect("weaves"),
        );
        assert_eq!(stats.rewoven, 1);
    });
    let speedup = before / after;

    // Full-hit path: repeat at an unchanged revision (the serve
    // steady-state case — `Generate` with no model change in between).
    // Prime once so the cache holds `base` at the probed revision.
    eprintln!("timing unchanged-revision full hit ...");
    revision += 1;
    iw.weave_at(revision, &base, Some(&dirty), &off).expect("weaves");
    let hit = median_secs(|| {
        let (_, stats) =
            black_box(iw.weave_at(revision, black_box(&base), Some(&dirty), &off).expect("weaves"));
        assert_eq!(stats.rewoven, 0);
    });

    // Serve steady-state sweep: default workload, traced, cache on the
    // hot path. Reports must stay byte-identical across shard counts.
    let plan = WorkloadPlan::new(7);
    let baseline = run_banking_serve(&plan, SHARDS[0], None, true).expect("valid plan");
    for shards in SHARDS {
        let outcome = run_banking_serve(&plan, shards, None, true).expect("valid plan");
        assert_eq!(baseline.report, outcome.report, "report diverged at {shards} shards");
        assert_eq!(baseline.trace, outcome.trace, "trace diverged at {shards} shards");
    }
    let counters = baseline.trace.as_ref().expect("traced run").counters.clone();
    let hits = counters.get("weave.incremental.hit").copied().unwrap_or(0);
    let misses = counters.get("weave.incremental.miss").copied().unwrap_or(0);
    let rewoven = counters.get("weave.incremental.rewoven").copied().unwrap_or(0);
    let total = counters.get("weave.incremental.total").copied().unwrap_or(0);
    assert!(hits > 0, "serve steady state produced no weave cache hits");

    let mut serve_medians = Vec::new();
    for shards in SHARDS {
        eprintln!("timing serve steady state at {shards} shard(s) ...");
        let secs = median_secs(|| {
            black_box(run_banking_serve(black_box(&plan), shards, None, false).expect("valid"));
        });
        serve_medians.push(format!("    {{\"shards\": {shards}, \"median_secs\": {secs:.6}}}"));
    }

    let json = format!(
        "{{\n  \"experiment\": \"e13_incremental_reweave\",\n  \"workload\": {{\"classes\": {CLASSES}, \"methods_per_class\": {METHODS}, \"aspects\": {ASPECTS}, \"edit\": \"one statement appended to one method\"}},\n  \"before\": {{\"impl\": \"full weave after 1-element edit\", \"median_secs\": {before:.6}}},\n  \"after\": {{\"impl\": \"incremental re-weave (1 dirty class of {CLASSES})\", \"median_secs\": {after:.6}}},\n  \"speedup\": {speedup:.3},\n  \"full_hit\": {{\"impl\": \"unchanged revision, cached result returned\", \"median_secs\": {hit:.6}, \"speedup_vs_before\": {:.3}}},\n  \"serve_steady_state\": {{\n    \"plan\": \"default WorkloadPlan(7)\",\n    \"weave_counters\": {{\"hit\": {hits}, \"miss\": {misses}, \"rewoven\": {rewoven}, \"total\": {total}}},\n    \"report_identical_across_shards\": true,\n    \"shard_sweep\": [\n{}\n    ]\n  }}\n}}\n",
        before / hit,
        serve_medians.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("writable output path");
    println!("{json}");
    eprintln!("wrote {out_path} (speedup {speedup:.2}x)");
    assert!(speedup >= 5.0, "incremental re-weave speedup {speedup:.2}x below the 5x target");
}
