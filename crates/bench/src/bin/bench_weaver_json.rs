//! Emits `BENCH_weaver.json`: machine-readable before/after numbers for
//! the weaver pipeline on the E10 100-class / 8-aspect workload —
//! "before" is the retained sequential full-scan weaver
//! (`Weaver::weave_naive`), "after" the per-class match-table parallel
//! weaver (`Weaver::weave`) — plus a worker-thread sweep.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_weaver_json
//! [output-path]` (default `BENCH_weaver.json` in the working
//! directory).

use comet_aop::Weaver;
use comet_bench::{synthetic, weaver_aspects, weaver_program};
use comet_model::Model;
use std::hint::black_box;
use std::time::Instant;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const ASPECTS: usize = 8;
const QUERY_CLASSES: usize = 200;
const WARMUP: usize = 2;
const SAMPLES: usize = 9;

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

/// The e6 `queries_*` access pattern: per-class feature walks, ancestor
/// closures, and a stereotype lookup over a synthetic model.
fn query_walk_scan(m: &Model) -> usize {
    let mut touched = 0usize;
    for c in m.classes_scan() {
        touched += m.operations_of_scan(c).len();
        touched += m.attributes_of_scan(c).len();
        touched += m.ancestors_of_scan(c).len();
    }
    touched + m.stereotyped_scan("Remote").len()
}

fn query_walk_indexed(m: &Model) -> usize {
    let mut touched = 0usize;
    for c in m.classes() {
        touched += m.operations_of(c).len();
        touched += m.attributes_of(c).len();
        touched += m.ancestors_of(c).len();
    }
    touched + m.stereotyped("Remote").len()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_weaver.json".to_owned());
    let program = weaver_program(CLASSES, METHODS);
    let weaver = Weaver::new(weaver_aspects(ASPECTS));

    // Sanity: both paths agree before we time anything.
    let a = weaver.weave(&program).expect("weaves");
    let b = weaver.weave_naive(&program).expect("weaves");
    assert_eq!(a.program, b.program, "indexed and naive weaves diverged");
    assert_eq!(a.trace, b.trace, "indexed and naive traces diverged");
    let shadows = a.trace.len();

    eprintln!("timing naive (before) ...");
    let before = median_secs(|| {
        black_box(weaver.weave_naive(black_box(&program)).expect("weaves"));
    });
    eprintln!("timing indexed (after) ...");
    let after = median_secs(|| {
        black_box(weaver.weave(black_box(&program)).expect("weaves"));
    });

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut sweep_entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > cores * 2 {
            break;
        }
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        eprintln!("timing indexed with {threads} thread(s) ...");
        let t = median_secs(|| {
            pool.install(|| black_box(weaver.weave(black_box(&program)).expect("weaves")));
        });
        sweep_entries.push(format!(
            "    {{\"threads\": {threads}, \"median_secs\": {t:.6}, \"speedup_vs_before\": {:.3}}}",
            before / t
        ));
    }

    // The e6 repository-query comparison: scan twins versus the
    // ModelIndex-backed queries on a synthetic 200-class model.
    let mut model = synthetic(QUERY_CLASSES, 3, 3);
    let c0 = model.find_class("C0").expect("synthetic class");
    model.apply_stereotype(c0, "Remote").expect("exists");
    assert_eq!(
        query_walk_scan(&model),
        query_walk_indexed(&model),
        "indexed and scan queries diverged"
    );
    eprintln!("timing query scans (before) ...");
    let q_before = median_secs(|| {
        black_box(query_walk_scan(black_box(&model)));
    });
    eprintln!("timing indexed queries (after) ...");
    model.classes(); // warm the index; the timed loop measures steady-state reads
    let q_after = median_secs(|| {
        black_box(query_walk_indexed(black_box(&model)));
    });

    let json = format!(
        "{{\n  \"experiment\": \"e10_weaver_pipeline\",\n  \"workload\": {{\"classes\": {CLASSES}, \"methods_per_class\": {METHODS}, \"aspects\": {ASPECTS}, \"advice_applications\": {shadows}}},\n  \"host_cores\": {cores},\n  \"before\": {{\"impl\": \"weave_naive (sequential full-scan)\", \"median_secs\": {before:.6}}},\n  \"after\": {{\"impl\": \"weave (per-class match tables + per-class parallel)\", \"median_secs\": {after:.6}}},\n  \"speedup\": {:.3},\n  \"thread_sweep\": [\n{}\n  ],\n  \"repository_queries\": {{\n    \"workload\": {{\"classes\": {QUERY_CLASSES}, \"pattern\": \"e6 queries: feature walks + ancestor closures + stereotype lookup\"}},\n    \"before\": {{\"impl\": \"full-scan `_scan` queries\", \"median_secs\": {q_before:.6}}},\n    \"after\": {{\"impl\": \"ModelIndex-backed queries (warm)\", \"median_secs\": {q_after:.6}}},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        before / after,
        sweep_entries.join(",\n"),
        q_before / q_after,
    );
    std::fs::write(&out_path, &json).expect("writable output path");
    println!("{json}");
    eprintln!("wrote {out_path} (speedup {:.2}x)", before / after);
}
