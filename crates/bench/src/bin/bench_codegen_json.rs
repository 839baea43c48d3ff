//! Emits `BENCH_codegen.json`: the generator-factory numbers.
//!
//! Workload: a 100-class / 6-method synthetic model refined by every
//! standard concern, one aspect each. For every registered backend the
//! bench times `MdaLifecycle::generate` (a) **cold** — the first call on
//! a fresh lifecycle, which generates the functional program, weaves,
//! renders the aspects and renders the artifact — and (b) the **hit**
//! path — the same call repeated at the unchanged state, which the
//! lifecycle's generate cache answers with one lookup plus an artifact
//! clone. Hits are asserted equal to their cold calls before anything
//! is timed, and the run gates on `hit ≥ 50× cold` for every backend.
//!
//! A serve steady-state sweep then runs a backend-weighted `Generate`
//! mix over the banking engine and asserts the report and trace stay
//! byte-identical across shard counts with `gen.cache.hit` live in the
//! trace counters.
//!
//! The JSON records the host's cores and the measured revision
//! (`git describe --always --dirty`, `unknown` outside a checkout).
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_codegen_json
//! [output-path]` (default `BENCH_codegen.json` in the working
//! directory).

use comet::{run_banking_serve, MdaLifecycle};
use comet_codegen::BodyProvider;
use comet_gen::Backend;
use comet_serve::WorkloadPlan;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const WARMUP: usize = 2;
const SAMPLES: usize = 9;
const SHARDS: [usize; 3] = [1, 2, 4];
const HIT_GATE: f64 = 50.0;

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

/// The concern bindings on `synthetic(CLASSES, 2,
/// METHODS)`: every standard concern, each on its own classes.
fn lifecycle_bindings() -> Vec<(&'static str, ParamSet)> {
    let ops = |classes: std::ops::Range<usize>| -> ParamValue {
        ParamValue::from(classes.map(|c| format!("C{c}.op{}", c % METHODS)).collect::<Vec<_>>())
    };
    let strings =
        |v: &[&str]| ParamValue::from(v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    vec![
        (
            "distribution",
            ParamSet::new()
                .with("server_class", ParamValue::from("C0"))
                .with("node", ParamValue::from("server"))
                .with("operations", strings(&["op0", "op1", "op2"])),
        ),
        ("transactions", ParamSet::new().with("methods", ops(10..22))),
        (
            "security",
            ParamSet::new().with(
                "protected",
                ParamValue::from(
                    (22..34).map(|c| format!("C{c}.op{}:teller", c % METHODS)).collect::<Vec<_>>(),
                ),
            ),
        ),
        (
            "logging",
            ParamSet::new().with(
                "targets",
                ParamValue::from((34..42).map(|c| format!("C{c}.*")).collect::<Vec<_>>()),
            ),
        ),
        ("concurrency", ParamSet::new().with("methods", ops(42..54))),
        (
            "persistence",
            ParamSet::new()
                .with("class", ParamValue::from("C54"))
                .with("key_attr", ParamValue::from("a0"))
                .with("mutators", strings(&["op1"])),
        ),
        (
            "faulttolerance",
            ParamSet::new().with("methods", ops(60..72)).with("idempotent", ops(60..66)),
        ),
    ]
}

/// A lifecycle on the 100-class synthetic model with every binding of
/// [`lifecycle_bindings`] applied.
fn refined_lifecycle() -> MdaLifecycle {
    let bindings = lifecycle_bindings();
    let workflow =
        bindings.iter().fold(WorkflowModel::new("bench"), |w, (step, _)| w.step(step, false));
    let model = comet_model::sample::synthetic(CLASSES, 2, METHODS);
    let mut mda = MdaLifecycle::new(model, workflow).expect("valid workflow");
    for (concern, si) in bindings {
        let pair = comet_concerns::by_name(concern).expect("standard concern");
        mda.apply_concern(&pair, si).unwrap_or_else(|e| panic!("apply {concern}: {e}"));
    }
    mda
}

/// The measured code's revision: `git describe --always --dirty`, or
/// `unknown` outside a git checkout.
fn revision() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_codegen.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let aspects = lifecycle_bindings().len();
    let bodies = BodyProvider::default();

    let mut backend_rows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for backend in Backend::ALL {
        let generate = |mda: &MdaLifecycle| mda.generate(&bodies, backend).expect("weaves");

        // Sanity: the hit equals the cold call.
        let warm = refined_lifecycle();
        let first = generate(&warm);
        assert_eq!(warm.gen_cache_stats(), (0, 1), "fresh lifecycle must miss");
        let again = generate(&warm);
        assert_eq!(warm.gen_cache_stats(), (1, 1), "repeat generate must hit");
        assert_eq!(warm.weave_cache_stats(), (1, 1));
        assert_eq!(first.artifact, again.artifact, "{backend}: hit diverged from cold call");
        assert_eq!(first.woven(), again.woven());
        assert_eq!(first.functional_source, again.functional_source);
        assert_eq!(first.aspect_sources, again.aspect_sources);

        eprintln!("timing {backend} cold generate ...");
        // One fresh lifecycle per run, built untimed and dropped after.
        let mut fresh: Vec<MdaLifecycle> =
            (0..WARMUP + SAMPLES).map(|_| refined_lifecycle()).collect();
        let mut spent = Vec::with_capacity(fresh.len());
        let cold = median_secs(|| {
            let mda = fresh.pop().expect("one fresh lifecycle per run");
            black_box(generate(black_box(&mda)));
            assert_eq!(mda.gen_cache_stats(), (0, 1));
            spent.push(mda);
        });
        drop(spent);

        eprintln!("timing {backend} generate at an unchanged state ...");
        let hit = median_secs(|| {
            let (hits, _) = warm.gen_cache_stats();
            black_box(generate(black_box(&warm)));
            assert_eq!(warm.gen_cache_stats().0, hits + 1);
        });

        let ratio = cold / hit;
        worst_ratio = worst_ratio.min(ratio);
        eprintln!("  {backend}: cold {cold:.6}s, hit {hit:.6}s, ratio {ratio:.1}x");
        backend_rows.push(format!(
            "    {{\"backend\": \"{backend}\", \"artifact_bytes\": {}, \"cold_median_secs\": \
             {cold:.6}, \"hit_median_secs\": {hit:.6}, \"hit_speedup\": {ratio:.3}}}",
            first.artifact.len()
        ));
    }

    // Serve steady-state sweep: backend-weighted Generate traffic,
    // reports byte-identical across shard counts, gen cache observable.
    let mut plan = WorkloadPlan::new(7);
    plan.mix.generate = 2.0;
    plan.mix.generate_backends = Backend::ALL.iter().map(|b| (b.id().to_owned(), 1.0)).collect();
    let baseline = run_banking_serve(&plan, SHARDS[0], None, true).expect("valid plan");
    for shards in SHARDS {
        let outcome = run_banking_serve(&plan, shards, None, true).expect("valid plan");
        assert_eq!(baseline.report, outcome.report, "report diverged at {shards} shards");
        assert_eq!(baseline.trace, outcome.trace, "trace diverged at {shards} shards");
    }
    let counters = baseline.trace.as_ref().expect("traced run").counters.clone();
    let gen_hits = counters.get("gen.cache.hit").copied().unwrap_or(0);
    let gen_misses = counters.get("gen.cache.miss").copied().unwrap_or(0);
    assert!(gen_misses > 0, "serve sweep never generated");
    assert!(gen_hits > 0, "serve steady state produced no gen cache hits");

    let mut serve_medians = Vec::new();
    for shards in SHARDS {
        eprintln!("timing serve steady state at {shards} shard(s) ...");
        let secs = median_secs(|| {
            black_box(run_banking_serve(black_box(&plan), shards, None, false).expect("valid"));
        });
        serve_medians.push(format!("    {{\"shards\": {shards}, \"median_secs\": {secs:.6}}}"));
    }

    let json = format!(
        "{{\n  \"experiment\": \"e14_codegen_backends\",\n  \"host_cores\": {cores},\n  \
         \"revision\": \"{}\",\n  \"workload\": {{\"classes\": {CLASSES}, \"methods_per_class\": \
         {METHODS}, \"concern_aspects\": {aspects}}},\n  \"backends\": [\n{}\n  ],\n  \
         \"worst_hit_speedup\": {worst_ratio:.3},\n  \"serve_steady_state\": \
         {{\n    \"plan\": \"WorkloadPlan(7), generate weight 2.0, all backends weighted \
         1.0\",\n    \
         \"gen_cache_counters\": {{\"hit\": {gen_hits}, \"miss\": {gen_misses}}},\n    \
         \"report_identical_across_shards\": true,\n    \"shard_sweep\": [\n{}\n    ]\n  }}\n}}\n",
        revision(),
        backend_rows.join(",\n"),
        serve_medians.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("writable output path");
    println!("{json}");
    eprintln!("wrote {out_path} (worst hit speedup {worst_ratio:.1}x)");
    assert!(
        worst_ratio >= HIT_GATE,
        "cache-hit speedup {worst_ratio:.1}x below the {HIT_GATE}x target"
    );
}
