//! Emits `BENCH_codegen.json`: the generator-factory numbers.
//!
//! Workload: the E10 100-class / 6-method program woven with 8 aspects,
//! paired with a 100-class synthetic model. For every registered
//! backend the bench times (a) the **cold** path — a fresh [`GenCache`]
//! rendering the artifact; the content hash is supplied, as the
//! lifecycle takes it from the repository commit its model equals —
//! and (b) the **hit** path — the same render repeated at unchanged
//! content, which the content-addressed entry turns into one map
//! lookup plus an artifact clone. Hits are asserted byte-identical to
//! their cold renders before anything is timed, and the run gates on
//! `hit ≥ 50× cold` for every backend.
//!
//! One row measures the whole lifecycle: `MdaLifecycle::generate`
//! (java-functional) on a 100-class synthetic model refined by every
//! standard concern, its cold first call against a repeat at the
//! unchanged state, which reuses the state's functional program,
//! sources and weave and pays only the artifact lookup. The repeat is
//! asserted equal to the cold call, and gated at the same 50×.
//!
//! A serve steady-state sweep then runs a backend-weighted `Generate`
//! mix over the banking engine and asserts the report and trace stay
//! byte-identical across shard counts with `gen.cache.hit` live in the
//! trace counters.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_codegen_json
//! [output-path]` (default `BENCH_codegen.json` in the working
//! directory).

use comet::{run_banking_serve, MdaLifecycle};
use comet_aop::Weaver;
use comet_bench::{weaver_aspects, weaver_program};
use comet_codegen::BodyProvider;
use comet_gen::{Backend, GenCache, GenInput, GeneratorFactory};
use comet_serve::WorkloadPlan;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::hint::black_box;
use std::time::Instant;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const ASPECTS: usize = 8;
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

/// The lifecycle row's concern bindings on `synthetic(CLASSES, 2,
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

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_codegen.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = comet_model::sample::synthetic(CLASSES, 2, METHODS);
    let content_hash = comet_obs::fnv1a64(comet_xmi::export_model(&model).as_bytes());
    let bodies = BodyProvider::default();
    let functional = weaver_program(CLASSES, METHODS);
    let woven = Weaver::new(weaver_aspects(ASPECTS)).weave(&functional).expect("weaves").program;
    let concerns: Vec<String> =
        ["distribution", "transactions", "security"].map(str::to_owned).to_vec();
    // Stands in for the lifecycle's steps fingerprint (concerns + `Si`).
    let steps = comet_obs::fnv1a64(concerns.join("\0").as_bytes());
    let input = GenInput {
        model: &model,
        functional: &functional,
        woven: &woven,
        concerns: &concerns,
        bodies: &bodies,
    };
    let factory = GeneratorFactory::with_standard_backends();

    let mut backend_rows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for backend in Backend::ALL {
        let generator = factory.get(backend).expect("standard backend registered");

        // Sanity: the hit is byte-identical to the cold render.
        let mut probe = GenCache::new();
        let (cold_artifact, miss) = probe.render(generator, &input, content_hash, steps);
        assert!(!miss, "fresh cache must miss");
        let (warm_artifact, hit) = probe.render(generator, &input, content_hash, steps);
        assert!(hit, "repeat render must hit");
        assert_eq!(cold_artifact, warm_artifact, "{backend}: hit diverged from cold render");

        eprintln!("timing {backend} cold render ...");
        let cold = median_secs(|| {
            let mut cache = GenCache::new();
            let (artifact, was_hit) =
                cache.render(generator, black_box(&input), content_hash, steps);
            assert!(!was_hit);
            black_box(artifact);
        });

        eprintln!("timing {backend} cache hit ...");
        let mut cache = GenCache::new();
        cache.render(generator, &input, content_hash, steps);
        let hit = median_secs(|| {
            let (artifact, was_hit) =
                cache.render(generator, black_box(&input), content_hash, steps);
            assert!(was_hit);
            black_box(artifact);
        });

        let ratio = cold / hit;
        worst_ratio = worst_ratio.min(ratio);
        eprintln!("  {backend}: cold {cold:.6}s, hit {hit:.6}s, ratio {ratio:.1}x");
        backend_rows.push(format!(
            "    {{\"backend\": \"{backend}\", \"artifact_bytes\": {}, \"cold_median_secs\": \
             {cold:.6}, \"hit_median_secs\": {hit:.6}, \"hit_speedup\": {ratio:.3}}}",
            cold_artifact.len()
        ));
    }

    // Lifecycle row: the cold first generate of a refined lifecycle
    // (each sample on a fresh one, built untimed) against a repeat at
    // the unchanged state.
    let lifecycle_aspects = lifecycle_bindings().len();
    let lifecycle_bodies = BodyProvider::default();
    let generate = |mda: &MdaLifecycle| {
        mda.generate(&lifecycle_bodies, Backend::JavaFunctional).expect("weaves")
    };
    let warm = refined_lifecycle();
    let first = generate(&warm);
    let again = generate(&warm);
    assert_eq!(first.artifact, again.artifact, "lifecycle repeat diverged from the cold call");
    assert_eq!(first.woven(), again.woven());
    assert_eq!(first.functional_source, again.functional_source);
    assert_eq!(first.aspect_sources, again.aspect_sources);
    assert_eq!(warm.gen_cache_stats(), (1, 1));
    assert_eq!(warm.weave_cache_stats(), (1, 1));
    eprintln!("timing lifecycle cold first generate ...");
    let mut fresh: Vec<MdaLifecycle> = (0..WARMUP + SAMPLES).map(|_| refined_lifecycle()).collect();
    let lifecycle_cold = median_secs(|| {
        let mda = fresh.pop().expect("one fresh lifecycle per run");
        black_box(generate(black_box(&mda)));
    });
    eprintln!("timing lifecycle generate at an unchanged state ...");
    let lifecycle_hit = median_secs(|| {
        black_box(generate(black_box(&warm)));
    });
    let lifecycle_ratio = lifecycle_cold / lifecycle_hit;
    eprintln!(
        "  lifecycle: cold {lifecycle_cold:.6}s, hit {lifecycle_hit:.6}s, ratio \
         {lifecycle_ratio:.1}x"
    );

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
         \"workload\": {{\"classes\": {CLASSES}, \"methods_per_class\": {METHODS}, \
         \"aspects\": {ASPECTS}}},\n  \"backends\": [\n{}\n  ],\n  \"worst_hit_speedup\": \
         {worst_ratio:.3},\n  \"lifecycle_generate\": {{\"backend\": \"java-functional\", \
         \"classes\": {CLASSES}, \"concern_aspects\": {lifecycle_aspects}, \
         \"cold_median_secs\": {lifecycle_cold:.6}, \"hit_median_secs\": {lifecycle_hit:.6}, \
         \"hit_speedup\": {lifecycle_ratio:.3}}},\n  \"serve_steady_state\": \
         {{\n    \"plan\": \"WorkloadPlan(7), generate weight 2.0, all backends weighted \
         1.0\",\n    \
         \"gen_cache_counters\": {{\"hit\": {gen_hits}, \"miss\": {gen_misses}}},\n    \
         \"report_identical_across_shards\": true,\n    \"shard_sweep\": [\n{}\n    ]\n  }}\n}}\n",
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
    assert!(
        lifecycle_ratio >= HIT_GATE,
        "lifecycle generate speedup {lifecycle_ratio:.1}x below the {HIT_GATE}x target"
    );
}
