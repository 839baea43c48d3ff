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
//! Usage: `cargo run --release -p comet-bench --bin bench_codegen_json
//! [output-path]` (default `BENCH_codegen.json` in the working
//! directory).

use comet::{run_banking_serve, MdaLifecycle};
use comet_bench::harness::{median_secs, median_secs_after, Report};
use comet_bench::obj;
use comet_codegen::BodyProvider;
use comet_gen::Backend;
use comet_serve::{RunConfig, WorkloadPlan};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::hint::black_box;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const REPS: (usize, usize) = (2, 9);
const SHARDS: [usize; 3] = [1, 2, 4];
const HIT_GATE: f64 = 50.0;

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

fn main() {
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
        // One fresh lifecycle per run, built untimed; the last run's
        // lifecycle is dropped by the next, untimed, setup.
        let cold = median_secs_after(
            REPS,
            &mut None,
            |spent| {
                spent.take();
                refined_lifecycle()
            },
            |spent, mda| {
                black_box(generate(black_box(&mda)));
                assert_eq!(mda.gen_cache_stats(), (0, 1));
                *spent = Some(mda);
            },
        );

        eprintln!("timing {backend} generate at an unchanged state ...");
        let hit = median_secs(REPS, || {
            let (hits, _) = warm.gen_cache_stats();
            black_box(generate(black_box(&warm)));
            assert_eq!(warm.gen_cache_stats().0, hits + 1);
        });

        let ratio = cold / hit;
        worst_ratio = worst_ratio.min(ratio);
        eprintln!("  {backend}: cold {cold:.6}s, hit {hit:.6}s, ratio {ratio:.1}x");
        backend_rows.push(obj! {
            "backend": backend.id(),
            "artifact_bytes": first.artifact.len(),
            "cold_median_secs": cold,
            "hit_median_secs": hit,
            "hit_speedup": ratio,
        });
    }

    // Serve steady-state sweep: backend-weighted Generate traffic,
    // reports byte-identical across shard counts, gen cache observable.
    let mut plan = WorkloadPlan::new(7);
    plan.mix.generate = 2.0;
    plan.mix.generate_backends = Backend::ALL.iter().map(|b| (b.id().to_owned(), 1.0)).collect();
    let traced = RunConfig { traced: true, metrics: false };
    let baseline = run_banking_serve(&plan, SHARDS[0], None, &traced).expect("valid plan");
    for shards in SHARDS {
        let outcome = run_banking_serve(&plan, shards, None, &traced).expect("valid plan");
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
        let secs = median_secs(REPS, || {
            let cfg = RunConfig::default();
            black_box(run_banking_serve(black_box(&plan), shards, None, &cfg).expect("valid"));
        });
        serve_medians.push(obj! {"shards": shards, "median_secs": secs});
    }

    let out_path = Report::new("e14_codegen_backends")
        .with(
            "workload",
            obj! {"classes": CLASSES, "methods_per_class": METHODS, "concern_aspects": aspects},
        )
        .with("backends", backend_rows)
        .with("worst_hit_speedup", worst_ratio)
        .with(
            "serve_steady_state",
            obj! {
                "plan": "WorkloadPlan(7), generate weight 2.0, all backends weighted 1.0",
                "gen_cache_counters": obj! {"hit": gen_hits, "miss": gen_misses},
                "report_identical_across_shards": true,
                "shard_sweep": serve_medians,
            },
        )
        .write("BENCH_codegen.json");
    eprintln!("wrote {out_path} (worst hit speedup {worst_ratio:.1}x)");
    assert!(
        worst_ratio >= HIT_GATE,
        "cache-hit speedup {worst_ratio:.1}x below the {HIT_GATE}x target"
    );
}
