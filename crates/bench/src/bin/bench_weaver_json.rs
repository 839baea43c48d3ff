//! Emits `BENCH_weaver.json`: machine-readable before/after numbers for
//! the weaver pipeline on the E10 100-class / 8-aspect workload —
//! "before" is the retained sequential full-scan weaver
//! (`Weaver::weave_naive`), "after" the per-class match-table parallel
//! weaver (`Weaver::weave`) — plus a worker-thread sweep, E10's scaling
//! rows (weave time against join-point shadows and against aspects, and
//! one pointcut match), and the E6 repository-query comparison.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_weaver_json
//! [output-path]` (default `BENCH_weaver.json` in the working
//! directory).

use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect, Weaver};
use comet_bench::harness::{host_cores, median_secs, Report};
use comet_bench::{obj, synthetic, weaver_aspects, weaver_program};
use comet_codegen::{Block, ClassDecl, Expr, IrType, MethodDecl, Param, Program, Stmt};
use comet_model::Model;
use std::hint::black_box;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const ASPECTS: usize = 8;
const QUERY_CLASSES: usize = 200;
const REPS: (usize, usize) = (2, 9);
/// Join-point shadows of the shadow-scaling rows (4 methods a class).
const SHADOWS: [usize; 3] = [40, 160, 640];
/// Aspects of the aspect-scaling rows, over 10 classes of 4 methods.
const ASPECT_COUNTS: [usize; 3] = [1, 4, 16];
/// Pointcut matches per timed sample: one match takes nanoseconds.
const MATCHES: u32 = 100_000;

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

/// The scaling rows' program: `classes` classes of `methods` one-line
/// methods, so weave time is dominated by the shadow count.
fn scaling_program(classes: usize, methods: usize) -> Program {
    let mut p = Program::new("scale");
    for c in 0..classes {
        let mut class = ClassDecl::new(format!("C{c}"));
        for m in 0..methods {
            let mut method = MethodDecl::new(format!("m{m}"));
            method.params.push(Param::new("x", IrType::Int));
            method.ret = IrType::Int;
            method.body = Block::of(vec![Stmt::ret(Expr::var("x"))]);
            class.methods.push(method);
        }
        p.classes.push(class);
    }
    p
}

/// `n` aspects of one universal before-execution logging advice.
fn scaling_aspects(n: usize) -> Vec<Aspect> {
    (0..n)
        .map(|i| {
            Aspect::new(format!("a{i}")).with_advice(Advice::new(
                AdviceKind::Before,
                parse_pointcut("execution(*.*)").expect("valid"),
                Block::of(vec![Stmt::Expr(Expr::intrinsic(
                    "log.emit",
                    vec![Expr::str("info"), Expr::var("__jp")],
                ))]),
            ))
        })
        .collect()
}

/// Median seconds of one weave of `program` by `aspects`.
fn weave_secs(aspects: Vec<Aspect>, program: &Program) -> f64 {
    let weaver = Weaver::new(aspects);
    median_secs(REPS, || {
        black_box(weaver.weave(black_box(program)).expect("weaves"));
    })
}

fn main() {
    let program = weaver_program(CLASSES, METHODS);
    let weaver = Weaver::new(weaver_aspects(ASPECTS));

    // Sanity: both paths agree before we time anything.
    let a = weaver.weave(&program).expect("weaves");
    let b = weaver.weave_naive(&program).expect("weaves");
    assert_eq!(a.program, b.program, "indexed and naive weaves diverged");
    assert_eq!(a.trace, b.trace, "indexed and naive traces diverged");
    let shadows = a.trace.len();

    eprintln!("timing naive (before) ...");
    let before = median_secs(REPS, || {
        black_box(weaver.weave_naive(black_box(&program)).expect("weaves"));
    });
    eprintln!("timing indexed (after) ...");
    let after = median_secs(REPS, || {
        black_box(weaver.weave(black_box(&program)).expect("weaves"));
    });

    let cores = host_cores();
    let mut sweep_entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > cores * 2 {
            break;
        }
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        eprintln!("timing indexed with {threads} thread(s) ...");
        let t = median_secs(REPS, || {
            pool.install(|| black_box(weaver.weave(black_box(&program)).expect("weaves")));
        });
        sweep_entries.push(obj! {
            "threads": threads,
            "median_secs": t,
            "speedup_vs_before": before / t,
        });
    }

    eprintln!("timing weave scaling in shadows and in aspects ...");
    let shadow_rows: Vec<_> = SHADOWS
        .into_iter()
        .map(|n| {
            let secs = weave_secs(scaling_aspects(1), &scaling_program(n / 4, 4));
            obj! {"shadows": n, "median_secs": secs}
        })
        .collect();
    let aspect_program = scaling_program(10, 4);
    let aspect_rows: Vec<_> = ASPECT_COUNTS
        .into_iter()
        .map(
            |n| obj! {"aspects": n, "median_secs": weave_secs(scaling_aspects(n), &aspect_program)},
        )
        .collect();
    let pc = parse_pointcut("execution(C*.m*) && !within(Test*) && args(1)").expect("valid");
    let class = ClassDecl::new("C7");
    let mut method = MethodDecl::new("m3");
    method.params.push(Param::new("x", IrType::Int));
    let match_secs = median_secs(REPS, || {
        for _ in 0..MATCHES {
            black_box(pc.matches_execution(black_box(&class), black_box(&method)));
        }
    }) / f64::from(MATCHES);

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
    let q_before = median_secs(REPS, || {
        black_box(query_walk_scan(black_box(&model)));
    });
    eprintln!("timing indexed queries (after) ...");
    model.classes(); // warm the index; the timed loop measures steady-state reads
    let q_after = median_secs(REPS, || {
        black_box(query_walk_indexed(black_box(&model)));
    });

    let out_path = Report::new("e10_weaver_pipeline")
        .with(
            "workload",
            obj! {
                "classes": CLASSES,
                "methods_per_class": METHODS,
                "aspects": ASPECTS,
                "advice_applications": shadows,
            },
        )
        .with("before", obj! {"impl": "weave_naive (sequential full-scan)", "median_secs": before})
        .with(
            "after",
            obj! {
                "impl": "weave (per-class match tables + per-class parallel)",
                "median_secs": after,
            },
        )
        .with("speedup", before / after)
        .with("thread_sweep", sweep_entries)
        .with(
            "scaling",
            obj! {
                "workload": "one-line methods, 4 per class; universal before-execution advice",
                "shadows": shadow_rows,
                "aspects_over_40_shadows": aspect_rows,
                "pointcut_match_secs": match_secs,
            },
        )
        .with(
            "repository_queries",
            obj! {
                "workload": obj! {
                    "classes": QUERY_CLASSES,
                    "pattern": "e6 queries: feature walks + ancestor closures + stereotype lookup",
                },
                "before": obj! {"impl": "full-scan `_scan` queries", "median_secs": q_before},
                "after": obj! {"impl": "ModelIndex-backed queries (warm)", "median_secs": q_after},
                "speedup": q_before / q_after,
            },
        )
        .write("BENCH_weaver.json");
    eprintln!("wrote {out_path} (speedup {:.2}x)", before / after);
}
