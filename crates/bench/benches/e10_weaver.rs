//! E10: weaver scaling — weaving time versus number of join-point
//! shadows (methods) and number of aspects, plus pointcut matching cost,
//! the naive-versus-indexed pipeline comparison, and the thread sweep
//! over the parallel per-class weave.

use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect, Weaver};
use comet_bench::{weaver_aspects, weaver_program};
use comet_codegen::{Block, ClassDecl, Expr, IrType, MethodDecl, Param, Program, Stmt};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn program(classes: usize, methods: usize) -> Program {
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

fn aspects(n: usize) -> Vec<Aspect> {
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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_weaver");
    group.sample_size(15).measurement_time(Duration::from_secs(2));

    // Scaling in join-point shadows (one aspect).
    for shadows in [40usize, 160, 640] {
        let p = program(shadows / 4, 4);
        group.bench_with_input(BenchmarkId::new("shadows", shadows), &p, |b, p| {
            let weaver = Weaver::new(aspects(1));
            b.iter(|| weaver.weave(black_box(p)).expect("weaves"));
        });
    }

    // Scaling in aspects (fixed shadow count).
    let p = program(10, 4);
    for n in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("aspects", n), &p, |b, p| {
            let weaver = Weaver::new(aspects(n));
            b.iter(|| weaver.weave(black_box(p)).expect("weaves"));
        });
    }

    // Pointcut matching alone.
    group.bench_function("pointcut_match", |b| {
        let pc = parse_pointcut("execution(C*.m*) && !within(Test*) && args(1)").expect("valid");
        let class = ClassDecl::new("C7");
        let mut method = MethodDecl::new("m3");
        method.params.push(Param::new("x", IrType::Int));
        b.iter(|| pc.matches_execution(black_box(&class), black_box(&method)));
    });

    // The headline comparison: the 100-class / 8-aspect mixed workload
    // (execution + call advice, method bodies with call shadows) through
    // the naive full-scan weaver versus the per-class match-table one.
    let big = weaver_program(100, 6);
    let weaver = Weaver::new(weaver_aspects(8));
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_with_input(BenchmarkId::new("weave_100x8", "naive"), &big, |b, p| {
        b.iter(|| weaver.weave_naive(black_box(p)).expect("weaves"));
    });
    group.bench_with_input(BenchmarkId::new("weave_100x8", "indexed"), &big, |b, p| {
        b.iter(|| weaver.weave(black_box(p)).expect("weaves"));
    });

    // Thread sweep over the parallel per-class weave: 1..N worker
    // threads pinned via a dedicated rayon pool.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut sweep: Vec<usize> = vec![1, 2, 4, 8];
    sweep.retain(|&t| t <= max_threads.max(1) * 2); // keep oversubscription modest
    for threads in sweep {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        group.bench_with_input(BenchmarkId::new("threads", threads), &big, |b, p| {
            b.iter(|| pool.install(|| weaver.weave(black_box(p)).expect("weaves")));
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
