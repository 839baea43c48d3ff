//! E13: incremental re-weaving — the dirty-set splice versus the full
//! weave on the E10 100-class / 8-aspect workload, across three
//! steady-state shapes: a one-class edit, an unchanged-revision full
//! hit, and the unknown-delta worst case (where the cache cannot help
//! and the splice pays the full weave plus its own bookkeeping — the
//! bound on what a caller risks by reporting `None`).

use comet_aop::{IncrementalWeaver, Weaver};
use comet_bench::{weaver_aspects, weaver_program};
use comet_codegen::{Expr, Program, Stmt};
use comet_obs::Collector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

const CLASSES: usize = 100;
const METHODS: usize = 6;
const ASPECTS: usize = 8;

/// One statement appended to one method of one class.
fn edited(base: &Program) -> Program {
    let mut p = base.clone();
    p.classes[0].methods[0]
        .body
        .stmts
        .push(Stmt::Expr(Expr::intrinsic("log.emit", vec![Expr::str("info"), Expr::str("edit")])));
    p
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_incremental");
    group.sample_size(15).measurement_time(Duration::from_secs(2));

    let base = weaver_program(CLASSES, METHODS);
    let edit = edited(&base);
    let weaver = Weaver::new(weaver_aspects(ASPECTS));
    let dirty: BTreeSet<String> = [base.classes[0].name.clone()].into();
    let off = Collector::disabled();

    group.bench_function("full_weave", |b| {
        b.iter(|| weaver.weave(black_box(&edit)).expect("weaves"));
    });

    group.bench_function("splice_one_dirty_class", |b| {
        let mut iw = IncrementalWeaver::new(weaver.clone());
        iw.weave_at(0, &base, None, &off).expect("weaves");
        let mut revision = 0u64;
        b.iter(|| {
            revision += 1;
            let program = if revision.is_multiple_of(2) { &base } else { &edit };
            black_box(
                iw.weave_at(revision, black_box(program), Some(&dirty), &off).expect("weaves"),
            )
        });
    });

    group.bench_function("unchanged_revision_hit", |b| {
        let mut iw = IncrementalWeaver::new(weaver.clone());
        iw.weave_at(1, &base, Some(&dirty), &off).expect("weaves");
        b.iter(|| black_box(iw.weave_at(1, black_box(&base), Some(&dirty), &off).expect("weaves")));
    });

    group.bench_function("unknown_delta_full_reweave", |b| {
        let mut iw = IncrementalWeaver::new(weaver.clone());
        let mut revision = 0u64;
        b.iter(|| {
            revision += 1;
            black_box(iw.weave_at(revision, black_box(&edit), None, &off).expect("weaves"))
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
