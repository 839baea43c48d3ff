//! E6: repository facilities versus model size — snapshot/commit,
//! undo/redo, structural diff, and the colors report.

use comet_bench::synthetic;
use comet_model::{Model, ModelDelta};
use comet_repo::{ColorReport, Repository};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn variant(model: &Model) -> Model {
    let mut v = model.clone();
    let root = v.root();
    let extra = v.add_class(root, "ExtraClass").expect("unique");
    v.mark_concern(extra, "distribution").expect("exists");
    let c0 = v.find_class("C0").expect("synthetic class");
    v.apply_stereotype(c0, "Remote").expect("exists");
    v
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_repository");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    for classes in [10usize, 50, 200] {
        let model = synthetic(classes, 3, 3);
        let modified = variant(&model);

        group.bench_with_input(BenchmarkId::new("commit", classes), &model, |b, model| {
            b.iter(|| {
                let mut repo = Repository::new("bench");
                repo.commit(black_box(model), "v1", None).expect("commits")
            });
        });

        group.bench_with_input(
            BenchmarkId::new("undo_redo_cycle", classes),
            &(model.clone(), modified.clone()),
            |b, (m1, m2)| {
                let mut repo = Repository::new("bench");
                repo.commit(m1, "v1", None).expect("commits");
                repo.commit(m2, "v2", Some("distribution")).expect("commits");
                b.iter(|| {
                    repo.undo().expect("undoable").expect("decodes");
                    repo.redo().expect("redoable").expect("decodes")
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("diff", classes),
            &(model.clone(), modified.clone()),
            |b, (m1, m2)| b.iter(|| ModelDelta::between(black_box(m1), black_box(m2))),
        );

        group.bench_with_input(BenchmarkId::new("colors_report", classes), &modified, |b, m| {
            b.iter(|| ColorReport::for_model(black_box(m)))
        });

        // Indexed versus full-scan model queries: a transformation-like
        // access pattern (per-class feature walks + ancestor closures +
        // stereotype lookups) on a warm index versus the naive scans.
        group.bench_with_input(BenchmarkId::new("queries_scan", classes), &modified, |b, m| {
            b.iter(|| {
                let mut touched = 0usize;
                for c in m.classes_scan() {
                    touched += m.operations_of_scan(c).len();
                    touched += m.attributes_of_scan(c).len();
                    touched += m.ancestors_of_scan(c).len();
                }
                touched += m.stereotyped_scan("Remote").len();
                black_box(touched)
            });
        });
        group.bench_with_input(BenchmarkId::new("queries_indexed", classes), &modified, |b, m| {
            b.iter(|| {
                let mut touched = 0usize;
                for c in m.classes() {
                    touched += m.operations_of(c).len();
                    touched += m.attributes_of(c).len();
                    touched += m.ancestors_of(c).len();
                }
                touched += m.stereotyped("Remote").len();
                black_box(touched)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
