//! Emits `BENCH_persist.json`: the cost of durability.
//!
//! Two measurements over the same growing model chain:
//!
//! 1. **Commit throughput** — commits/second into the in-memory
//!    `Repository` versus a journalled one (segment append + fsync,
//!    WAL append + fsync per commit). The ratio is the price of the
//!    write-ahead guarantee.
//! 2. **Recovery time vs journal length** — wall-clock time for
//!    `Repository::open` (full WAL replay + segment-store index
//!    rebuild with per-frame hash verification) as the journal grows.
//!    Replay is linear in the journal, which the sweep makes visible.
//! 3. **Recovery of an apply/undo churn journal** — the same record
//!    counts, half of them `Undo`, over a few repeated contents: the
//!    shape of a serving tenant's journal. Replay moves the head for
//!    each undo and decodes every distinct landed content once; the row
//!    reports that decode count.
//! 4. **A durable commit that re-creates a stored state** — on a
//!    50-class model mutated in place, two steps applied and undone in
//!    turn. Once each has been journalled, its commit takes the stored
//!    segment's hash instead of hashing the snapshot; a chain of steps
//!    of the same size with novel content hashes and appends every
//!    snapshot. Every commit's hash is checked against the FNV-1a of
//!    its snapshot.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_persist_json
//! [output-path]` (default `BENCH_persist.json` in the working
//! directory).

use comet_bench::harness::{median_secs, quartile_secs, quartiles, JsonValue, Report};
use comet_bench::obj;
use comet_model::sample::synthetic;
use comet_model::{Model, UndoLog};
use comet_obs::fnv1a64;
use comet_repo::{RecoveryReport, Repository};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const COMMITS: usize = 200;
const RECOVERY_SWEEP: [usize; 3] = [50, 200, 800];
/// Classes in the churn journal's base model; each applied step adds
/// one more, up to `CHURN_DEPTHS`' maximum.
const CHURN_BASE_CLASSES: usize = 20;
/// The churn journal applies this many steps, then undoes them all, in
/// turn.
const CHURN_DEPTHS: [usize; 3] = [1, 2, 3];
const REPS: (usize, usize) = (1, 5);
/// Classes in the revisit row's model (lifecycle-large's size).
const REVISIT_CLASSES: usize = 50;
/// Timed commits per side of the revisit row.
const REVISIT_COMMITS: usize = 200;

/// A chain of `n` model versions, each adding one class to the last —
/// every commit carries a distinct snapshot, so the segment store's
/// dedupe never short-circuits the write path being measured.
fn version_chain(n: usize) -> Vec<Model> {
    version_chain_from(&Model::new("persist-bench"), n)
}

/// `n` versions over `base`, each adding one class to the last.
fn version_chain_from(base: &Model, n: usize) -> Vec<Model> {
    let mut versions = Vec::with_capacity(n);
    let mut m = base.clone();
    for i in 0..n {
        let root = m.root();
        m.add_class(root, &format!("C{i}")).expect("unique class name");
        versions.push(m.clone());
    }
    versions
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("comet-bench-persist-{}-{tag}", std::process::id()))
}

/// Median `Repository::open` time over the journal in `dir`, and
/// the recovery report of the last open.
fn time_open(dir: &Path) -> (f64, RecoveryReport) {
    let mut last = RecoveryReport::default();
    let secs = median_secs(REPS, || {
        let (repo, report) = Repository::open(black_box(dir)).expect("opens");
        assert!(report.clean(), "bench journal must replay cleanly");
        last = report;
        black_box(repo);
    });
    (secs, last)
}

/// Journals `records` commit/undo records after one base commit: apply
/// `d` steps, then undo all `d`, for `d` cycling over `CHURN_DEPTHS`.
/// Returns the number of `Undo` records written.
fn write_churn_journal(dir: &Path, records: usize) -> usize {
    let mut base = Model::new("persist-bench");
    for i in 0..CHURN_BASE_CLASSES {
        let root = base.root();
        base.add_class(root, &format!("Base{i}")).expect("unique class name");
    }
    let steps = version_chain_from(&base, *CHURN_DEPTHS.iter().max().expect("non-empty"));
    let mut repo = Repository::create(dir, "persist-bench").expect("creates");
    repo.commit(&base, "base", None).expect("commits");
    // `Some(i)` applies step `i`, `None` undoes one step.
    let ops =
        CHURN_DEPTHS.iter().cycle().flat_map(|&d| (0..d).map(Some).chain((0..d).map(|_| None)));
    let mut undos = 0;
    for op in ops.take(records) {
        match op {
            Some(step) => {
                repo.commit(&steps[step], "apply", None).expect("commits");
            }
            None => {
                repo.undo().expect("undoable").expect("decodes");
                undos += 1;
            }
        }
    }
    undos
}

/// Tags the operations of ten classes, from the `first`-th on,
/// `level = value`: one step of about sixty modified operations.
fn tag_step(model: &mut Model, first: usize, value: &str) {
    for class in model.classes().into_iter().skip(first).take(10) {
        for op in model.operations_of(class) {
            model.set_tag(op, "level", value).expect("an operation");
        }
    }
}

/// Runs `step` on `model` in place under a change journal, as the
/// lifecycle does, and commits its delta durably. Returns the commit's
/// seconds and the step's undo log; checks that the commit's hash is
/// the FNV-1a of its snapshot.
fn timed_commit(
    repo: &mut Repository,
    model: &mut Model,
    step: impl FnOnce(&mut Model),
) -> (f64, UndoLog) {
    model.begin_journal();
    model.begin_journal();
    step(model);
    let (delta, _) = model.commit_journal().expect("the step's segment is open");
    let t0 = Instant::now();
    repo.commit_with_delta(model, "step", Some("logging"), delta).expect("commits");
    let secs = t0.elapsed().as_secs_f64();
    let head = repo.head().expect("a head");
    assert_eq!(head.hash, fnv1a64(head.snapshot_xmi().as_bytes()), "commit {}", head.id);
    let (_, log) = model.commit_journal().expect("the outer segment is open");
    (secs, log.expect("the outermost commit hands back the undo log"))
}

/// Median and quartiles of per-commit `[q1, median, q3]` seconds, in
/// microseconds.
fn quartiles_us([q1, p50, q3]: [f64; 3]) -> JsonValue {
    obj! { "p50_us": p50 * 1e6, "q1_us": q1 * 1e6, "q3_us": q3 * 1e6 }
}

/// Per-commit seconds of `REVISIT_COMMITS` durable commits of two
/// steps applied and undone in turn on one in-place model, after one
/// untimed round of each.
fn revisit_commits(dir: &Path, base: &Model) -> Vec<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let mut model = base.clone();
    let mut repo = Repository::create(dir, "persist-bench").expect("creates");
    repo.commit(&model, "base", None).expect("commits");
    let mut secs = Vec::with_capacity(REVISIT_COMMITS);
    for i in 0..REVISIT_COMMITS + 2 {
        let first = if i % 2 == 0 { 0 } else { 10 };
        let (commit_secs, log) =
            timed_commit(&mut repo, &mut model, |m| tag_step(m, first, "debug"));
        repo.undo_head().expect("one step").expect("steps back");
        model.revert(log);
        if i >= 2 {
            secs.push(commit_secs);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    secs
}

/// Per-commit seconds of `REVISIT_COMMITS` durable commits of the same
/// step with a new value each time, one on top of the other: every
/// snapshot is novel content.
fn novel_commits(dir: &Path, base: &Model) -> Vec<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let mut model = base.clone();
    let mut repo = Repository::create(dir, "persist-bench").expect("creates");
    repo.commit(&model, "base", None).expect("commits");
    let secs = (0..REVISIT_COMMITS)
        .map(|i| timed_commit(&mut repo, &mut model, |m| tag_step(m, 0, &format!("v{i}"))).0)
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    secs
}

fn main() {
    let versions = version_chain(COMMITS);

    let memory_secs = median_secs(REPS, || {
        let mut repo = Repository::new("persist-bench");
        for (i, v) in versions.iter().enumerate() {
            black_box(repo.commit(v, &format!("v{i}"), None).expect("commits"));
        }
    });
    let [durable_q1, durable_secs, durable_q3] = quartile_secs(REPS, || {
        let dir = scratch("commit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut repo = Repository::create(&dir, "persist-bench").expect("creates");
        for (i, v) in versions.iter().enumerate() {
            black_box(repo.commit(v, &format!("v{i}"), None).expect("commits"));
        }
    });
    let _ = std::fs::remove_dir_all(scratch("commit"));

    let mut recovery_lines = Vec::new();
    for journal_commits in RECOVERY_SWEEP {
        eprintln!("timing recovery at {journal_commits} journalled commits ...");
        let dir = scratch(&format!("recover-{journal_commits}"));
        let _ = std::fs::remove_dir_all(&dir);
        let chain = version_chain(journal_commits);
        {
            let mut repo = Repository::create(&dir, "persist-bench").expect("creates");
            for (i, v) in chain.iter().enumerate() {
                repo.commit(v, &format!("v{i}"), None).expect("commits");
            }
        }
        let (secs, report) = time_open(&dir);
        recovery_lines.push(obj! {
            "commits": journal_commits,
            "median_secs": secs,
            "replays_per_sec": journal_commits as f64 / secs,
            "snapshots_decoded": report.snapshots_decoded,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut churn_lines = Vec::new();
    for records in RECOVERY_SWEEP {
        eprintln!("timing recovery of a {records}-record apply/undo churn journal ...");
        let dir = scratch(&format!("churn-{records}"));
        let _ = std::fs::remove_dir_all(&dir);
        let undos = write_churn_journal(&dir, records);
        let (secs, report) = time_open(&dir);
        churn_lines.push(obj! {
            "records": records,
            "undos": undos,
            "median_secs": secs,
            "replays_per_sec": records as f64 / secs,
            "snapshots_decoded": report.snapshots_decoded,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    eprintln!("timing durable commits that revisit a stored state ...");
    let base = synthetic(REVISIT_CLASSES, 3, 6);
    let snapshot_bytes = comet_xmi::export_model(&base).len();
    let revisit = quartiles(revisit_commits(&scratch("revisit"), &base));
    let novel = quartiles(novel_commits(&scratch("novel"), &base));

    let out_path = Report::new("pr7_persistence")
        .with(
            "commit_throughput",
            obj! {
                "commits": COMMITS,
                "memory_secs": memory_secs,
                "durable_secs": durable_secs,
                "memory_commits_per_sec": COMMITS as f64 / memory_secs,
                "durable_commits_per_sec": COMMITS as f64 / durable_secs,
                "durable_commits_per_sec_q1": COMMITS as f64 / durable_q3,
                "durable_commits_per_sec_q3": COMMITS as f64 / durable_q1,
                "durable_overhead_x": durable_secs / memory_secs,
            },
        )
        .with(
            "revisit_commit",
            obj! {
                "classes": REVISIT_CLASSES,
                "snapshot_bytes": snapshot_bytes,
                "commits": REVISIT_COMMITS,
                "revisit": quartiles_us(revisit),
                "novel": quartiles_us(novel),
                "novel_over_revisit_x": novel[1] / revisit[1],
            },
        )
        .with("recovery", recovery_lines)
        .with("churn_recovery", churn_lines)
        .write("BENCH_persist.json");
    eprintln!("wrote {out_path} (durable overhead {:.2}x)", durable_secs / memory_secs);
}
