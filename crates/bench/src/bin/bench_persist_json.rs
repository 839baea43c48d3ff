//! Emits `BENCH_persist.json`: the cost of durability.
//!
//! Two measurements over the same growing model chain:
//!
//! 1. **Commit throughput** — commits/second into the in-memory
//!    `Repository` versus the durable backend (segment append + fsync,
//!    WAL append + fsync per commit). The ratio is the price of the
//!    write-ahead guarantee.
//! 2. **Recovery time vs journal length** — wall-clock time for
//!    `DurableRepository::open` (full WAL replay + segment-store index
//!    rebuild with per-frame hash verification) as the journal grows.
//!    Replay is linear in the journal, which the sweep makes visible.
//! 3. **Recovery of an apply/undo churn journal** — the same record
//!    counts, half of them `Undo`, over a few repeated contents: the
//!    shape of a serving tenant's journal. Replay moves the head for
//!    each undo and decodes every distinct landed content once; the row
//!    reports that decode count.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_persist_json
//! [output-path]` (default `BENCH_persist.json` in the working
//! directory).

use comet_model::Model;
use comet_repo::{DurableRepository, RecoveryReport, Repository};
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
const WARMUP: usize = 1;
const SAMPLES: usize = 5;

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

/// Median `DurableRepository::open` time over the journal in `dir`, and
/// the recovery report of the last open.
fn time_open(dir: &Path) -> (f64, RecoveryReport) {
    let mut last = RecoveryReport::default();
    let secs = median_secs(|| {
        let (repo, report) = DurableRepository::open(black_box(dir)).expect("opens");
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
    let mut repo = DurableRepository::create(dir, "persist-bench").expect("creates");
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

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_persist.json".to_owned());
    let versions = version_chain(COMMITS);

    let memory_secs = median_secs(|| {
        let mut repo = Repository::new("persist-bench");
        for (i, v) in versions.iter().enumerate() {
            black_box(repo.commit(v, &format!("v{i}"), None).expect("commits"));
        }
    });
    let durable_secs = median_secs(|| {
        let dir = scratch("commit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut repo = DurableRepository::create(&dir, "persist-bench").expect("creates");
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
            let mut repo = DurableRepository::create(&dir, "persist-bench").expect("creates");
            for (i, v) in chain.iter().enumerate() {
                repo.commit(v, &format!("v{i}"), None).expect("commits");
            }
        }
        let (secs, report) = time_open(&dir);
        recovery_lines.push(format!(
            "    {{\"commits\": {journal_commits}, \"median_secs\": {secs:.6}, \
             \"replays_per_sec\": {:.1}, \"snapshots_decoded\": {}}}",
            journal_commits as f64 / secs,
            report.snapshots_decoded,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut churn_lines = Vec::new();
    for records in RECOVERY_SWEEP {
        eprintln!("timing recovery of a {records}-record apply/undo churn journal ...");
        let dir = scratch(&format!("churn-{records}"));
        let _ = std::fs::remove_dir_all(&dir);
        let undos = write_churn_journal(&dir, records);
        let (secs, report) = time_open(&dir);
        churn_lines.push(format!(
            "    {{\"records\": {records}, \"undos\": {undos}, \"median_secs\": {secs:.6}, \
             \"replays_per_sec\": {:.1}, \"snapshots_decoded\": {}}}",
            records as f64 / secs,
            report.snapshots_decoded,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"experiment\": \"pr7_persistence\",\n  \"host_cores\": {cores},\n  \
         \"commit_throughput\": {{\"commits\": {COMMITS}, \"memory_secs\": {memory_secs:.6}, \
         \"durable_secs\": {durable_secs:.6}, \
         \"memory_commits_per_sec\": {:.1}, \"durable_commits_per_sec\": {:.1}, \
         \"durable_overhead_x\": {:.3}}},\n  \"recovery\": [\n{}\n  ],\n  \
         \"churn_recovery\": [\n{}\n  ]\n}}\n",
        COMMITS as f64 / memory_secs,
        COMMITS as f64 / durable_secs,
        durable_secs / memory_secs,
        recovery_lines.join(",\n"),
        churn_lines.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("writable output path");
    println!("{json}");
    eprintln!("wrote {out_path} (durable overhead {:.2}x)", durable_secs / memory_secs);
}
