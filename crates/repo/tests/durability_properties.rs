//! Property tests for the durable backend: arbitrary operation
//! sequences survive close → reopen with identical repository state,
//! and a WAL torn at *every* byte boundary recovers to exactly the
//! state after the last complete record (in the zero tail past the
//! last record, a sample of the cuts reopens the repository) — never a panic, never
//! corruption. A churn-biased variant replays long commit/undo/redo
//! runs over a few repeated contents, the journals whose replay decodes
//! each landed content only once.

use comet_model::{Model, ModelDelta};
use comet_repo::{Repository, Wal};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(label: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("comet-durprop-{}-{label}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Full-state fingerprint: `Repository` is a plain data structure whose
/// `Debug` output covers every field (BTreeMaps print in key order), so
/// equal fingerprints mean equal state including snapshots and hashes.
fn fingerprint(repo: &Repository) -> String {
    format!("{repo:?}")
}

/// Drives one opcode against the durable repository and the working
/// model; returns `true` when the op journaled a WAL record.
fn drive(dur: &mut Repository, model: &mut Model, op: u8, i: usize) -> bool {
    match op % 8 {
        0 | 1 => {
            let root = model.root();
            model.add_class(root, &format!("C{i}")).expect("unique class name");
            dur.commit(model, &format!("v{i}"), Some("distribution")).expect("commit");
            true
        }
        2 => {
            // Honest empty delta: re-commit the head content unchanged.
            match dur.head_model() {
                Some(head) => {
                    *model = head.expect("decodes");
                    dur.commit_with_delta(model, &format!("noop{i}"), None, ModelDelta::default())
                        .expect("honest empty delta");
                    true
                }
                None => false,
            }
        }
        3 => match dur.undo() {
            Some(restored) => {
                *model = restored.expect("decodes");
                true
            }
            None => false,
        },
        4 => match dur.redo() {
            Some(restored) => {
                *model = restored.expect("decodes");
                true
            }
            None => false,
        },
        5 => {
            dur.branch(&format!("b{i}")).expect("fresh branch name");
            true
        }
        6 => {
            let names: Vec<String> = dur.branch_names().into_iter().map(str::to_owned).collect();
            let target = names[i % names.len()].clone();
            dur.switch_branch(&target).expect("known branch");
            *model = match dur.head_model() {
                Some(head) => head.expect("decodes"),
                None => Model::new(dur.name().to_owned()),
            };
            true
        }
        _ => {
            if dur.head().is_some() {
                dur.tag(&format!("t{i}")).expect("taggable");
                true
            } else {
                false
            }
        }
    }
}

/// Builds a durable repository from an op sequence; returns the
/// directory and the fingerprint after every journaled record (index k
/// = state after k+1 records, the init record included).
fn build(dir: &Path, ops: &[u8]) -> Vec<String> {
    let mut dur = Repository::create(dir, "bank").expect("create");
    let mut states = vec![fingerprint(&dur)];
    let mut model = Model::new("bank");
    for (i, &op) in ops.iter().enumerate() {
        if drive(&mut dur, &mut model, op, i) {
            states.push(fingerprint(&dur));
        }
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn close_then_reopen_preserves_every_state(ops in prop::collection::vec(any::<u8>(), 1..16)) {
        let dir = tmp_dir("reopen");
        let states = build(&dir, &ops);
        let (dur, report) = Repository::open(&dir).expect("reopen");
        prop_assert!(report.clean());
        prop_assert_eq!(report.records_replayed, states.len());
        prop_assert_eq!(&fingerprint(&dur), states.last().expect("non-empty"));
        let fsck = Repository::fsck(&dir).expect("fsck runs");
        prop_assert!(fsck.ok(), "{}", fsck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_replays_from_one_record(
        ops in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let dir = tmp_dir("compact");
        let states = build(&dir, &ops);
        let (mut dur, _) = Repository::open(&dir).expect("reopen");
        dur.compact().expect("compaction");
        prop_assert_eq!(&fingerprint(&dur), states.last().expect("non-empty"));
        drop(dur);
        let (dur, report) = Repository::open(&dir).expect("post-compaction open");
        prop_assert!(report.clean());
        prop_assert_eq!(report.records_replayed, 1);
        prop_assert_eq!(&fingerprint(&dur), states.last().expect("non-empty"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_torn_at_every_byte_recovers_the_last_complete_record(
        ops in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let dir = tmp_dir("torn");
        let states = build(&dir, &ops);
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).expect("wal exists");
        let (_, _, logical_end) = Wal::read_all(&wal_path).expect("read");
        let logical_end = logical_end as usize;
        let wal = std::fs::OpenOptions::new().write(true).open(&wal_path).expect("wal opens");
        // Longest cut first, so each cut is one truncation of the last.
        for cut in (0..=full.len()).rev() {
            wal.set_len(cut as u64).expect("truncate");
            // Reading never panics and yields a strict record prefix.
            let (records, _, end) = Wal::read_all(&wal_path).expect("read");
            prop_assert!(end <= cut as u64, "cut at {cut}");
            // Every cut into the zero tail reopens to the same state, so
            // past the first and last 64 tail bytes only every 61st cut
            // reopens the repository.
            let in_tail = cut - logical_end.min(cut);
            if in_tail > 64 && full.len() - cut > 64 && in_tail % 61 != 0 {
                prop_assert_eq!(records.len(), states.len(), "cut at {}", cut);
                continue;
            }
            let reopened = Repository::open(&dir);
            // Opening repairs the file it reads; put the cut back.
            std::fs::write(&wal_path, &full[..cut]).expect("restore the cut");
            match reopened {
                Ok((dur, report)) => {
                    let k = report.records_replayed;
                    prop_assert_eq!(k, records.len(), "cut at {}", cut);
                    // Recovery = the state after the last complete record.
                    prop_assert_eq!(
                        &fingerprint(&dur),
                        &states[k - 1],
                        "cut at {}",
                        cut
                    );
                }
                // Only acceptable failure: the init record itself is torn.
                Err(_) => prop_assert!(records.is_empty(), "cut at {cut}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `n` model contents, each one class more than the last.
fn contents(n: usize) -> Vec<Model> {
    let mut model = Model::new("bank");
    (0..n)
        .map(|i| {
            let root = model.root();
            model.add_class(root, &format!("C{i}")).expect("unique class name");
            model.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn churn_journal_reopens_to_the_live_state(
        ops in prop::collection::vec(0u8..8, 64..257),
        distinct in 2usize..4,
    ) {
        let dir = tmp_dir("churn");
        let models = contents(distinct);
        let mut dur = Repository::create(&dir, "bank").expect("create");
        for (i, op) in ops.iter().enumerate() {
            match op {
                // Mostly commit/undo/redo; the odd tag pins a commit
                // the redo-tail truncation would otherwise collect.
                0..=2 => {
                    dur.commit(&models[i % distinct], &format!("v{i}"), None).expect("commit");
                }
                3 | 4 => {
                    if let Some(restored) = dur.undo() {
                        restored.expect("decodes");
                    }
                }
                5 | 6 => {
                    if let Some(restored) = dur.redo() {
                        restored.expect("decodes");
                    }
                }
                _ => {
                    if dur.head().is_some() {
                        dur.tag(&format!("t{i}")).expect("taggable");
                    }
                }
            }
        }
        let live = fingerprint(&dur);
        drop(dur);
        let (dur, report) = Repository::open(&dir).expect("reopen");
        prop_assert!(report.clean());
        prop_assert_eq!(&fingerprint(&dur), &live);
        // Every landed content decodes at most once per open.
        prop_assert!(report.snapshots_decoded <= distinct, "{:?}", report);
        prop_assert!(report.snapshots_decoded <= report.segments, "{:?}", report);
        let fsck = Repository::fsck(&dir).expect("fsck runs");
        prop_assert!(fsck.ok(), "{}", fsck);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
