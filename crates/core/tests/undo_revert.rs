//! Differential property test for in-place undo: `undo_last` reverts
//! the undone step's change journal instead of decoding the snapshot
//! the repository head lands on, and must be indistinguishable from the
//! decoding undo. Random apply/undo sequences over the standard
//! concerns run in memory, durable, and across a `recover` (whose
//! rebuilt steps undo by decoding, while steps applied after it
//! revert). After every `undo_last`:
//!
//! * the model equals `import_model(snapshot_xmi())` under full
//!   `PartialEq`, id watermark included;
//! * `content_hash()` and `snapshot_xmi()` are the repository head's;
//! * every backend's `generate` output is byte-identical to a twin
//!   lifecycle that undid by decoding — a durable twin recovered from
//!   its journal right before each undo, so it holds no undo log.
//!
//! After every op, each visible step's three records of its change
//! agree: the delta the lifecycle reports (`applied()[i].report`), the
//! delta its commit stores, and `ModelDelta::between` of the parent and
//! child checkouts.

use comet::{Backend, MdaLifecycle};
use comet_aspectgen::ConcernPair;
use comet_codegen::BodyProvider;
use comet_model::sample::banking_pim;
use comet_model::{Model, ModelDelta};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use comet_xmi::import_model;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (parallel tests, one process).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comet-undo-revert-{}-{}-{}",
        std::process::id(),
        name,
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    dir
}

const CONCERNS: [&str; 7] = [
    "distribution",
    "transactions",
    "security",
    "logging",
    "concurrency",
    "persistence",
    "faulttolerance",
];

fn strs(items: &[&str]) -> ParamValue {
    ParamValue::from(items.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
}

/// Each standard concern bound to the banking PIM.
fn resolve(concern: &str) -> Option<(ConcernPair, ParamSet)> {
    let si = match concern {
        "distribution" => ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with("operations", strs(&["transfer", "audit"])),
        "transactions" => ParamSet::new().with("methods", strs(&["Bank.transfer"])),
        "security" => ParamSet::new().with("protected", strs(&["Bank.transfer:teller"])),
        "logging" => ParamSet::new().with("targets", strs(&["Bank.transfer", "Account.deposit"])),
        "concurrency" => {
            ParamSet::new().with("methods", strs(&["Account.deposit", "Account.withdraw"]))
        }
        "persistence" => ParamSet::new()
            .with("class", ParamValue::from("Account"))
            .with("key_attr", ParamValue::from("number"))
            .with("mutators", strs(&["deposit", "withdraw"])),
        "faulttolerance" => ParamSet::new()
            .with("methods", strs(&["Bank.audit"]))
            .with("idempotent", strs(&["Bank.audit"])),
        _ => return None,
    };
    comet_concerns::by_name(concern).map(|pair| (pair, si))
}

fn workflow() -> WorkflowModel {
    CONCERNS.iter().fold(WorkflowModel::new("undo-revert"), |w, c| w.step(c, true))
}

fn recovered(dir: &Path) -> MdaLifecycle {
    MdaLifecycle::recover(dir, workflow(), resolve).expect("the journal recovers").0
}

#[derive(Debug, Clone)]
enum Op {
    /// Apply the n-th concern not applied yet (mod their count).
    Apply(usize),
    Undo,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Three applies to two undos, so sequences build some depth.
    let op =
        (0..5u8, any::<usize>()).prop_map(|(k, n)| if k < 3 { Op::Apply(n) } else { Op::Undo });
    prop::collection::vec(op, 1..16)
}

/// Applies `op` to the lifecycle; both the subject and the twin go
/// through here, so they see the same step sequence.
fn step(mda: &mut MdaLifecycle, op: &Op) {
    match op {
        Op::Apply(n) => {
            let applied: Vec<&str> = mda.applied().iter().map(|a| a.cmt.concern()).collect();
            let open: Vec<&str> =
                CONCERNS.iter().copied().filter(|c| !applied.contains(c)).collect();
            if open.is_empty() {
                return;
            }
            let (pair, si) = resolve(open[n % open.len()]).expect("standard concern");
            mda.apply_concern(&pair, si).expect("every standard binding applies");
        }
        Op::Undo => {
            if mda.applied().is_empty() {
                assert!(mda.undo_last().is_err(), "undo with nothing applied");
            } else {
                mda.undo_last().expect("undo of an applied step");
            }
        }
    }
}

/// Checks that every visible step's reported delta and its commit's
/// stored delta both equal the sweep between its parent and child
/// checkouts.
fn check_step_deltas(mda: &MdaLifecycle, op: usize) -> Result<(), TestCaseError> {
    let repo = mda.repository();
    let log = repo.log();
    prop_assert_eq!(log.len(), mda.applied().len() + 1, "op {}: one commit per step", op);
    let models: Vec<Model> =
        log.iter().map(|c| repo.checkout(c.id).expect("snapshot decodes")).collect();
    for (k, applied) in mda.applied().iter().enumerate() {
        let swept = ModelDelta::between(&models[k], &models[k + 1]);
        prop_assert_eq!(&applied.report, &swept, "op {}: step {} report", op, k);
        prop_assert_eq!(log[k + 1].delta.as_ref(), Some(&swept), "op {}: step {} commit", op, k);
    }
    Ok(())
}

/// Runs `ops` on `subject` beside a twin that undoes by decoding,
/// checking the undo contract after every undo. With `recover_at =
/// (i, dir)`, the subject is recovered from its journal in `dir` before
/// op `i`.
fn check_against_decoding_twin(
    mut subject: MdaLifecycle,
    ops: &[Op],
    recover_at: Option<(usize, &Path)>,
) -> Result<(), TestCaseError> {
    let twin_dir = tmp("twin");
    let mut twin = MdaLifecycle::new_durable(banking_pim(), workflow(), &twin_dir).unwrap();
    let bodies = BodyProvider::default();
    for (i, op) in ops.iter().enumerate() {
        if let Some((_, dir)) = recover_at.filter(|&(at, _)| at == i) {
            subject = {
                drop(subject);
                recovered(dir)
            };
        }
        if matches!(op, Op::Undo) {
            twin = {
                drop(twin);
                recovered(&twin_dir)
            };
        }
        step(&mut subject, op);
        step(&mut twin, op);
        prop_assert_eq!(subject.model(), twin.model(), "op {}: models diverged", i);
        check_step_deltas(&subject, i)?;
        if !matches!(op, Op::Undo) {
            continue;
        }
        let imported = import_model(subject.snapshot_xmi()).expect("snapshot decodes");
        prop_assert_eq!(subject.model(), &imported, "op {}: model != import(snapshot)", i);
        let head = subject.repository().head().expect("the initial commit stays");
        prop_assert_eq!(subject.content_hash(), head.hash);
        prop_assert_eq!(subject.snapshot_xmi(), head.snapshot_xmi());
        for backend in Backend::ALL {
            let ours = subject.generate(&bodies, backend).expect("generates");
            let theirs = twin.generate(&bodies, backend).expect("generates");
            prop_assert_eq!(ours, theirs, "op {}: {} output diverged", i, backend);
        }
    }
    drop(twin);
    std::fs::remove_dir_all(&twin_dir).expect("scratch dir removable");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn in_memory_undo_equals_decoding_undo(ops in arb_ops()) {
        let mda = MdaLifecycle::new(banking_pim(), workflow()).unwrap();
        check_against_decoding_twin(mda, &ops, None)?;
    }

    #[test]
    fn durable_undo_equals_decoding_undo(ops in arb_ops()) {
        let dir = tmp("durable");
        let mda = MdaLifecycle::new_durable(banking_pim(), workflow(), &dir).unwrap();
        check_against_decoding_twin(mda, &ops, None)?;
        std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    }

    #[test]
    fn recovered_undo_equals_decoding_undo(ops in arb_ops(), at in any::<usize>()) {
        let dir = tmp("recovered");
        let mda = MdaLifecycle::new_durable(banking_pim(), workflow(), &dir).unwrap();
        check_against_decoding_twin(mda, &ops, Some((at % ops.len(), &dir)))?;
        std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    }
}
