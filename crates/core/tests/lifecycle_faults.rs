//! Fault injection for the MDA lifecycle's atomicity contract: after
//! *any* induced failure inside `apply_concern` or `undo_last`, the
//! three stores must still agree — `model == repo HEAD`, and the
//! workflow's applied sequence matches the lifecycle's `applied` list.
//!
//! Failure points exercised:
//! * the transformation (pre-body: workflow constraint; in-body:
//!   postcondition / custom error),
//! * the repository commit (post-body — the failing-repository double,
//!   armed through the unified `FaultHook` trait at `repo.commit`),
//! * the repository undo (`FaultHook` point `repo.undo`).
//!
//! Every fault is armed on the lifecycle itself, which forwards to its
//! repository, in memory or durable.
//!
//! `undo_last` reverts the step's change journal in place and decodes
//! the landing snapshot only for steps rebuilt by `recover`, which have
//! no log to revert with; the tail of this file pins when each path
//! runs and that a failed undo keeps the log for its retry. Which path
//! ran shows in
//! [`Model::revision`](comet_model::Model::revision): a revert keeps
//! counting on the same model, a decoded snapshot is a fresh model
//! whose counter restarts.

use comet::{LifecycleError, MdaLifecycle};
use comet_aspectgen::ConcernPair;
use comet_concerns::{distribution, security, transactions};
use comet_middleware::FaultHook;
use comet_model::sample::banking_pim;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::path::PathBuf;

fn fig2_workflow() -> WorkflowModel {
    WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false)
}

fn dist_si() -> ParamSet {
    ParamSet::new()
        .with("server_class", ParamValue::from("Bank"))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(vec!["transfer".to_owned()]))
}

fn tx_si() -> ParamSet {
    ParamSet::new().with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
}

fn sec_si() -> ParamSet {
    ParamSet::new().with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]))
}

/// The atomicity invariant: model, repository, and workflow agree.
fn assert_consistent(mda: &MdaLifecycle) {
    let head = mda
        .repository()
        .head_model()
        .expect("lifecycle always has an initial commit")
        .expect("snapshot decodes");
    assert_eq!(mda.model(), &head, "model diverged from repo HEAD");
    let from_workflow: Vec<&str> = mda.workflow().applied().iter().map(String::as_str).collect();
    let from_applied: Vec<&str> = mda.applied().iter().map(|a| a.cmt.concern()).collect();
    assert_eq!(from_workflow, from_applied, "workflow desynced from applied steps");
    // One repo commit per applied step plus the initial PIM.
    assert_eq!(mda.repository().log().len(), mda.applied().len() + 1);
}

#[test]
fn repo_commit_failure_unwinds_model_and_workflow() {
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    let before = mda.model().clone();

    mda.arm_fault(comet_repo::FAULT_POINT_COMMIT).unwrap();
    let err = mda.apply_concern(&transactions::pair(), tx_si()).unwrap_err();
    assert!(matches!(err, LifecycleError::Repo(_)), "unexpected error: {err}");

    assert_eq!(mda.model(), &before, "model must be journal-unwound on commit failure");
    assert_eq!(mda.applied().len(), 1);
    assert_eq!(mda.workflow().applied(), &["distribution".to_owned()]);
    assert!(!mda.model().journal_active(), "journal leaked");
    assert_consistent(&mda);

    // The lifecycle is still fully usable: the same step now succeeds.
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    assert_consistent(&mda);
}

#[test]
fn transform_failure_unwinds_workflow_record() {
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    let before = mda.model().clone();

    // `Bank.launder` does not exist: the transformation body fails
    // after the workflow already staged its record.
    let bad = ParamSet::new().with("methods", ParamValue::from(vec!["Bank.launder".to_owned()]));
    let err = mda.apply_concern(&transactions::pair(), bad).unwrap_err();
    assert!(matches!(err, LifecycleError::Transform(_)), "unexpected error: {err}");

    assert_eq!(mda.model(), &before);
    assert_eq!(mda.workflow().applied(), &["distribution".to_owned()]);
    assert_consistent(&mda);
    // `transactions` was unrecorded, so it is still allowed next.
    assert!(mda.workflow().allowed_next().contains(&"transactions"));
}

#[test]
fn workflow_violation_rejects_before_any_mutation() {
    let workflow = fig2_workflow().constraint(comet_workflow::OrderConstraint::Before(
        "distribution".into(),
        "security".into(),
    ));
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).unwrap();
    let before = mda.model().clone();
    let err = mda.apply_concern(&security::pair(), sec_si()).unwrap_err();
    assert!(matches!(err, LifecycleError::Workflow(_)));
    assert_eq!(mda.model(), &before);
    assert!(mda.workflow().applied().is_empty());
    assert_consistent(&mda);
}

#[test]
fn undo_failure_keeps_the_step_record() {
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    let before = mda.model().clone();

    mda.arm_fault(comet_repo::FAULT_POINT_UNDO).unwrap();
    let err = mda.undo_last().unwrap_err();
    assert!(matches!(err, LifecycleError::Repo(_)), "unexpected error: {err}");

    // The failed undo lost nothing: the step record, workflow state and
    // model are all exactly as before the attempt.
    assert_eq!(mda.applied().len(), 2);
    assert_eq!(mda.workflow().applied(), &["distribution".to_owned(), "transactions".to_owned()]);
    assert_eq!(mda.model(), &before);
    assert_consistent(&mda);

    // And the next undo (no fault) succeeds.
    mda.undo_last().unwrap();
    assert_eq!(mda.applied().len(), 1);
    assert_consistent(&mda);
}

#[test]
fn undo_replay_failure_is_typed_not_a_panic() {
    // Undo rewinds the workflow by unrecording the last step: workflow
    // constraints only look at which concerns are applied, so every
    // prefix of a recorded sequence stays valid and there is no replay
    // to fail. What CAN fail is the repository — covered above — so
    // here we assert the panic path is gone: undo on an empty lifecycle
    // and a double-undo both return typed errors.
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    assert!(matches!(mda.undo_last(), Err(LifecycleError::NothingToUndo)));
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.undo_last().unwrap();
    assert!(matches!(mda.undo_last(), Err(LifecycleError::NothingToUndo)));
    assert_consistent(&mda);
    assert_eq!(mda.model(), &banking_pim());
}

/// A small soak: walks the full three-concern pipeline injecting a
/// commit failure before every step and an undo failure before every
/// undo, checking the invariant after every operation, then applies
/// one step again so the run ends above the PIM.
fn soak(mda: &mut MdaLifecycle) {
    type SiFn = fn() -> ParamSet;
    let steps: [(&str, SiFn); 3] =
        [("distribution", dist_si), ("transactions", tx_si), ("security", sec_si)];
    for (name, si) in steps {
        let pair = match name {
            "distribution" => distribution::pair(),
            "transactions" => transactions::pair(),
            _ => security::pair(),
        };
        mda.arm_fault(comet_repo::FAULT_POINT_COMMIT).unwrap();
        assert!(mda.apply_concern(&pair, si()).is_err());
        assert_consistent(mda);
        mda.apply_concern(&pair, si()).unwrap();
        assert_consistent(mda);
    }
    assert_eq!(mda.applied().len(), 3);
    while !mda.applied().is_empty() {
        mda.arm_fault(comet_repo::FAULT_POINT_UNDO).unwrap();
        assert!(mda.undo_last().is_err());
        assert_consistent(mda);
        mda.undo_last().unwrap();
        assert_consistent(mda);
    }
    assert_eq!(mda.model(), &banking_pim());
    mda.arm_fault(comet_repo::FAULT_POINT_COMMIT).unwrap();
    assert!(mda.apply_concern(&distribution::pair(), dist_si()).is_err());
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    assert_consistent(mda);
}

/// What a recovered lifecycle must reproduce: head XMI, applied
/// concerns and repository log messages.
fn observable(mda: &MdaLifecycle) -> (String, Vec<String>, Vec<String>) {
    (
        mda.snapshot_xmi().to_owned(),
        mda.applied().iter().map(|a| a.cmt.concern().to_owned()).collect(),
        mda.repository().log().iter().map(|c| c.message.clone()).collect(),
    )
}

#[test]
fn interleaved_faults_never_desync() {
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    soak(&mut mda);
    let in_memory = observable(&mda);
    // The same soak on the durable backend, whose journal must recover
    // to exactly the live run: no faulted operation reached it.
    let dir = tmp("soak");
    let mut mda = MdaLifecycle::new_durable(banking_pim(), fig2_workflow(), &dir).unwrap();
    soak(&mut mda);
    let live = observable(&mda);
    assert_eq!(live, in_memory);
    drop(mda);
    let (recovered, report) = MdaLifecycle::recover(&dir, fig2_workflow(), fig2_resolver).unwrap();
    assert!(report.clean());
    assert_eq!(observable(&recovered), live);
    assert_consistent(&recovered);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// How `undo_last` restored the model.
#[derive(Debug, PartialEq)]
enum UndoPath {
    Reverted,
    Decoded,
}

/// Runs one successful `undo_last` and reports which path it took. The
/// model lands on the repository head either way.
fn undo(mda: &mut MdaLifecycle) -> UndoPath {
    let before = mda.model().revision();
    mda.undo_last().expect("undo succeeds");
    let head = mda.repository().head_model().expect("undo lands on a commit");
    assert_eq!(mda.model(), &head.expect("snapshot decodes"), "model diverged from HEAD");
    if mda.model().revision() > before {
        UndoPath::Reverted
    } else {
        UndoPath::Decoded
    }
}

fn fig2_resolver(concern: &str) -> Option<(ConcernPair, ParamSet)> {
    match concern {
        "distribution" => Some((distribution::pair(), dist_si())),
        "transactions" => Some((transactions::pair(), tx_si())),
        "security" => Some((security::pair(), sec_si())),
        _ => None,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("comet-lifecycle-faults-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    dir
}

#[test]
fn recovered_steps_undo_by_decoding_later_steps_revert() {
    let dir = tmp("recover");
    let mut mda = MdaLifecycle::new_durable(banking_pim(), fig2_workflow(), &dir).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    drop(mda);
    let (mut mda, _) = MdaLifecycle::recover(&dir, fig2_workflow(), fig2_resolver).unwrap();
    mda.apply_concern(&security::pair(), sec_si()).unwrap();
    assert_eq!(undo(&mut mda), UndoPath::Reverted, "a step applied after recovery");
    assert_eq!(undo(&mut mda), UndoPath::Decoded, "the first recovered step");
    // Decoding left the model at the head: a step applied now reverts,
    // and the remaining recovered step still decodes.
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    assert_eq!(undo(&mut mda), UndoPath::Reverted);
    assert_eq!(undo(&mut mda), UndoPath::Decoded);
    assert_eq!(mda.model(), &banking_pim());
    assert_consistent(&mda);
    drop(mda);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_refuses_a_journal_whose_oldest_commit_names_a_concern() {
    let dir = tmp("no-base");
    let mut distributed = banking_pim();
    distribution::pair().specialize(dist_si()).unwrap().0.apply(&mut distributed).unwrap();
    let mut repo = comet_repo::DurableRepository::create(&dir, "bank").unwrap();
    repo.commit(&distributed, "distribution", Some("distribution")).unwrap();
    drop(repo);
    // Undoing the one journalled step would have no commit to land on.
    let err = MdaLifecycle::recover(&dir, fig2_workflow(), fig2_resolver).unwrap_err();
    assert!(
        matches!(&err, LifecycleError::Recovery(d) if d.contains("`distribution`")),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn armed_undo_fault_keeps_the_undo_log_so_the_retry_reverts() {
    let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    let before = mda.model().clone();
    mda.arm_fault(comet_repo::FAULT_POINT_UNDO).unwrap();
    assert!(matches!(mda.undo_last(), Err(LifecycleError::Repo(_))));
    assert_eq!(mda.model(), &before);
    assert_eq!(mda.applied().len(), 2);
    assert_consistent(&mda);
    assert_eq!(undo(&mut mda), UndoPath::Reverted, "the failed undo lost its log");
    assert_eq!(mda.applied().len(), 1);
    assert_consistent(&mda);
}

#[test]
fn durable_in_place_undo_journals_exactly_one_undo_record() {
    let dir = tmp("one-record");
    let mut mda = MdaLifecycle::new_durable(banking_pim(), fig2_workflow(), &dir).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    let fsyncs = mda.wal_fsyncs();
    // A faulted undo fails before it reaches the journal...
    mda.arm_fault(comet_repo::FAULT_POINT_UNDO).unwrap();
    assert!(mda.undo_last().is_err());
    assert_eq!(mda.wal_fsyncs(), fsyncs);
    // ...and its retry appends one record, one fsync.
    assert_eq!(undo(&mut mda), UndoPath::Reverted);
    assert_eq!(mda.wal_fsyncs(), fsyncs + 1);
    let model = mda.model().clone();
    drop(mda);
    // The record is a plain `Undo`: replay lands where memory did.
    let (repo, report) = comet_repo::DurableRepository::open(&dir).unwrap();
    assert_eq!(report.records_replayed, 5, "init, three commits, one undo");
    assert_eq!(repo.head_model().unwrap().unwrap(), model);
    drop(repo);
    std::fs::remove_dir_all(&dir).unwrap();
}
