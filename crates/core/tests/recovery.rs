//! Crash-recovery chaos tests for the durable serving stack: a tenant
//! whose lifecycle dies mid-run (torn write-ahead-log tail and all)
//! replays the journal, recovers to the last committed operation, and
//! the run's report and trace come out byte-identical to an
//! uninterrupted run — at every shard count, under an active fault
//! plan.

use comet::{run_banking_serve, run_banking_serve_durable, KillPoint, MdaLifecycle};
use comet_middleware::FaultPlan;
use comet_model::sample::banking_pim;
use comet_repo::Repository;
use comet_serve::{RunConfig, ServeOutcome, WorkloadPlan};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TRACED: RunConfig = RunConfig { traced: true, metrics: false };

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (parallel tests, one process).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comet-recovery-{}-{}-{}",
        std::process::id(),
        name,
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    dir
}

/// The weave cache is per-lifecycle and a recovered lifecycle restarts
/// it cold, which shifts the `weave.incremental.*` trace counters — the
/// single piece of trace-observable cache state. A generate-free mix
/// removes it, making full traces comparable; results everywhere else
/// are byte-identical either way.
fn generate_free_plan() -> WorkloadPlan {
    let mut plan = WorkloadPlan::new(7);
    plan.mix.apply += plan.mix.generate;
    plan.mix.generate = 0.0;
    plan
}

fn commit_fault_plan() -> FaultPlan {
    FaultPlan::parse_toml("seed = 7\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n")
        .expect("well-formed plan")
}

fn kill_t01_at(at_request: u64) -> KillPoint {
    KillPoint { tenant: "t01".to_owned(), at_request }
}

fn run_durable(plan: &WorkloadPlan, shards: usize, kill: Option<KillPoint>) -> (ServeOutcome, u64) {
    let dir = tmp("run");
    let out =
        run_banking_serve_durable(plan, shards, Some(commit_fault_plan()), &TRACED, &dir, kill)
            .expect("valid plan");
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    out
}

#[test]
fn crashed_tenant_recovers_byte_identically_across_shard_counts() {
    let plan = generate_free_plan();
    let mut baselines = Vec::new();
    for shards in [1usize, 4] {
        let (baseline, recoveries) = run_durable(&plan, shards, None);
        assert_eq!(recoveries, 0, "no kill, no recovery");
        let (killed, recoveries) = run_durable(&plan, shards, Some(kill_t01_at(3)));
        assert_eq!(recoveries, 1, "the kill point fires exactly once");
        assert_eq!(baseline.report, killed.report, "report diverged at {shards} shards");
        assert_eq!(baseline.trace, killed.trace, "trace diverged at {shards} shards");
        baselines.push(baseline);
    }
    // The durable baseline is itself shard-invariant...
    assert_eq!(baselines[0].report, baselines[1].report);
    assert_eq!(baselines[0].trace, baselines[1].trace);
    // ...and identical to the in-memory engine: journalling is free of
    // observable behaviour.
    let in_memory =
        run_banking_serve(&plan, 1, Some(commit_fault_plan()), &TRACED).expect("valid plan");
    assert_eq!(in_memory.report, baselines[0].report);
    assert_eq!(in_memory.trace, baselines[0].trace);
}

#[test]
fn recovery_point_sweep_never_perturbs_the_run() {
    // Chaos-style sweep: crash the tenant at several points in its
    // request stream; every recovered run must match the baseline.
    let plan = generate_free_plan();
    let (baseline, _) = run_durable(&plan, 2, None);
    for at_request in [1u64, 4, 8] {
        let (killed, recoveries) = run_durable(&plan, 2, Some(kill_t01_at(at_request)));
        assert_eq!(recoveries, 1, "kill at request {at_request} never fired");
        assert_eq!(baseline.report, killed.report, "report diverged for kill at {at_request}");
        assert_eq!(baseline.trace, killed.trace, "trace diverged for kill at {at_request}");
    }
}

#[test]
fn generate_heavy_runs_recover_with_identical_reports() {
    // With `Generate` in the mix the recovered tenant re-weaves cold
    // where the uninterrupted one hits its cache — visible only in the
    // trace counters. The report (the service-level contract) must
    // still be byte-identical.
    let plan = WorkloadPlan::new(9);
    let (baseline, _) = run_durable(&plan, 4, None);
    let (killed, recoveries) = run_durable(&plan, 4, Some(kill_t01_at(2)));
    assert_eq!(recoveries, 1);
    assert_eq!(baseline.report, killed.report);
}

#[test]
fn served_tenants_leave_fsck_clean_journals_and_resume_across_restarts() {
    let plan = generate_free_plan();
    let dir = tmp("restart");
    let (first, recoveries) =
        run_banking_serve_durable(&plan, 2, None, &RunConfig::default(), &dir, None)
            .expect("valid plan");
    assert_eq!(recoveries, 0);
    assert!(first.report.completed > 0);
    for tenant in plan.tenant_names() {
        let fsck = Repository::fsck(&dir.join(&tenant)).expect("journal opens");
        assert!(fsck.ok(), "tenant {tenant} journal corrupt after clean run:\n{fsck}");
    }
    // A second run over the same data dir resumes every tenant from its
    // journal instead of starting over, and completes normally.
    let (second, recoveries) =
        run_banking_serve_durable(&plan, 2, None, &RunConfig::default(), &dir, None)
            .expect("valid plan");
    assert_eq!(recoveries, 0, "resuming from a clean journal is not a crash recovery");
    assert!(second.report.completed > 0);
    for tenant in plan.tenant_names() {
        let fsck = Repository::fsck(&dir.join(&tenant)).expect("journal opens");
        assert!(fsck.ok(), "tenant {tenant} journal corrupt after resumed run:\n{fsck}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
}

fn fig2_workflow() -> WorkflowModel {
    WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false)
}

fn test_si(concern: &str) -> ParamSet {
    match concern {
        "distribution" => ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with("operations", ParamValue::from(vec!["transfer".to_owned()])),
        "transactions" => {
            ParamSet::new().with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        }
        "security" => ParamSet::new()
            .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()])),
        other => panic!("no test Si for `{other}`"),
    }
}

fn resolver(concern: &str) -> Option<(comet_aspectgen::ConcernPair, ParamSet)> {
    comet_concerns::by_name(concern).map(|pair| (pair, test_si(concern)))
}

#[test]
fn lifecycle_recovers_applied_concerns_and_keeps_refining() {
    let dir = tmp("lifecycle");
    // An in-memory twin drives the same operations as the oracle.
    let mut twin = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
    {
        let mut mda = MdaLifecycle::new_durable(banking_pim(), fig2_workflow(), &dir).unwrap();
        for concern in ["distribution", "transactions"] {
            let (pair, si) = resolver(concern).unwrap();
            mda.apply_concern(&pair, si).unwrap();
            let (pair, si) = resolver(concern).unwrap();
            twin.apply_concern(&pair, si).unwrap();
        }
        mda.undo_last().unwrap();
        twin.undo_last().unwrap();
        assert!(mda.is_durable());
        // The lifecycle is dropped here: only the journal survives.
    }
    let (mut mda, report) = MdaLifecycle::recover(&dir, fig2_workflow(), resolver).unwrap();
    assert!(report.clean(), "a clean shutdown leaves nothing to truncate");
    assert_eq!(mda.model(), twin.model());
    assert_eq!(mda.applied().len(), 1);
    assert_eq!(mda.applied()[0].cmt.concern(), "distribution");
    assert_eq!(mda.remaining_concerns(), twin.remaining_concerns());
    assert_eq!(mda.repository().log().len(), twin.repository().log().len());
    assert_eq!(mda.aspects().len(), 1);
    // The recovered lifecycle keeps refining where it left off.
    let (pair, si) = resolver("transactions").unwrap();
    mda.apply_concern(&pair, si).unwrap();
    let (pair, si) = resolver("transactions").unwrap();
    twin.apply_concern(&pair, si).unwrap();
    assert_eq!(mda.model(), twin.model());
    let fsck = Repository::fsck(&dir).expect("journal opens");
    assert!(fsck.ok(), "journal corrupt after recovered refinement:\n{fsck}");
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
}

#[test]
fn torn_journal_tail_recovers_to_the_last_committed_step() {
    let dir = tmp("torn");
    {
        let mut mda = MdaLifecycle::new_durable(banking_pim(), fig2_workflow(), &dir).unwrap();
        let (pair, si) = resolver("distribution").unwrap();
        mda.apply_concern(&pair, si).unwrap();
    }
    // Crash mid-append: the journal claims a record it never delivered.
    Repository::simulate_torn_tail(&dir).unwrap();
    let (mda, report) = MdaLifecycle::recover(&dir, fig2_workflow(), resolver).unwrap();
    assert!(!report.clean(), "the torn tail must be detected and truncated");
    assert_eq!(mda.applied().len(), 1, "the committed step survives the torn tail");
    assert_eq!(mda.repository().log().len(), 2, "initial PIM + one concern commit");
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
}
