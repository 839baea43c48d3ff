//! Integration tests for the critical-pair admission gate: a workload
//! plan whose `[workflow]` section trips a `Conflicts` cell of the
//! interaction matrix gets typed `ServeError::Conflict` rejections
//! *before* any model mutation, while request accounting, §3 precedence
//! of the applied concerns, and shard-count report invariance all hold.

use comet::{run_banking_serve, serve_interaction_matrix};
use comet_interaction::Verdict;
use comet_serve::{RunConfig, ServeError, ServeOutcome, WorkloadPlan, WorkloadPlanError};

/// An apply-heavy plan over a custom serving workflow.
fn plan_with_workflow(seed: u64, steps: &[&str]) -> WorkloadPlan {
    let mut plan = WorkloadPlan::new(seed);
    plan.requests = 24;
    plan.mix.apply = 0.6;
    plan.mix.undo = 0.0;
    plan.workflow = steps.iter().map(|s| (*s).to_owned()).collect();
    plan
}

fn run(plan: &WorkloadPlan, shards: usize) -> ServeOutcome {
    run_banking_serve(plan, shards, None, &RunConfig::default())
        .expect("plan passes admission analysis")
}

#[test]
fn conflicting_workflow_is_rejected_at_admission_not_silently_skipped() {
    // concurrency × faulttolerance is the standard matrix's `Conflicts`
    // cell («Synchronized» × «Retryable» on `Bank.getBalance`).
    let plan = plan_with_workflow(13, &["concurrency", "faulttolerance"]);
    let outcome = run(&plan, 2);
    let r = &outcome.report;
    assert!(r.conflicts > 0, "the conflicting step never hit the gate");
    // Typed rejections are completed-but-failed requests, so the global
    // accounting invariants are untouched.
    assert_eq!(r.issued, r.completed + r.rejected + r.deadline_dropped);
    assert_eq!(r.completed, r.ok + r.failed);
    assert!(r.conflicts <= r.failed, "conflicts must be a subset of failed");
    assert_eq!(
        r.conflicts,
        r.tenants.values().map(|t| t.conflicts).sum::<u64>(),
        "aggregate conflicts must equal the per-tenant sum"
    );
    // The gate fires before any model mutation: no tenant ever holds
    // both halves of the conflicting pair, and sessions keep serving.
    for (tenant, stats) in &r.tenants {
        assert!(
            !(stats.applied.iter().any(|c| c == "concurrency")
                && stats.applied.iter().any(|c| c == "faulttolerance")),
            "tenant {tenant} applied both halves of a Conflicts pair: {:?}",
            stats.applied
        );
        assert!(stats.completed > 0, "tenant {tenant} stopped serving after a rejection");
    }
}

#[test]
fn conflicting_runs_stay_deterministic_across_shard_counts() {
    let plan = plan_with_workflow(13, &["concurrency", "faulttolerance"]);
    let a = run(&plan, 1);
    let b = run(&plan, 4);
    assert!(a.report.conflicts > 0, "gate inactive — the invariance check would be vacuous");
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn conflict_free_workflow_reports_byte_identical_across_shard_counts() {
    // Every pair here is `Commutes` or `OrderSensitive` in the serving
    // matrix — no gate activity, plain §3 precedence serving.
    let steps = &["distribution", "transactions", "security", "logging"];
    let matrix =
        serve_interaction_matrix(&steps.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
            .expect("serving bindings analyse cleanly");
    for (i, a) in steps.iter().enumerate() {
        for b in &steps[i + 1..] {
            assert!(
                !matches!(matrix.verdict(a, b), Some(Verdict::Conflicts { .. })),
                "`{a}` × `{b}` unexpectedly conflicts"
            );
        }
    }
    let plan = plan_with_workflow(7, steps);
    let one = run(&plan, 1);
    let four = run(&plan, 4);
    assert_eq!(one.report.conflicts, 0, "conflict-free workflow tripped the gate");
    assert_eq!(one.report, four.report);
    assert_eq!(one.report.to_json(), four.report.to_json());
}

#[test]
fn default_workflow_never_trips_the_gate() {
    let mut plan = WorkloadPlan::new(13);
    plan.requests = 24;
    plan.mix.apply = 0.6;
    plan.mix.undo = 0.0;
    let outcome = run(&plan, 2);
    assert_eq!(outcome.report.conflicts, 0, "the default workflow must serve conflict-free");
}

#[test]
fn unknown_workflow_concern_is_a_typed_plan_error() {
    let plan = plan_with_workflow(7, &["transactions", "nosuchconcern"]);
    let err = run_banking_serve(&plan, 1, None, &RunConfig::default())
        .expect_err("unknown concern must not serve");
    match err {
        ServeError::Plan(WorkloadPlanError::UnknownConcern(c)) => {
            assert_eq!(c, "nosuchconcern");
        }
        other => panic!("expected Plan(UnknownConcern), got {other}"),
    }
}

#[test]
fn applied_orders_satisfy_every_matrix_required_constraint() {
    // `OrderSensitive` cells become auto-derived `Before` constraints
    // on the derived serving workflow, so whatever each tenant manages
    // to apply must respect every required pair the matrix emits for
    // this plan's steps.
    let steps = &["transactions", "distribution", "security", "logging"];
    let matrix =
        serve_interaction_matrix(&steps.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
            .expect("serving bindings analyse cleanly");
    let required = matrix.required_orders();
    assert!(!required.is_empty(), "no OrderSensitive cell — the check would be vacuous");
    let plan = plan_with_workflow(13, steps);
    let outcome = run(&plan, 2);
    for (tenant, stats) in &outcome.report.tenants {
        for (first, second) in &required {
            let pos = |name: &str| stats.applied.iter().position(|c| c == name);
            if let (Some(i), Some(j)) = (pos(first), pos(second)) {
                assert!(
                    i < j,
                    "tenant {tenant} applied `{second}` before `{first}` \
                     despite the matrix-required order: {:?}",
                    stats.applied
                );
            }
        }
    }
    assert!(
        outcome.report.tenants.values().any(|t| t.applied.len() >= 2),
        "no tenant applied enough concerns to exercise the constraints"
    );
}
