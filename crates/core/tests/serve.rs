//! Integration tests for `comet-serve` driving real banking sessions:
//! determinism across shard and thread counts, bounded-queue
//! backpressure, graceful per-request fault degradation, and §3
//! precedence of the per-tenant applied concerns.

use comet::{run_banking_serve, SERVE_WORKFLOW};
use comet_middleware::FaultPlan;
use comet_serve::{RunConfig, ServeOutcome, WorkloadPlan};

fn run(plan: &WorkloadPlan, shards: usize, faults: Option<FaultPlan>) -> ServeOutcome {
    run_banking_serve(plan, shards, faults, &RunConfig { traced: true, metrics: false })
        .expect("valid plan")
}

fn commit_fault_plan() -> FaultPlan {
    FaultPlan::parse_toml("seed = 7\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n")
        .expect("well-formed plan")
}

#[test]
fn report_and_trace_are_identical_across_shard_counts() {
    let plan = WorkloadPlan::new(7);
    let baseline = run(&plan, 1, None);
    for shards in [2, 4, 8] {
        let other = run(&plan, shards, None);
        assert_eq!(baseline.report, other.report, "report diverged at {shards} shards");
        assert_eq!(
            baseline.report.to_json(),
            other.report.to_json(),
            "json diverged at {shards} shards"
        );
        assert_eq!(baseline.trace, other.trace, "trace diverged at {shards} shards");
    }
}

#[test]
fn report_is_identical_across_worker_thread_counts() {
    let plan = WorkloadPlan::new(11);
    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        outcomes.push(pool.install(|| run(&plan, 4, None)));
    }
    assert_eq!(outcomes[0].report, outcomes[1].report);
    assert_eq!(outcomes[0].report, outcomes[2].report);
    assert_eq!(outcomes[0].trace, outcomes[1].trace);
    assert_eq!(outcomes[0].trace, outcomes[2].trace);
}

#[test]
fn faulted_runs_stay_deterministic_across_shard_counts() {
    let plan = WorkloadPlan::new(7);
    let a = run(&plan, 1, Some(commit_fault_plan()));
    let b = run(&plan, 4, Some(commit_fault_plan()));
    assert_eq!(a.report, b.report);
    assert_eq!(a.trace, b.trace);
    // The plan actually fired somewhere: the per-tenant fault logs are
    // folded into the report, so a silent no-op plan would show here.
    let records: u64 = a.report.tenants.values().map(|t| t.fault_records).sum();
    assert!(records > 0, "scheduled fault never fired");
}

#[test]
fn faults_degrade_individual_requests_not_the_run() {
    let plan = WorkloadPlan::new(7);
    let clean = run(&plan, 2, None);
    let faulted = run(&plan, 2, Some(commit_fault_plan()));

    // Admission is independent of execution outcomes: the same requests
    // are issued either way, and every admitted request still finishes.
    assert_eq!(clean.report.issued, faulted.report.issued);
    assert_eq!(
        faulted.report.completed,
        faulted.report.ok + faulted.report.failed,
        "completed must split exactly into ok + failed"
    );
    assert!(
        faulted.report.failed >= clean.report.failed,
        "injected faults should only add failures ({} < {})",
        faulted.report.failed,
        clean.report.failed
    );
    // No tenant is poisoned: everyone keeps completing requests.
    for (tenant, stats) in &faulted.report.tenants {
        assert!(stats.completed > 0, "tenant {tenant} stopped serving");
    }
}

#[test]
fn bounded_queues_reject_with_overloaded_but_conserve_requests() {
    let mut plan = WorkloadPlan::new(3);
    plan.clients = 6;
    plan.limits.queue_depth = 1;
    plan.service.think_us = 10; // hammer the queue
    let outcome = run(&plan, 2, None);
    let r = &outcome.report;
    assert!(r.rejected > 0, "queue_depth=1 under 6 clients must shed load");
    assert_eq!(
        r.issued,
        r.completed + r.rejected + r.deadline_dropped,
        "every issued request is either completed, rejected, or shed"
    );
    assert_eq!(r.completed, r.ok + r.failed);
    // Rejection is per-request and recoverable: rejected clients back
    // off and retry, so tenants still make forward progress.
    for (tenant, stats) in &r.tenants {
        assert!(stats.completed > 0, "tenant {tenant} starved");
    }
}

#[test]
fn deadlines_shed_stale_requests() {
    let mut plan = WorkloadPlan::new(5);
    plan.clients = 6;
    plan.limits.deadline_us = 200;
    plan.service.think_us = 10;
    let outcome = run(&plan, 1, None);
    let r = &outcome.report;
    assert!(r.deadline_dropped > 0, "tight deadline under load must shed requests");
    assert_eq!(r.issued, r.completed + r.rejected + r.deadline_dropped);
}

#[test]
fn applied_concerns_follow_section3_precedence_per_tenant() {
    let mut plan = WorkloadPlan::new(13);
    plan.requests = 24; // enough applies to walk the whole workflow
    plan.mix.apply = 0.6;
    plan.mix.undo = 0.0;
    let outcome = run(&plan, 4, None);
    for (tenant, stats) in &outcome.report.tenants {
        assert!(
            !stats.applied.is_empty(),
            "tenant {tenant} applied nothing under an apply-heavy mix"
        );
        // Application order = aspect precedence (§3): the applied list
        // must be a prefix of the serving workflow.
        assert_eq!(
            stats.applied.as_slice(),
            &SERVE_WORKFLOW[..stats.applied.len()],
            "tenant {tenant} applied concerns out of workflow order"
        );
    }
}

#[test]
fn traces_nest_requests_under_tenant_tagged_spans() {
    let plan = WorkloadPlan::new(7);
    let outcome = run(&plan, 2, None);
    let trace = outcome.trace.expect("traced run yields a trace");
    let request_spans: Vec<_> =
        trace.spans.iter().filter(|s| s.cat == "serve" && s.name == "serve.request").collect();
    assert_eq!(request_spans.len() as u64, outcome.report.completed);
    let tenant_names = plan.tenant_names();
    for span in &request_spans {
        let tenant = span
            .attrs
            .iter()
            .find(|(k, _)| k == "tenant")
            .map(|(_, v)| v.clone())
            .expect("request span tagged with its tenant");
        assert!(tenant_names.contains(&tenant), "unknown tenant {tenant}");
        assert!(span.attrs.iter().any(|(k, _)| k == "outcome"), "span missing outcome");
    }
    // Lifecycle spans from the sessions nest inside the serve spans:
    // the tenant's concern applications are visible in the same trace.
    assert!(
        trace.spans.iter().any(|s| s.name.starts_with("concern:")),
        "concern spans missing from the serve trace"
    );
}

#[test]
fn steady_state_generates_hit_the_per_tenant_weave_cache() {
    // Once a tenant's workflow is exhausted the workload keeps issuing
    // `Generate` at an unchanged model revision, so the per-tenant
    // incremental weave cache must convert those into full hits — and
    // the cached path must not perturb cross-shard determinism (checked
    // exhaustively by `report_and_trace_are_identical_across_shard_counts`).
    let plan = WorkloadPlan::new(7);
    let outcome = run(&plan, 2, None);
    let trace = outcome.trace.expect("traced run yields a trace");
    let hits = trace.counters.get("weave.incremental.hit").copied().unwrap_or(0);
    let misses = trace.counters.get("weave.incremental.miss").copied().unwrap_or(0);
    assert!(hits > 0, "steady-state generates never hit the weave cache: {:?}", trace.counters);
    // Every generate is classified exactly once.
    let generates: u64 =
        trace.spans.iter().filter(|s| s.cat == "lifecycle" && s.name == "generate").count() as u64;
    assert_eq!(hits + misses, generates, "hit/miss classification lost generates");
}
