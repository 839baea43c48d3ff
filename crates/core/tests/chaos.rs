//! Chaos property suite: the banking pipeline woven with
//! {distribution, transactions, faulttolerance} must degrade gracefully
//! under seeded fault plans — typed errors only, the balance sum
//! conserved, and identical fault logs for identical seeds. The suite
//! also pins the paper's §3 precedence claim to observable behavior:
//! FT applied before transactions retries whole transactions; applied
//! after, a failed commit must *not* be retried.
//!
//! Pinned-seed cases run in the default suite; the wide randomized
//! sweep is `#[ignore]`d and run by the dedicated CI chaos job.

use comet::{run_banking_chaos, run_banking_chaos_traced, ChaosConfig, FtOrder};
use comet_middleware::{FaultKind, FaultOp, FaultPlan};
use comet_obs::{Collector, Trace};
use proptest::prelude::*;

mod support;

/// Seeds pinned in CI: the chaos job runs exactly these.
const PINNED_SEEDS: [u64; 3] = [7, 1_234, 987_654_321];

/// A representative mixed plan: transient commit faults, occasional bus
/// transients and latency spikes.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_probability(FaultOp::TxCommit, 0.25)
        .with_probability(FaultOp::BusSend, 0.05)
        .with_probability(FaultOp::NamingLookup, 0.05)
        .with_latency_spike(0.2, 2_000)
}

fn chaos_config(seed: u64, order: FtOrder) -> ChaosConfig {
    ChaosConfig { seed, plan: mixed_plan(seed), order, transfers: 24, ..ChaosConfig::default() }
}

#[test]
fn pinned_seeds_degrade_gracefully_in_both_orders() {
    for seed in PINNED_SEEDS {
        for order in [FtOrder::FtOutsideTx, FtOrder::TxOutsideFt] {
            let report = run_banking_chaos(&chaos_config(seed, order)).unwrap();
            assert!(
                report.degraded_gracefully(),
                "seed {seed} order {order:?} violated the degradation contract:\n{report}"
            );
            assert_eq!(
                report.balance_a1 + report.balance_a2,
                1_050,
                "seed {seed} order {order:?} lost money:\n{report}"
            );
            // The mixed plan has a 25% commit-fault rate over 24
            // transfers; a run where nothing fired would mean the plan
            // is not actually installed.
            assert!(
                !report.fault_log.is_empty(),
                "seed {seed} order {order:?} injected nothing:\n{report}"
            );
        }
    }
}

#[test]
fn same_seed_same_fault_log_and_report() {
    for seed in PINNED_SEEDS {
        let a = run_banking_chaos(&chaos_config(seed, FtOrder::FtOutsideTx)).unwrap();
        let b = run_banking_chaos(&chaos_config(seed, FtOrder::FtOutsideTx)).unwrap();
        assert_eq!(a.fault_log, b.fault_log, "fault log diverged for seed {seed}");
        assert_eq!(a, b, "report diverged for seed {seed}");
    }
}

#[test]
fn different_seeds_draw_different_faults() {
    let a = run_banking_chaos(&chaos_config(7, FtOrder::FtOutsideTx)).unwrap();
    let b = run_banking_chaos(&chaos_config(1_234, FtOrder::FtOutsideTx)).unwrap();
    assert_ne!(a.fault_log, b.fault_log, "distinct seeds produced identical fault streams");
}

/// The §3 distinguisher: one transient fault scheduled at the very
/// first commit attempt.
fn commit_fault_config(order: FtOrder) -> ChaosConfig {
    ChaosConfig {
        seed: 11,
        plan: FaultPlan::new(11).at(FaultOp::TxCommit, 1, FaultKind::Transient),
        order,
        transfers: 4,
        ..ChaosConfig::default()
    }
}

#[test]
fn ft_outside_tx_retries_the_whole_transaction() {
    let report = run_banking_chaos(&commit_fault_config(FtOrder::FtOutsideTx)).unwrap();
    assert!(report.degraded_gracefully(), "{report}");
    // The faulted commit rolls back; the retry runs a *fresh*
    // transaction, so every call still succeeds and one extra
    // transaction was begun.
    assert_eq!(report.succeeded, report.attempted, "{report}");
    assert_eq!(report.tx.begun, u64::from(report.attempted) + 1, "{report}");
    assert_eq!(report.tx.rolled_back, 1, "{report}");
    assert_eq!(report.tx.committed, u64::from(report.attempted), "{report}");
    assert_eq!(report.fault_log.injected_at(FaultOp::TxCommit), 1, "{report}");
}

#[test]
fn tx_outside_ft_must_not_retry_a_failed_commit() {
    let report = run_banking_chaos(&commit_fault_config(FtOrder::TxOutsideFt)).unwrap();
    assert!(report.degraded_gracefully(), "{report}");
    // The commit sits outside the retry loop: the fault aborts the
    // first call and no extra transaction is begun.
    assert_eq!(report.succeeded, report.attempted - 1, "{report}");
    assert_eq!(report.tx.begun, u64::from(report.attempted), "{report}");
    assert_eq!(report.tx.rolled_back, 1, "{report}");
    assert_eq!(report.tx.committed, u64::from(report.attempted) - 1, "{report}");
    assert_eq!(report.typed_failures.len(), 1, "{report}");
    assert!(report.typed_failures[0].contains("transaction aborted"), "{report}");
}

#[test]
fn breaker_opens_after_threshold_and_fails_fast() {
    let cfg = ChaosConfig {
        seed: 5,
        plan: FaultPlan::new(5)
            .at(FaultOp::TxCommit, 1, FaultKind::Transient)
            .at(FaultOp::TxCommit, 2, FaultKind::Transient)
            .at(FaultOp::TxCommit, 3, FaultKind::Transient),
        order: FtOrder::FtOutsideTx,
        transfers: 6,
        retry_transfer: false, // max_attempts 1: every fault is a breaker strike
        breaker_threshold: 3,
        breaker_cooldown_us: 60_000_000, // stays open for the rest of the run
        ..ChaosConfig::default()
    };
    let report = run_banking_chaos(&cfg).unwrap();
    assert!(report.degraded_gracefully(), "{report}");
    assert_eq!(report.succeeded, 0, "{report}");
    assert_eq!(report.fault_log.breaker_opens(), 1, "{report}");
    assert_eq!(report.breaker_state.as_deref(), Some("open"), "{report}");
    // First three calls fail on the injected commit faults, the rest
    // are rejected by the open breaker without reaching the middleware.
    assert_eq!(report.tx.begun, 3, "{report}");
    let circuit_open = report.typed_failures.iter().filter(|e| e.contains("circuit open")).count();
    assert_eq!(circuit_open, 3, "{report}");
}

#[test]
fn partitioned_server_fails_typed_and_conserves_balances() {
    let cfg = ChaosConfig {
        seed: 3,
        plan: FaultPlan::new(3).at(
            FaultOp::BusSend,
            1,
            FaultKind::Partition { node: "server".to_owned(), for_us: 3_600_000_000 },
        ),
        order: FtOrder::FtOutsideTx,
        transfers: 5,
        ..ChaosConfig::default()
    };
    let report = run_banking_chaos(&cfg).unwrap();
    assert!(report.degraded_gracefully(), "{report}");
    // Nothing reaches the server: no transactions, no transfers, no
    // money moved.
    assert_eq!(report.succeeded, 0, "{report}");
    assert_eq!(report.tx.begun, 0, "{report}");
    assert_eq!(report.balance_a1, 1_000, "{report}");
    assert_eq!(report.balance_a2, 50, "{report}");
    assert!(
        report.typed_failures.iter().all(|e| e.contains("partitioned")),
        "expected only partition errors:\n{report}"
    );
}

#[test]
fn latency_spikes_slow_the_run_but_nothing_fails() {
    let base = run_banking_chaos(&ChaosConfig::default()).unwrap();
    let cfg = ChaosConfig {
        plan: FaultPlan::new(42).with_latency_spike(1.0, 5_000),
        ..ChaosConfig::default()
    };
    let slow = run_banking_chaos(&cfg).unwrap();
    assert!(slow.degraded_gracefully(), "{slow}");
    assert_eq!(slow.succeeded, slow.attempted, "{slow}");
    assert!(
        slow.now_us > base.now_us,
        "spikes must cost sim time: {} vs {}",
        slow.now_us,
        base.now_us
    );
    assert!(!slow.fault_log.is_empty(), "{slow}");
}

fn traced(cfg: &ChaosConfig) -> (comet::ChaosReport, Trace) {
    let obs = Collector::enabled();
    let report = run_banking_chaos_traced(cfg, &obs).unwrap();
    (report, obs.take())
}

#[test]
fn same_seed_same_trace_byte_for_byte() {
    for seed in PINNED_SEEDS {
        let cfg = chaos_config(seed, FtOrder::FtOutsideTx);
        let (ra, ta) = traced(&cfg);
        let (rb, tb) = traced(&cfg);
        assert_eq!(ra, rb, "report diverged for seed {seed}");
        assert!(!ta.is_empty(), "trace empty for seed {seed}");
        assert_eq!(
            ta.to_chrome_json(),
            tb.to_chrome_json(),
            "trace diverged for seed {seed} despite identical config"
        );
    }
}

#[test]
fn disabled_collector_leaves_run_and_trace_untouched() {
    let cfg = chaos_config(7, FtOrder::FtOutsideTx);
    let plain = run_banking_chaos(&cfg).unwrap();
    let obs = Collector::disabled();
    let silent = run_banking_chaos_traced(&cfg, &obs).unwrap();
    assert_eq!(plain, silent, "a disabled collector must not perturb the run");
    assert!(obs.take().is_empty(), "a disabled collector must record nothing");
}

#[test]
fn every_fault_log_record_appears_in_the_trace() {
    let cfg = chaos_config(7, FtOrder::FtOutsideTx);
    let (report, trace) = traced(&cfg);
    assert!(!report.fault_log.is_empty(), "{report}");
    let fault_events: Vec<_> = trace.events.iter().filter(|e| e.cat == "fault").collect();
    assert_eq!(
        fault_events.len(),
        report.fault_log.len(),
        "every FaultLog record must bridge to exactly one trace event"
    );
    for (i, (event, record)) in fault_events.iter().zip(report.fault_log.records()).enumerate() {
        assert_eq!(
            Trace::attr(&event.attrs, "log_seq"),
            Some(i.to_string().as_str()),
            "fault event {i} lost its log position"
        );
        assert_eq!(event.at_us, record.at_us, "fault event {i} drifted in sim time");
        // Injection happens while a transfer call is on the stack, so
        // the event's span-ancestor chain passes through a runtime span.
        let mut span = event.span;
        let mut in_call = false;
        while let Some(id) = span {
            let s = &trace.spans[id as usize];
            in_call |= s.cat == "runtime";
            span = s.parent;
        }
        assert!(in_call, "fault event {i} is not nested inside a call span");
    }
}

#[test]
fn golden_text_tree_for_pinned_seed_seven() {
    let cfg = ChaosConfig {
        seed: 7,
        plan: mixed_plan(7),
        order: FtOrder::FtOutsideTx,
        transfers: 6,
        ..ChaosConfig::default()
    };
    let (_, trace) = traced(&cfg);
    let tree = trace.to_text_tree();
    let golden = support::golden("chaos_seed7_tree.txt", &tree);
    assert_eq!(
        tree, golden,
        "seed-7 trace tree drifted from the golden; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p comet --test chaos"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// §3 as a trace property: for any precedence order and workload
    /// length, the top-level concern spans appear in exactly the
    /// applied-concern order.
    #[test]
    fn concern_span_order_is_application_order(
        ft_outside in any::<bool>(),
        transfers in 1u32..6,
        seed in any::<u8>(),
    ) {
        let order = if ft_outside { FtOrder::FtOutsideTx } else { FtOrder::TxOutsideFt };
        let cfg = ChaosConfig {
            seed: u64::from(seed),
            plan: mixed_plan(u64::from(seed)),
            order,
            transfers,
            ..ChaosConfig::default()
        };
        let (_, trace) = traced(&cfg);
        let concern_roots: Vec<&str> = trace
            .roots()
            .into_iter()
            .filter(|s| s.cat == "lifecycle" && s.name.starts_with("concern:"))
            .map(|s| &s.name["concern:".len()..])
            .collect();
        prop_assert_eq!(concern_roots, order.concerns().to_vec());
    }
}

/// The wide sweep CI runs with `--ignored`: 100 random seeds through a
/// mixed plan in both precedence orders.
#[test]
#[ignore = "wide seed sweep; run explicitly or in the CI chaos job"]
fn wide_seed_sweep_never_degrades_ungracefully() {
    for seed in 0..100u64 {
        for order in [FtOrder::FtOutsideTx, FtOrder::TxOutsideFt] {
            let report = run_banking_chaos(&chaos_config(seed, order)).unwrap();
            assert!(
                report.degraded_gracefully(),
                "seed {seed} order {order:?} violated the degradation contract:\n{report}"
            );
            assert_eq!(
                report.balance_a1 + report.balance_a2,
                1_050,
                "seed {seed} order {order:?} lost money:\n{report}"
            );
        }
    }
}
