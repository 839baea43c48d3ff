//! Emits `BENCH_obs.json`: the cost of the observability layer on the
//! woven banking workload.
//!
//! Four measurements over the same fault-free workload (the interpreter
//! woven with {distribution, faulttolerance, transactions}):
//! * **plain** — the workload as the seed ran it: a disabled collector
//!   attached, no caller-side tracing (the baseline every other row is
//!   judged against);
//! * **disabled** — the fully instrumented driver (per-call span guards
//!   included) with a disabled collector: the zero-cost-when-disabled
//!   claim, expected within noise of `plain`;
//! * **enabled** — the same driver with an enabled collector recording
//!   spans, events, and intrinsic counters;
//! * **exporting** — `enabled` plus serializing the trace to Chrome
//!   trace-event JSON every run.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_obs_json
//! [output-path]` (default `BENCH_obs.json` in the working directory).

use comet::chaos::{workload, INITIAL_BALANCES};
use comet_bench::harness::{median_secs, Report};
use comet_bench::{obj, run_transfers, woven_banking};
use comet_interp::{Interp, Value};
use comet_obs::Collector;
use std::hint::black_box;

const TRANSFERS: u32 = 200;
const REPS: (usize, usize) = (2, 9);

/// The instrumented driver: [`run_transfers`] plus the chaos harness's
/// per-call `runtime` span, guarded exactly as production code guards
/// it.
fn run_traced(interp: &mut Interp, bank: &Value, a1: &Value, a2: &Value, obs: &Collector) {
    interp.set_field(a1, "balance", Value::Int(INITIAL_BALANCES.0)).expect("field");
    interp.set_field(a2, "balance", Value::Int(INITIAL_BALANCES.1)).expect("field");
    for i in 0..TRANSFERS {
        let (from, to, amount) = workload(i);
        let args = vec![Value::from(from), Value::from(to), Value::Int(amount)];
        let span = obs.is_enabled().then(|| {
            let s = obs.begin_span("runtime", "call:Bank.transfer", interp.middleware().now_us());
            obs.span_attr(s, "call_index", &i.to_string());
            s
        });
        black_box(interp.call(bank.clone(), "transfer", args).expect("fault-free call"));
        if let Some(s) = span {
            obs.span_attr(s, "outcome", "ok");
            obs.end_span(s, interp.middleware().now_us());
        }
    }
}

fn main() {
    let (mut interp, bank, a1, a2) =
        woven_banking(&["distribution", "faulttolerance", "transactions"]);

    eprintln!("timing plain workload (no tracing calls) ...");
    let plain = median_secs(REPS, || run_transfers(&mut interp, &bank, &a1, &a2, TRANSFERS));

    eprintln!("timing instrumented driver, collector disabled ...");
    let disabled_obs = Collector::disabled();
    interp.set_collector(disabled_obs.clone());
    let disabled = median_secs(REPS, || run_traced(&mut interp, &bank, &a1, &a2, &disabled_obs));

    eprintln!("timing instrumented driver, collector enabled ...");
    let enabled = median_secs(REPS, || {
        let obs = Collector::enabled();
        interp.set_collector(obs.clone());
        run_traced(&mut interp, &bank, &a1, &a2, &obs);
        black_box(obs.take());
    });

    eprintln!("timing instrumented driver, collector enabled + chrome export ...");
    let mut trace_bytes = 0usize;
    let exporting = median_secs(REPS, || {
        let obs = Collector::enabled();
        interp.set_collector(obs.clone());
        run_traced(&mut interp, &bank, &a1, &a2, &obs);
        let json = obs.take().to_chrome_json();
        trace_bytes = json.len();
        black_box(json);
    });

    let out_path = Report::new("pr4_observability_overhead")
        .with(
            "workload",
            obj! {
                "transfers": u64::from(TRANSFERS),
                "concerns": "distribution+faulttolerance+transactions",
            },
        )
        .with(
            "plain",
            obj! {"impl": "no tracing calls, disabled collector attached", "median_secs": plain},
        )
        .with(
            "disabled",
            obj! {
                "impl": "instrumented driver, disabled collector (one branch per probe)",
                "median_secs": disabled,
                "overhead_ratio": disabled / plain,
            },
        )
        .with(
            "enabled",
            obj! {
                "impl": "instrumented driver, enabled collector (spans+events+counters)",
                "median_secs": enabled,
                "overhead_ratio": enabled / plain,
            },
        )
        .with(
            "exporting",
            obj! {
                "impl": "enabled + chrome trace-event serialization",
                "median_secs": exporting,
                "overhead_ratio": exporting / plain,
                "trace_bytes": trace_bytes,
            },
        )
        .write("BENCH_obs.json");
    eprintln!(
        "wrote {out_path} (disabled {:.3}x, enabled {:.3}x, exporting {:.3}x vs plain)",
        disabled / plain,
        enabled / plain,
        exporting / plain
    );
}
