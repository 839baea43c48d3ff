//! Emits `BENCH_faults.json`: the cost of the fault-tolerance concern
//! when nothing goes wrong — the price every call pays for robustness.
//!
//! Two measurements:
//! * **fault-free execution overhead** — the woven banking workload run
//!   with {distribution, transactions} (baseline) versus
//!   {distribution, faulttolerance, transactions} (retry loop, breaker
//!   admission/record, deadline bookkeeping on every call), no fault
//!   plan installed either way;
//! * **weave cost** — weaving the three-aspect set (including the FT
//!   around-advice) with `Weaver::weave`.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_faults_json
//! [output-path]` (default `BENCH_faults.json` in the working
//! directory).

use comet_aop::Weaver;
use comet_bench::harness::{median_secs, Report};
use comet_bench::{obj, refined_banking, run_transfers, woven_banking};
use std::hint::black_box;

const TRANSFERS: u32 = 200;
const REPS: (usize, usize) = (2, 9);

fn main() {
    let baseline_concerns = ["distribution", "transactions"];
    let ft_concerns = ["distribution", "faulttolerance", "transactions"];

    let (mut base_interp, base_bank, base_a1, base_a2) = woven_banking(&baseline_concerns);
    let (mut ft_interp, ft_bank, ft_a1, ft_a2) = woven_banking(&ft_concerns);

    eprintln!("timing fault-free execution, baseline (dist+tx) ...");
    let exec_before = median_secs(REPS, || {
        run_transfers(&mut base_interp, &base_bank, &base_a1, &base_a2, TRANSFERS);
    });
    eprintln!("timing fault-free execution, with FT advice ...");
    let exec_after = median_secs(REPS, || {
        run_transfers(&mut ft_interp, &ft_bank, &ft_a1, &ft_a2, TRANSFERS);
    });

    // Weave cost of the FT-bearing aspect set.
    let (functional, aspects) = refined_banking(&ft_concerns);
    let weaver = Weaver::new(aspects);
    let shadows = weaver.weave(&functional).expect("weaves").trace.len();

    eprintln!("timing weave ...");
    let weave_after = median_secs(REPS, || {
        black_box(weaver.weave(black_box(&functional)).expect("weaves"));
    });

    let per_call_us = (exec_after - exec_before) / f64::from(TRANSFERS) * 1e6;
    let out_path = Report::new("pr3_fault_tolerance_overhead")
        .with(
            "workload",
            obj! {
                "transfers": u64::from(TRANSFERS),
                "baseline_concerns": "distribution+transactions",
                "ft_concerns": "distribution+faulttolerance+transactions",
            },
        )
        .with(
            "fault_free_execution",
            obj! {
                "baseline": obj!{"impl": "woven dist+tx, no FT advice", "median_secs": exec_before},
                "with_ft": obj! {
                    "impl": "woven dist+ft+tx (retry loop + breaker + deadline bookkeeping)",
                    "median_secs": exec_after,
                },
                "overhead_ratio": exec_after / exec_before,
                "overhead_us_per_call": per_call_us,
            },
        )
        .with(
            "weave",
            obj! {
                "advice_applications": shadows,
                "after": obj! {
                    "impl": "weave (per-class match tables + per-class parallel)",
                    "median_secs": weave_after,
                },
            },
        )
        .write("BENCH_faults.json");
    eprintln!(
        "wrote {out_path} (fault-free FT overhead {:.2}x, {per_call_us:.1}µs/call)",
        exec_after / exec_before
    );
}
