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
//!   around-advice) with the indexed parallel `weave` versus the
//!   sequential `weave_naive` baseline.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_faults_json
//! [output-path]` (default `BENCH_faults.json` in the working
//! directory).

use comet::chaos::{banking_bodies, executable_banking_pim, workload, INITIAL_BALANCES};
use comet_aop::{Aspect, Weaver};
use comet_codegen::FunctionalGenerator;
use comet_interp::{Interp, Value};
use comet_middleware::MiddlewareConfig;
use comet_transform::{ParamSet, ParamValue};
use std::hint::black_box;
use std::time::Instant;

const TRANSFERS: u32 = 200;
const WARMUP: usize = 2;
const SAMPLES: usize = 9;

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

fn dist_si() -> ParamSet {
    ParamSet::new()
        .with("server_class", ParamValue::from("Bank"))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(vec!["transfer".to_owned(), "getBalance".to_owned()]))
}

fn tx_si() -> ParamSet {
    ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("isolation", ParamValue::from("serializable"))
}

fn ft_si() -> ParamSet {
    ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("idempotent", ParamValue::from(vec!["Bank.transfer".to_owned()]))
}

/// Refines the executable banking PIM with the named concerns and
/// returns the woven interpreter plus the remote bank handle and the
/// two account handles.
fn build_interp(concerns: &[&str]) -> (Interp, Value, Value, Value) {
    let mut model = executable_banking_pim();
    let mut aspects: Vec<Aspect> = Vec::new();
    for name in concerns {
        let pair = comet_concerns::by_name(name).expect("standard concern");
        let si = match *name {
            "distribution" => dist_si(),
            "transactions" => tx_si(),
            _ => ft_si(),
        };
        let (cmt, ca) = pair.specialize(si).expect("valid Si");
        cmt.apply(&mut model).expect("preconditions hold");
        aspects.push(ca);
    }
    let functional = FunctionalGenerator::new().generate(&model, &banking_bodies());
    let woven = Weaver::new(aspects).weave(&functional).expect("weaves").program;
    let mut interp = Interp::with_config(woven, MiddlewareConfig::default());
    interp.add_node("client");
    interp.add_node("server");
    let bank = interp.create_on("Bank", "server").expect("generated");
    let a1 = interp.create_on("Account", "server").expect("generated");
    let a2 = interp.create_on("Account", "server").expect("generated");
    interp.set_field(&a1, "number", Value::from("A-1")).expect("field");
    interp.set_field(&a2, "number", Value::from("A-2")).expect("field");
    interp.set_field(&bank, "a1", a1.clone()).expect("field");
    interp.set_field(&bank, "a2", a2.clone()).expect("field");
    interp.set_field(&a1, "balance", Value::Int(INITIAL_BALANCES.0)).expect("field");
    interp.set_field(&a2, "balance", Value::Int(INITIAL_BALANCES.1)).expect("field");
    interp.call(bank.clone(), "registerRemote", vec![]).expect("distribution applied");
    interp.middleware_mut().bus.set_current_node("client").expect("node exists");
    (interp, bank, a1, a2)
}

/// One benchmark iteration: reset balances, run the deterministic
/// transfer workload. Every call must succeed — this is the fault-free
/// path.
fn run_workload(interp: &mut Interp, bank: &Value, a1: &Value, a2: &Value) {
    interp.set_field(a1, "balance", Value::Int(INITIAL_BALANCES.0)).expect("field");
    interp.set_field(a2, "balance", Value::Int(INITIAL_BALANCES.1)).expect("field");
    for i in 0..TRANSFERS {
        let (from, to, amount) = workload(i);
        let args = vec![Value::from(from), Value::from(to), Value::Int(amount)];
        black_box(interp.call(bank.clone(), "transfer", args).expect("fault-free call"));
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_faults.json".to_owned());

    let baseline_concerns = ["distribution", "transactions"];
    let ft_concerns = ["distribution", "faulttolerance", "transactions"];

    let (mut base_interp, base_bank, base_a1, base_a2) = build_interp(&baseline_concerns);
    let (mut ft_interp, ft_bank, ft_a1, ft_a2) = build_interp(&ft_concerns);

    eprintln!("timing fault-free execution, baseline (dist+tx) ...");
    let exec_before =
        median_secs(|| run_workload(&mut base_interp, &base_bank, &base_a1, &base_a2));
    eprintln!("timing fault-free execution, with FT advice ...");
    let exec_after = median_secs(|| run_workload(&mut ft_interp, &ft_bank, &ft_a1, &ft_a2));

    // Weave cost of the FT-bearing aspect set: indexed parallel weave
    // versus the sequential full-scan baseline.
    let mut model = executable_banking_pim();
    let mut aspects = Vec::new();
    for name in ft_concerns {
        let pair = comet_concerns::by_name(name).expect("standard concern");
        let si = match name {
            "distribution" => dist_si(),
            "transactions" => tx_si(),
            _ => ft_si(),
        };
        let (cmt, ca) = pair.specialize(si).expect("valid Si");
        cmt.apply(&mut model).expect("preconditions hold");
        aspects.push(ca);
    }
    let functional = FunctionalGenerator::new().generate(&model, &banking_bodies());
    let weaver = Weaver::new(aspects);
    let a = weaver.weave(&functional).expect("weaves");
    let b = weaver.weave_naive(&functional).expect("weaves");
    assert_eq!(a.program, b.program, "indexed and naive weaves diverged");
    let shadows = a.trace.len();

    eprintln!("timing weave_naive (before) ...");
    let weave_before = median_secs(|| {
        black_box(weaver.weave_naive(black_box(&functional)).expect("weaves"));
    });
    eprintln!("timing weave (after) ...");
    let weave_after = median_secs(|| {
        black_box(weaver.weave(black_box(&functional)).expect("weaves"));
    });

    let per_call_us = (exec_after - exec_before) / f64::from(TRANSFERS) * 1e6;
    let json = format!(
        "{{\n  \"experiment\": \"pr3_fault_tolerance_overhead\",\n  \"workload\": {{\"transfers\": {TRANSFERS}, \"baseline_concerns\": \"distribution+transactions\", \"ft_concerns\": \"distribution+faulttolerance+transactions\"}},\n  \"fault_free_execution\": {{\n    \"baseline\": {{\"impl\": \"woven dist+tx, no FT advice\", \"median_secs\": {exec_before:.6}}},\n    \"with_ft\": {{\"impl\": \"woven dist+ft+tx (retry loop + breaker + deadline bookkeeping)\", \"median_secs\": {exec_after:.6}}},\n    \"overhead_ratio\": {:.3},\n    \"overhead_us_per_call\": {per_call_us:.3}\n  }},\n  \"weave\": {{\n    \"advice_applications\": {shadows},\n    \"before\": {{\"impl\": \"weave_naive (sequential full-scan)\", \"median_secs\": {weave_before:.6}}},\n    \"after\": {{\"impl\": \"weave (per-class match tables + per-class parallel)\", \"median_secs\": {weave_after:.6}}},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        exec_after / exec_before,
        weave_before / weave_after,
    );
    std::fs::write(&out_path, &json).expect("writable output path");
    println!("{json}");
    eprintln!(
        "wrote {out_path} (fault-free FT overhead {:.2}x, {per_call_us:.1}µs/call)",
        exec_after / exec_before
    );
}
