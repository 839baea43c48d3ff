//! `bench_e2e_compare` — judges two sets of `bench_e2e_json` results.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin bench_e2e_compare -- \
//!     [--bench BENCHMARK.json] A.json... -- B.json...
//! ```
//!
//! Each file is a document `bench_e2e_json --out FILE` wrote (every
//! workload, one seed). A is the baseline — typically the parent
//! commit — and B the change, run interleaved. For every workload and
//! every end-to-end metric `BENCHMARK.json` lists, prints both sides'
//! median and quartiles and a verdict against the metric's bound:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not worse, but one side's spread (interquartile
//!   range over median) exceeds the bound, and not every B run beats
//!   every A run;
//! * `better` — B's median is better by more than the bound, or the
//!   spread is too wide but every B run beats every A run;
//! * `within bound` — otherwise.
//!
//! A workload whose runs failed operations or a correctness check on
//! the B side counts as worse. Exits 1 when anything is worse, 2 on
//! bad input.

use comet_e2ebench::{median, num, quartiles};
use comet_obs::JsonValue;
use std::process::ExitCode;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The workload names and end-to-end metrics `BENCHMARK.json` fixes.
fn benchmark(path: &str) -> Result<(Vec<String>, Vec<Metric>), String> {
    let bench = load(path)?;
    let bad = |what: &str| format!("{path}: {what}");
    let workloads = bench
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("no workloads list"))?
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("a workload has no name"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: num(m, "bound")?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("an end_to_end metric lacks name, better or bound"))?;
    Ok((workloads, metrics))
}

/// One workload's result object inside a `bench_e2e_json` document.
fn workload<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    doc.get("workloads")?.get(name)
}

/// The value of one end-to-end metric of one workload in every file.
fn values(docs: &[(String, JsonValue)], wl: &str, metric: &str) -> Result<Vec<f64>, String> {
    docs.iter()
        .map(|(path, doc)| {
            workload(doc, wl)
                .and_then(|w| w.get("e2e")?.get(metric))
                .and_then(|m| num(m, "value"))
                .ok_or_else(|| format!("{path}: no {wl} / {metric}"))
        })
        .collect()
}

/// Every run of the workload passed its checks without a failed
/// operation.
fn clean(docs: &[(String, JsonValue)], wl: &str) -> bool {
    docs.iter().all(|(_, doc)| {
        workload(doc, wl).is_some_and(|w| {
            w.get("correct") == Some(&JsonValue::Bool(true)) && num(w, "failed") == Some(0.0)
        })
    })
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if m.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    let b_beats_all_a = if m.lower_is_better {
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
    } else {
        b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
    };
    if worse_by > m.bound {
        "worse"
    } else if spread(a).max(spread(b)) > m.bound {
        if b_beats_all_a {
            "better"
        } else {
            "unresolved"
        }
    } else if -worse_by > m.bound {
        "better"
    } else {
        "within bound"
    }
}

fn run() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_path = "BENCHMARK.json".to_owned();
    if args.first().map(String::as_str) == Some("--bench") {
        if args.len() < 2 {
            return Err("--bench needs a path".to_owned());
        }
        bench_path = args.remove(1);
        args.remove(0);
    }
    let split = args.iter().position(|a| a == "--").ok_or("expected A.json... -- B.json...")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("each side needs at least one result file".to_owned());
    }
    let read = |paths: &[String]| -> Result<Vec<(String, JsonValue)>, String> {
        paths.iter().map(|p| Ok((p.clone(), load(p)?))).collect()
    };
    let (a, b) = (read(a_paths)?, read(b_paths)?);
    let (workloads, metrics) = benchmark(&bench_path)?;

    let mut regressed = false;
    println!(
        "{:<20} {:<16} {:>34} {:>34}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for wl in &workloads {
        for m in &metrics {
            let (va, vb) = (values(&a, wl, &m.name)?, values(&b, wl, &m.name)?);
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
            };
            let v = verdict(m, &va, &vb);
            regressed |= v == "worse";
            println!(
                "{wl:<20} {:<16} {:>34} {:>34}  {v} ({:.0}%)",
                m.name,
                side(&va),
                side(&vb),
                m.bound * 100.0
            );
        }
        if clean(&a, wl) && !clean(&b, wl) {
            regressed = true;
            println!("{wl:<20} B has failed operations or checks that A does not: worse");
        }
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e_compare: {e}");
            ExitCode::from(2)
        }
    }
}
