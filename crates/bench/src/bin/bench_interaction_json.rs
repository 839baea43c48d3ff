//! Emits `BENCH_interaction.json`: the cost profile of critical-pair
//! interaction analysis and of the serve-time admission gate it feeds.
//!
//! Two measurements:
//!
//! * **matrix build** — full analysis of the 7 standard serving
//!   bindings (21 cells, each backed by the weave-both-orders
//!   differential oracle unless a static detector vetoes it first).
//!   This is the once-per-run cost `BankingFactory::with_steps` pays.
//! * **admission lookup** — the per-request cost of consulting the
//!   matrix for one `(applied, requested)` pair, the gate's hot path.
//!   Reported in nanoseconds per verdict lookup.
//!
//! Usage: `cargo run --release -p comet-bench --bin
//! bench_interaction_json [output-path]` (default
//! `BENCH_interaction.json` in the working directory).

use comet::serve_interaction_matrix;
use comet_bench::harness::{median_secs, Report};
use comet_bench::obj;
use std::hint::black_box;

const REPS: (usize, usize) = (1, 5);
const LOOKUPS: usize = 100_000;

fn main() {
    let steps: Vec<String> =
        comet_concerns::standard_pairs().iter().map(|p| p.concern().to_owned()).collect();

    let matrix = serve_interaction_matrix(&steps).expect("standard bindings analyse cleanly");
    let cells = matrix.concerns().len() * (matrix.concerns().len() - 1) / 2;
    let conflicts = matrix.conflicts().len();
    let order_sensitive = matrix.required_orders().len();

    eprintln!("timing matrix build over {} concerns ({cells} cells) ...", steps.len());
    let build_secs = median_secs(REPS, || {
        black_box(serve_interaction_matrix(black_box(&steps)).expect("valid bindings"));
    });

    eprintln!("timing admission verdict lookups ...");
    let names = matrix.concerns().to_vec();
    let lookup_secs = median_secs(REPS, || {
        let mut hits = 0usize;
        for i in 0..LOOKUPS {
            let a = &names[i % names.len()];
            let b = &names[(i / names.len() + 1 + i) % names.len()];
            if black_box(matrix.verdict(a, b)).is_some() {
                hits += 1;
            }
        }
        black_box(hits);
    });
    let lookup_ns = lookup_secs / LOOKUPS as f64 * 1e9;

    let out_path = Report::new("pr8_interaction_admission")
        .with(
            "matrix",
            obj! {
                "concerns": steps.len(),
                "cells": cells,
                "conflicts": conflicts,
                "order_sensitive": order_sensitive,
            },
        )
        .with("build_median_secs", build_secs)
        .with("lookup_median_ns", lookup_ns)
        .with("lookups_per_sample", LOOKUPS)
        .write("BENCH_interaction.json");
    eprintln!("wrote {out_path} (build {build_secs:.3}s, lookup {lookup_ns:.0}ns)");
}
