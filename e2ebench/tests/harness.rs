//! The benchmark's own checks: timing from outside must not change
//! what the program does, every plan must be runnable, and the metric
//! names the binary prints must be the ones `BENCHMARK.json` lists.

use comet::BankingFactory;
use comet_e2ebench::{check_benchmark_json, fnv1a64, kind_index, load_plan, TimedFactory, PLANS};
use comet_serve::{RunConfig, ServerCore, WorkloadPlan};

/// A small plan that reaches every request kind and every backend.
fn mixed_plan() -> WorkloadPlan {
    let mut plan = WorkloadPlan::new(7);
    plan.tenants = 4;
    plan.clients = 1;
    plan.requests = 40;
    plan.mix.snapshot = 0.2;
    plan.mix.generate_backends =
        comet_gen::Backend::ALL.iter().map(|b| (b.id().to_owned(), 1.0)).collect();
    plan
}

#[test]
fn timed_factory_changes_no_report_trace_or_metrics() {
    let plan = mixed_plan();
    let cfg = RunConfig { traced: true, metrics: true };
    for shards in [1, 2] {
        let plain = ServerCore::new(&plan, &BankingFactory::new(plan.seed, None), shards)
            .expect("valid plan")
            .run_with(&cfg);
        let timed_factory = TimedFactory::new(BankingFactory::new(plan.seed, None));
        let timed =
            ServerCore::new(&plan, &timed_factory, shards).expect("valid plan").run_with(&cfg);
        assert_eq!(plain.report, timed.report, "shards {shards}");
        assert_eq!(plain.trace, timed.trace, "shards {shards}");
        // The engine counters reach the snapshot only through
        // `counters()`, so a wrapper that dropped it would differ here.
        let metrics = timed.metrics.expect("metrics on");
        assert_eq!(plain.metrics.expect("metrics on"), metrics, "shards {shards}");
        assert!(metrics.to_prometheus().contains("comet_serve_gen_cache_hits_total"));

        let ledger = timed_factory.take_ledger();
        assert!(ledger.counter("gen_cache_hits") > 0, "counters are read at session drop");
        for kind in ["apply", "generate", "snapshot"] {
            assert!(!ledger.calls[kind_index(kind)].is_empty(), "no {kind} call was timed");
        }
        assert!(ledger.tenant_wall_ns() >= ledger.call_ns());
        assert_eq!(ledger.walls.len(), plan.tenants, "one wall per session");
        assert!(timed_factory.take_ledger().calls.iter().all(Vec::is_empty), "take drains");
    }
}

#[test]
fn every_workload_plan_parses_and_validates() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).expect("workloads directory") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable plan");
        let plan = load_plan(&text, 11).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(plan.seed, 11, "the benchmark's seed replaces the plan's");
        names.push(path.file_stem().expect("file name").to_string_lossy().into_owned());
    }
    names.sort();
    let mut embedded: Vec<String> = PLANS.iter().map(|(n, _)| (*n).to_owned()).collect();
    embedded.sort();
    assert_eq!(names, embedded, "every plan file is embedded, and nothing else");
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    check_benchmark_json(&text).unwrap();
    // A drifted list is caught.
    let renamed = text.replacen("\"setup_s\"", "\"set_up_s\"", 1);
    assert!(check_benchmark_json(&renamed).unwrap_err().contains("end_to_end"));
}

#[test]
fn fnv1a64_is_the_standard_hash() {
    // The published FNV-1a 64 test vectors.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
