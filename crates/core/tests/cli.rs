//! Integration tests driving the `comet-cli` binary end to end over
//! temporary XMI files.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_comet-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comet-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn new_inspect_apply_roundtrip() {
    let pim = temp_path("pim.xmi");
    let psm = temp_path("psm.xmi");
    let aspect = temp_path("tx.aj");

    let out = cli().args(["new", pim.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote sample PIM"));

    let out = cli()
        .args([
            "apply",
            pim.to_str().unwrap(),
            "transactions",
            "methods=Bank.transfer",
            "isolation=serializable",
            "-o",
            psm.to_str().unwrap(),
            "--aspect-out",
            aspect.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied transactions<"));
    assert!(stdout.contains("modified 1"));

    // The refined model inspects cleanly and shows the mark.
    let out = cli().args(["inspect", psm.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("well-formed: yes"));
    assert!(stdout.contains("transfer() «Transactional»"));

    // The aspect artifact was emitted.
    let artifact = std::fs::read_to_string(&aspect).unwrap();
    assert!(artifact.contains("pointcut pc0(): execution(Bank.transfer);"));
    assert!(artifact.contains("tx.begin"));

    for p in [pim, psm, aspect] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn apply_dry_run_reports_without_writing() {
    let pim = temp_path("dry-pim.xmi");
    cli().args(["new", pim.to_str().unwrap()]).output().unwrap();
    let pristine = std::fs::read_to_string(&pim).unwrap();

    let out = cli()
        .args([
            "apply",
            pim.to_str().unwrap(),
            "transactions",
            "methods=Bank.transfer",
            "--dry-run",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("would apply transactions<"));
    assert!(stdout.contains("dry run: model unchanged"));
    // The input file is byte-identical: nothing was written.
    assert_eq!(std::fs::read_to_string(&pim).unwrap(), pristine);

    let _ = std::fs::remove_file(pim);
}

#[test]
fn concerns_lists_the_standard_library() {
    let out = cli().arg("concerns").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for concern in
        ["distribution", "transactions", "security", "logging", "concurrency", "persistence"]
    {
        assert!(stdout.contains(concern), "missing {concern}");
    }
    assert!(stdout.contains("(required)"));
}

#[test]
fn generate_lists_the_four_backends() {
    let out = cli().args(["generate", "--list-backends"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "java-functional  Java-flavoured woven system source (functional generator + woven aspects)\n\
         java-monolithic  tangled monolithic Java baseline (concern code inlined from the PSM marks)\n\
         rust-skeleton    typed Rust skeleton lowered from the woven IR (intrinsics preserved as rt:: calls)\n\
         report           deterministic model + concern summary (element counts, advised join points, tangling)\n"
    );
}

#[test]
fn run_fault_free_reports_all_successes() {
    let out = cli().args(["run", "--seed", "9", "--transfers", "6"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos run: 6/6 transfers succeeded"), "{stdout}");
    assert!(stdout.contains("(sum 1050)"), "{stdout}");
    assert!(stdout.contains("fault log (0 record(s))"), "{stdout}");
}

#[test]
fn run_with_plan_prints_fault_log_and_degradation_summary() {
    let plan = temp_path("plan.toml");
    std::fs::write(&plan, "seed = 7\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n").unwrap();

    // FT outside tx (default order): the faulted commit is retried and
    // every transfer still succeeds; the run is graceful → exit 0.
    let out = cli()
        .args(["run", "--faults", plan.to_str().unwrap(), "--transfers", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos run: 4/4 transfers succeeded"), "{stdout}");
    assert!(stdout.contains("5 begun, 4 committed, 1 rolled back"), "{stdout}");
    assert!(stdout.contains("inject tx.commit: transient"), "{stdout}");

    // The opposite order must not retry the failed commit.
    let out = cli()
        .args([
            "run",
            "--faults",
            plan.to_str().unwrap(),
            "--order",
            "tx-outside-ft",
            "--transfers",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos run: 3/4 transfers succeeded"), "{stdout}");
    assert!(stdout.contains("typed: call 0: transaction aborted"), "{stdout}");

    // --seed overrides the plan seed; identical seeds reproduce the run.
    let a =
        cli().args(["run", "--faults", plan.to_str().unwrap(), "--seed", "123"]).output().unwrap();
    let b =
        cli().args(["run", "--faults", plan.to_str().unwrap(), "--seed", "123"]).output().unwrap();
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce the identical report");

    let _ = std::fs::remove_file(plan);
}

#[test]
fn pipeline_with_faults_appends_chaos_run() {
    let plan = temp_path("pipeline-plan.toml");
    std::fs::write(&plan, "seed = 5\n\n[latency]\nprobability = 1.0\nspike_us = 3000\n").unwrap();
    let out = cli().args(["pipeline", "--faults", plan.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("generated"), "{stdout}");
    assert!(stdout.contains("--- chaos run ---"), "{stdout}");
    assert!(stdout.contains("inject bus.send: latency 3000"), "{stdout}");
    assert!(stdout.contains("12/12 transfers succeeded"), "{stdout}");
    let _ = std::fs::remove_file(plan);
}

#[test]
fn run_rejects_bad_fault_arguments() {
    let out = cli().args(["run", "--faults", "/nonexistent/plan.toml"]).output().unwrap();
    assert!(!out.status.success());

    let plan = temp_path("bad-plan.toml");
    std::fs::write(&plan, "[probabilities]\n\"fs.read\" = 0.5\n").unwrap();
    let out = cli().args(["run", "--faults", plan.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown operation"));
    let _ = std::fs::remove_file(plan);

    let out = cli().args(["run", "--order", "sideways"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--order"));
}

#[test]
fn run_trace_is_deterministic_and_drives_provenance() {
    let plan = temp_path("trace-plan.toml");
    std::fs::write(&plan, "seed = 7\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n").unwrap();
    let trace_a = temp_path("trace-a.json");
    let trace_b = temp_path("trace-b.json");
    for trace in [&trace_a, &trace_b] {
        let out = cli()
            .args([
                "run",
                "--faults",
                plan.to_str().unwrap(),
                "--seed",
                "7",
                "--transfers",
                "4",
                "--trace",
                trace.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("wrote trace to"));
    }
    let a = std::fs::read_to_string(&trace_a).unwrap();
    let b = std::fs::read_to_string(&trace_b).unwrap();
    assert_eq!(a, b, "same seed + same plan must write byte-identical traces");
    // Chrome trace-event shape: the Perfetto loader's minimum contract.
    assert!(a.starts_with("{\"displayTimeUnit\""), "{}", &a[..80.min(a.len())]);
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("\"name\":\"concern:distribution\""));
    assert!(a.contains("\"name\":\"fault.injected\""));

    // The trace answers provenance queries end to end.
    let out = cli()
        .args(["provenance", "Bank.transfer", "--trace", trace_a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("provenance: Bank.transfer"), "{stdout}");
    assert!(stdout.contains("concern transactions"), "{stdout}");
    assert!(stdout.contains("at execution(Bank.transfer)"), "{stdout}");
    assert!(stdout.contains("call Bank.transfer"), "{stdout}");

    // A query nothing touched reports cleanly instead of erroring.
    let out = cli()
        .args(["provenance", "Nonexistent.widget", "--trace", trace_a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no provenance for"));

    // provenance without --trace is an error.
    let out = cli().args(["provenance", "Bank.transfer"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    for p in [plan, trace_a, trace_b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn pipeline_trace_covers_the_whole_pipeline() {
    let trace = temp_path("pipeline-trace.json");
    let out = cli()
        .args(["pipeline", "--seed", "7", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&trace).unwrap();
    // Concern spans in application order (§3 precedence), then codegen,
    // weave, and the chaos run's runtime spans.
    let order = ["concern:distribution", "concern:transactions", "concern:security"];
    let positions: Vec<usize> =
        order.iter().map(|n| json.find(&format!("\"name\":\"{n}\"")).expect(n)).collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "concern spans out of order");
    for name in ["\"generate\"", "\"weave\"", "\"weave.advice\"", "\"call:Bank.transfer\""] {
        assert!(json.contains(name), "trace missing {name}");
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn metrics_reports_in_text_and_json() {
    let out = cli().arg("metrics").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("methods="), "{stdout}");
    assert!(stdout.contains("net:"), "{stdout}");

    let out = cli().args(["metrics", "--json"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"tangling_ratio\""), "{stdout}");
    assert!(stdout.contains("\"concerns\""), "{stdout}");

    let out = cli().args(["metrics", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn usage_errors_exit_two_with_usage_on_stderr() {
    // Unknown subcommand: exit 2, the error plus the full usage text on
    // stderr, nothing on stdout.
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
    assert!(out.stdout.is_empty());

    // Bad flags are usage errors too.
    let out = cli().args(["serve", "--shards", "zero"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards"));

    let out = cli().args(["metrics", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Runtime failures keep exit 1, distinct from usage errors.
    let out = cli().args(["inspect", "/nonexistent/m.xmi"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // --help and bare invocation print usage to stdout and exit 0.
    for args in [&["--help"][..], &["help"][..], &[][..]] {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn serve_is_deterministic_across_shard_counts() {
    let base = ["serve", "--seed", "7"];
    let one = cli().args(base).args(["--shards", "1"]).output().unwrap();
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    let four = cli().args(base).args(["--shards", "4"]).output().unwrap();
    assert!(four.status.success(), "{}", String::from_utf8_lossy(&four.stderr));
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&four.stdout),
        "serve stdout must be byte-identical across shard counts"
    );
    let stdout = String::from_utf8_lossy(&one.stdout);
    assert!(stdout.contains("serve:"), "{stdout}");
    assert!(stdout.contains("latency p50"), "{stdout}");

    // JSON mode carries the same determinism and the report keys.
    let a = cli().args(["serve", "--seed", "7", "--shards", "1", "--json"]).output().unwrap();
    let b = cli().args(["serve", "--seed", "7", "--shards", "4", "--json"]).output().unwrap();
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout);
    let json = String::from_utf8_lossy(&a.stdout);
    for key in ["\"issued\"", "\"p50_us\"", "\"tenants\"", "\"outcome_hash\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn serve_accepts_workload_and_fault_plans_and_writes_traces() {
    let workload = temp_path("serve-workload.toml");
    std::fs::write(&workload, "seed = 9\ntenants = 2\nclients = 2\nrequests = 6\n").unwrap();
    let faults = temp_path("serve-faults.toml");
    std::fs::write(&faults, "seed = 9\n\n[schedule]\n\"tx.commit@1\" = \"transient\"\n").unwrap();
    let trace = temp_path("serve-trace.json");

    let out = cli()
        .args([
            "serve",
            "--workload",
            workload.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            faults.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t00"), "{stdout}");
    assert!(stdout.contains("t01"), "{stdout}");
    assert!(stdout.contains("wrote trace to"), "{stdout}");
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("serve.request"));

    // A malformed workload plan is a runtime failure (exit 1).
    std::fs::write(&workload, "tenants = 0\n").unwrap();
    let out = cli().args(["serve", "--workload", workload.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    for p in [workload, faults, trace] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn serve_writes_prometheus_metrics_identically_across_shard_counts() {
    let prom_one = temp_path("serve-1.prom");
    let prom_four = temp_path("serve-4.prom");
    let base = ["serve", "--seed", "7"];
    let one = cli()
        .args(base)
        .args(["--shards", "1", "--metrics", prom_one.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    assert!(String::from_utf8_lossy(&one.stdout).contains("wrote metrics to"));
    let four = cli()
        .args(base)
        .args(["--shards", "4", "--metrics", prom_four.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(four.status.success(), "{}", String::from_utf8_lossy(&four.stderr));
    let a = std::fs::read_to_string(&prom_one).unwrap();
    let b = std::fs::read_to_string(&prom_four).unwrap();
    assert_eq!(a, b, "Prometheus exposition must be byte-identical across shard counts");
    assert!(a.contains("# TYPE comet_serve_requests_total counter"), "{a}");
    assert!(a.contains("comet_serve_requests_total{"), "{a}");
    assert!(a.contains("comet_serve_latency_us_bucket{"), "{a}");

    // A .json path switches the exporter; the document parses.
    let json_path = temp_path("serve-metrics.json");
    let out = cli()
        .args(base)
        .args(["--shards", "2", "--metrics", json_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&json_path).unwrap();
    assert!(comet_obs::JsonValue::parse(&doc).is_ok(), "{doc}");
    assert!(doc.contains("comet_serve_requests_total"));

    for p in [prom_one, prom_four, json_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn serve_slo_gate_passes_and_fails_on_burn_rate() {
    // --slo without an [slo] section is a usage error.
    let out = cli().args(["serve", "--seed", "7", "--slo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[slo]"));

    // A generous target passes and prints per-tenant verdicts.
    let workload = temp_path("serve-slo.toml");
    std::fs::write(
        &workload,
        "seed = 9\ntenants = 2\nclients = 2\nrequests = 6\n\n[slo]\ntarget_us = 10000000\n",
    )
    .unwrap();
    let out =
        cli().args(["serve", "--workload", workload.to_str().unwrap(), "--slo"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("slo t00:"), "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");

    // An impossible target breaches and exits non-zero.
    std::fs::write(
        &workload,
        "seed = 9\ntenants = 2\nclients = 2\nrequests = 6\n\n[slo]\ntarget_us = 1\n",
    )
    .unwrap();
    let out =
        cli().args(["serve", "--workload", workload.to_str().unwrap(), "--slo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BREACH"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SLO breached"));

    let _ = std::fs::remove_file(workload);
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Unknown concern.
    let pim = temp_path("err-pim.xmi");
    cli().args(["new", pim.to_str().unwrap()]).output().unwrap();
    let out = cli().args(["apply", pim.to_str().unwrap(), "astrology"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown concern"));

    // Failing precondition (method does not exist).
    let out = cli()
        .args(["apply", pim.to_str().unwrap(), "transactions", "methods=Bank.launder"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(pim);

    // Missing file.
    let out = cli().args(["inspect", "/nonexistent/m.xmi"]).output().unwrap();
    assert!(!out.status.success());

    // Help exits zero.
    let out = cli().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
