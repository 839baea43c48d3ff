//! Integration tests driving the `comet-cli` binary end to end over
//! temporary XMI files: the stdout of every canonical command against
//! the goldens under `tests/golden/cli/`, and the exit code and first
//! stderr line of malformed invocations.

use std::path::PathBuf;
use std::process::Command;

mod support;

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

/// Runs `comet-cli args`, checks that it exited 0 and returns stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = cli().args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// Every canonical command's stdout, byte for byte. A weaver pinned to
/// one thread and serving on four shards print what the defaults print.
#[test]
fn canonical_stdout_matches_the_goldens() {
    let cases: [(&str, &[&str]); 17] = [
        ("help.txt", &["help"]),
        ("concerns.txt", &["concerns"]),
        ("pipeline.txt", &["pipeline"]),
        ("pipeline.txt", &["pipeline", "--threads", "1"]),
        ("run_seed9.txt", &["run", "--seed", "9", "--transfers", "6"]),
        ("metrics.txt", &["metrics"]),
        ("metrics.json", &["metrics", "--json"]),
        ("interactions.txt", &["interactions"]),
        ("interactions.json", &["interactions", "--json"]),
        ("generate_java-functional.txt", &["generate", "--backend", "java-functional"]),
        ("generate_java-monolithic.txt", &["generate", "--backend", "java-monolithic"]),
        ("generate_rust-skeleton.txt", &["generate", "--backend", "rust-skeleton"]),
        ("generate_report.txt", &["generate", "--backend", "report"]),
        ("serve_seed7.txt", &["serve", "--seed", "7", "--shards", "1"]),
        ("serve_seed7.txt", &["serve", "--seed", "7", "--shards", "4"]),
        ("serve_seed7.json", &["serve", "--seed", "7", "--shards", "1", "--json"]),
        ("serve_seed7.json", &["serve", "--seed", "7", "--shards", "4", "--json"]),
    ];
    for (name, args) in cases {
        let stdout = stdout_of(args);
        let golden = support::golden(&format!("cli/{name}"), &stdout);
        assert!(
            stdout == golden,
            "`comet-cli {}` drifted from golden/cli/{name}; if the change is intended, \
             regenerate with UPDATE_GOLDEN=1 cargo test -p comet --test cli",
            args.join(" ")
        );
    }
}

/// `inspect` of the sample PIM refined by `transactions`: summary,
/// validation, colours and the stereotype marks, byte for byte.
#[test]
fn inspect_of_a_refined_pim_matches_its_golden() {
    let pim = temp_path("inspect-pim.xmi");
    let path = pim.to_str().unwrap();
    stdout_of(&["new", path]);
    stdout_of(&["apply", path, "transactions", "methods=Bank.transfer"]);
    let stdout = stdout_of(&["inspect", path]);
    assert!(stdout == support::golden("cli/inspect_transactions.txt", &stdout), "{stdout}");
    let _ = std::fs::remove_file(pim);
}

/// `serve --seed 7 --metrics` writes the exposition `metrics_slo.rs`
/// pins for the same plan, in either format and at any shard count, and
/// its stdout is the report plus one line naming the file.
#[test]
fn serve_metrics_files_match_the_exposition_goldens() {
    for (ext, shards) in [("prom", "1"), ("prom", "4"), ("json", "1"), ("json", "4")] {
        let path = temp_path(&format!("metrics-{shards}.{ext}"));
        let path_arg = path.to_str().unwrap();
        let stdout =
            stdout_of(&["serve", "--seed", "7", "--shards", shards, "--metrics", path_arg]);
        let report = stdout
            .strip_suffix(&format!("wrote metrics to {path_arg}\n"))
            .unwrap_or_else(|| panic!("no metrics line at the end of {stdout}"));
        assert!(report == support::golden("cli/serve_seed7.txt", report), "{stdout}");
        let written = std::fs::read_to_string(&path).unwrap();
        let golden = support::golden(&format!("metrics_seed7.{ext}"), &written);
        assert!(written == golden, "metrics_seed7.{ext} drifted at {shards} shard(s)");
        let _ = std::fs::remove_file(path);
    }
}

/// One row per malformed invocation, with its exit code and the first
/// line of its stderr. The rows run in a scratch directory that holds a
/// sample PIM, `pim.xmi`.
#[test]
fn malformed_invocations_report_their_first_error() {
    const REPO_USAGE: &str = "error: usage: comet-cli repo fsck <data-dir>   \
                              (truncates torn journal tails, then verifies)";
    let rows: &[(&[&str], i32, &str)] = &[
        // missing positional
        (&["new"], 2, "error: usage: comet-cli new <out.xmi>"),
        (&["inspect"], 2, "error: usage: comet-cli inspect <model.xmi>"),
        (
            &["apply", "pim.xmi"],
            2,
            "error: usage: comet-cli apply <model.xmi> <concern> [k=v ...] [-o out.xmi] \
             [--aspect-out out.aj] [--dry-run]",
        ),
        (
            &["weave", "pim.xmi"],
            2,
            "error: usage: comet-cli weave <model.xmi> <concern> [k=v ...] [--threads N]",
        ),
        (&["repo"], 2, REPO_USAGE),
        (&["repo", "fsck"], 2, REPO_USAGE),
        (&["provenance"], 2, "error: usage: comet-cli provenance <element> --trace out.json"),
        // missing value
        (&["apply", "pim.xmi", "transactions", "-o"], 2, "error: -o needs a path"),
        (
            &["apply", "pim.xmi", "transactions", "--aspect-out"],
            2,
            "error: --aspect-out needs a path",
        ),
        (&["weave", "pim.xmi", "transactions", "--threads"], 2, "error: --threads needs a count"),
        (&["pipeline", "--trace"], 2, "error: --trace needs a path"),
        (&["pipeline", "--faults"], 2, "error: --faults needs a path"),
        (&["pipeline", "--seed"], 2, "error: --seed needs a number"),
        (&["generate", "--backend"], 2, "error: --backend needs a value"),
        (&["generate", "-o"], 2, "error: -o needs a path"),
        (&["run", "--transfers"], 2, "error: --transfers needs a count"),
        (&["run", "--order"], 2, "error: --order needs a value"),
        (&["serve", "--workload"], 2, "error: --workload needs a path"),
        (&["serve", "--shards"], 2, "error: --shards needs a count"),
        (&["serve", "--data-dir"], 2, "error: --data-dir needs a path"),
        (&["serve", "--kill"], 2, "error: --kill needs tenant@N"),
        (&["serve", "--metrics"], 2, "error: --metrics needs a path"),
        (&["provenance", "Bank.transfer", "--trace"], 2, "error: --trace needs a path"),
        // not a number, or not of its form
        (&["pipeline", "--threads", "x"], 2, "error: --threads: `x` is not a number"),
        (&["run", "--seed", "-1"], 2, "error: --seed: `-1` is not a number"),
        (&["run", "--transfers", "x"], 2, "error: --transfers: `x` is not a number"),
        (&["serve", "--shards", "zero"], 2, "error: --shards: `zero` is not a number"),
        (&["serve", "--seed", "x"], 2, "error: --seed: `x` is not a number"),
        (&["serve", "--kill", "t01"], 2, "error: --kill: `t01` is not tenant@N"),
        (&["serve", "--kill", "t01@x"], 2, "error: --kill: `x` is not a request number"),
        (
            &["run", "--order", "sideways"],
            2,
            "error: --order must be `ft-outside-tx` or `tx-outside-ft`, got Some(\"sideways\")",
        ),
        (
            &["generate", "--backend", "cobol"],
            2,
            "error: unknown backend `cobol` (try --list-backends)",
        ),
        // unknown flag or subcommand
        (&["frobnicate"], 2, "error: unknown command `frobnicate`"),
        (&["repo", "frob"], 2, "error: repo: unknown subcommand `frob`"),
        (&["concerns", "--json"], 2, "error: concerns: unexpected argument `--json`"),
        (&["apply", "pim.xmi", "--bogus"], 2, "error: apply: unexpected argument `--bogus`"),
        (
            &["apply", "pim.xmi", "transactions", "--bogus"],
            2,
            "error: apply: unexpected argument `--bogus`",
        ),
        (
            &["weave", "pim.xmi", "transactions", "--bogus"],
            2,
            "error: weave: unexpected argument `--bogus`",
        ),
        (&["pipeline", "--bogus"], 2, "error: pipeline: unexpected argument `--bogus`"),
        (&["generate", "--bogus"], 2, "error: generate: unexpected argument `--bogus`"),
        (&["run", "--bogus"], 2, "error: run: unexpected argument `--bogus`"),
        (&["serve", "--bogus"], 2, "error: serve: unexpected argument `--bogus`"),
        (&["metrics", "--bogus"], 2, "error: metrics: unexpected argument `--bogus`"),
        (&["interactions", "--bogus"], 2, "error: interactions: unexpected argument `--bogus`"),
        // extra positional
        (&["new", "a.xmi", "b.xmi"], 2, "error: new: unexpected argument `b.xmi`"),
        (&["inspect", "pim.xmi", "extra"], 2, "error: inspect: unexpected argument `extra`"),
        (&["run", "extra"], 2, "error: run: unexpected argument `extra`"),
        (&["repo", "fsck", "dir", "extra"], 2, "error: repo fsck: unexpected argument `extra`"),
        (
            &["provenance", "Bank.transfer", "extra", "--trace", "t.json"],
            2,
            "error: provenance: unexpected argument `extra`",
        ),
        // values out of range, and flags that need another
        (&["pipeline", "--threads", "0"], 2, "error: --threads must be at least 1"),
        (&["serve", "--threads", "0"], 2, "error: --threads must be at least 1"),
        (&["serve", "--shards", "0"], 2, "error: --shards must be at least 1"),
        (
            &["serve", "--kill", "t01@3"],
            2,
            "error: --kill requires --data-dir (recovery needs a journal)",
        ),
        (
            &["serve", "--seed", "7", "--slo"],
            2,
            "error: --slo requires an [slo] section in the workload plan",
        ),
        (
            &["provenance", "Bank.transfer"],
            2,
            "error: provenance needs --trace <out.json> (a file written by `pipeline --trace` \
             or `run --trace`)",
        ),
    ];
    let dir = temp_path("malformed");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(cli().args(["new", "pim.xmi"]).current_dir(&dir).output().unwrap().status.success());
    let mut wrong = Vec::new();
    for &(args, code, first) in rows {
        let out = cli().args(args).current_dir(&dir).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let got = (out.status.code(), stderr.lines().next().unwrap_or(""));
        if got != (Some(code), first) {
            wrong.push(format!("{args:?}: expected {code} {first:?}, got {got:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
