//! `comet-cli` — a command-line front-end for the COMET tool
//! infrastructure: inspect models, list concerns and their parameters,
//! apply concern transformations to XMI models, and emit aspect
//! artifacts.
//!
//! ```text
//! comet-cli new <out.xmi>                     write the sample banking PIM
//! comet-cli inspect <model.xmi>               summary, validation, colors
//! comet-cli concerns                          list concern pairs + parameters
//! comet-cli apply <model.xmi> <concern> k=v... [-o out.xmi] [--aspect-out f.aj] [--dry-run]
//! comet-cli weave <model.xmi> <concern> k=v... [--threads N]
//! comet-cli pipeline [--threads N] [--faults plan.toml] [--seed N] [--trace out.json]
//! comet-cli generate [--backend ID] [-o out] [--list-backends]
//! comet-cli run [--faults plan.toml] [--seed N] [--order O] [--transfers N] [--trace out.json]
//! comet-cli provenance <element> --trace out.json
//! comet-cli metrics [--json]
//! comet-cli interactions [--json]
//! ```
//!
//! Parameters are `key=value`; list-valued parameters take
//! comma-separated values (`methods=Bank.transfer,Account.withdraw`).
//! `--threads N` pins the weaver's worker-thread count (default: all
//! cores). `apply --dry-run` previews the refinement report and then
//! unwinds it via the change journal — no file is touched.
//!
//! `run` executes the chaos harness: the banking system woven with
//! {distribution, transactions, faulttolerance}, driven under the fault
//! plan (omit `--faults` for a fault-free run). It prints the fault log
//! and degradation summary and exits non-zero if the run degraded
//! ungracefully (hard error or a partial transfer observed). `--order`
//! is `ft-outside-tx` (default) or `tx-outside-ft` — the §3 precedence
//! choice. `--seed N` overrides the plan's seed. `pipeline --faults`
//! appends the same chaos run after the Fig. 2 demo.
//!
//! `--trace out.json` attaches the observability collector to every
//! pipeline layer and writes a Chrome trace-event file (loadable in
//! Perfetto / `chrome://tracing`). Same seed + same plan ⇒ the same
//! trace, byte for byte. `provenance <element> --trace out.json` reads
//! such a file back and answers "which concern / CMT⟨Si⟩ / advice /
//! runtime event touched this element?". `metrics` runs the Fig. 2
//! pipeline and prints scattering/tangling metrics for the woven
//! program (`--json` for machine-readable output).
//!
//! `generate` runs the Fig. 2 pipeline and renders the woven system
//! with the named generation backend (default `java-functional`;
//! `--list-backends` lists the registered ids). The artifact goes to
//! stdout, or to a file with `-o` — the same content-addressed cache
//! the serving layer uses backs repeated renders.
//!
//! `interactions` prints the critical-pair interaction matrix over the
//! standard concern library — the same matrix `serve` consults at
//! admission time; a serve run whose plan trips a `conflicts` cell
//! prints its report and then exits non-zero.

use comet::chaos::{run_banking_chaos_traced, ChaosConfig, FtOrder};
use comet::{run_banking_serve, run_banking_serve_durable, KillPoint, MdaLifecycle, Wizard};
use comet_aop::{concern_metrics, Weaver};
use comet_aspectgen::{AspectBackend, AspectJBackend};
use comet_codegen::{BodyProvider, FunctionalGenerator};
use comet_middleware::FaultPlan;
use comet_model::sample::banking_pim;
use comet_obs::{Collector, ProvenanceIndex, Trace};
use comet_repo::{ColorReport, Repository};
use comet_serve::WorkloadPlan;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use comet_xmi::{export_model, import_model};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// CLI failures, split by exit-code convention: `Usage` is caller error
/// (unknown subcommand, bad flags) → usage on stderr, exit 2; `Failure`
/// is the operation failing → `error: ...` on stderr, exit 1.
enum CliError {
    Usage(String),
    Failure(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failure(message.to_owned())
    }
}

/// Shorthand for flag/argument mistakes.
fn usage_err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("new") => cmd_new(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("concerns") => cmd_concerns(),
        Some("apply") => cmd_apply(&args[1..]),
        Some("weave") => cmd_weave(&args[1..]),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("repo") => cmd_repo(&args[1..]),
        Some("provenance") => cmd_provenance(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("interactions") => cmd_interactions(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{}", usage_text());
            Ok(())
        }
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage_text());
            ExitCode::from(2)
        }
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn usage_text() -> &'static str {
    "comet-cli — concern-oriented model transformations meet AOP\n\n\
     USAGE:\n  comet-cli new <out.xmi>\n  comet-cli inspect <model.xmi>\n  \
     comet-cli concerns\n  comet-cli apply <model.xmi> <concern> [k=v ...] \
     [-o out.xmi] [--aspect-out out.aj] [--dry-run]\n  \
     comet-cli weave <model.xmi> <concern> [k=v ...] [--threads N]\n  \
     comet-cli pipeline [--threads N] [--faults plan.toml] [--seed N] [--trace out.json]\n  \
     comet-cli generate [--backend ID] [-o out] [--list-backends]\n  \
     comet-cli run [--faults plan.toml] [--seed N] \
     [--order ft-outside-tx|tx-outside-ft] [--transfers N] [--trace out.json]\n  \
     comet-cli serve [--workload plan.toml] [--shards N] [--seed N] [--faults plan.toml] \
     [--threads N] [--trace out.json] [--json] [--data-dir DIR] [--kill tenant@N] \
     [--metrics out.prom|out.json] [--slo]\n  \
     comet-cli repo fsck <data-dir>   (truncates torn journal tails, then verifies)\n  \
     comet-cli provenance <element> --trace out.json\n  \
     comet-cli metrics [--json]\n  \
     comet-cli interactions [--json]"
}

/// Runs `op` with `--threads N` governing the weaver's parallel
/// per-class fan-out: a dedicated rayon pool when a count was given,
/// the global default (all cores) otherwise.
fn with_pool<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> Result<R, CliError> {
    match threads {
        None => Ok(op()),
        Some(0) => Err(usage_err("--threads must be at least 1")),
        Some(n) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_err(|e| e.to_string())?;
            Ok(pool.install(op))
        }
    }
}

fn cmd_new(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("usage: comet-cli new <out.xmi>"))?;
    let model = banking_pim();
    std::fs::write(path, export_model(&model)).map_err(|e| e.to_string())?;
    println!("wrote sample PIM `{}` ({} elements) to {path}", model.name(), model.len());
    Ok(())
}

fn load(path: &str) -> Result<comet_model::Model, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    import_model(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or_else(|| usage_err("usage: comet-cli inspect <model.xmi>"))?;
    let model = load(path)?;
    println!("model `{}`: {} elements", model.name(), model.len());
    println!(
        "  classes: {}, associations: {}, packages: {}",
        model.classes().len(),
        model.associations().len(),
        model.packages().len()
    );
    match model.validate() {
        Ok(()) => println!("  well-formed: yes"),
        Err(violations) => {
            println!("  well-formed: NO ({} violations)", violations.len());
            for v in violations.iter().take(10) {
                println!("    - {v}");
            }
        }
    }
    let colors = ColorReport::for_model(&model);
    print!("{colors}");
    for class_id in model.classes() {
        let class = model.element(class_id).map_err(|e| e.to_string())?;
        let stereo = if class.core().stereotypes.is_empty() {
            String::new()
        } else {
            format!(" «{}»", class.core().stereotypes.join(", "))
        };
        println!("  class {}{stereo}", class.name());
        for op in model.operations_of(class_id) {
            let o = model.element(op).map_err(|e| e.to_string())?;
            let marks = if o.core().stereotypes.is_empty() {
                String::new()
            } else {
                format!(" «{}»", o.core().stereotypes.join(", "))
            };
            println!("    {}(){marks}", o.name());
        }
    }
    Ok(())
}

fn cmd_concerns() -> Result<(), CliError> {
    for pair in comet_concerns::standard_pairs() {
        let wizard = Wizard::for_pair(&pair);
        println!("{}", pair.concern());
        for q in wizard.questions() {
            println!(
                "  {}  {:?}{}{}",
                q.name,
                q.kind,
                if q.required { "  (required)" } else { "" },
                q.default.map(|d| format!("  [default: {d}]")).unwrap_or_default()
            );
        }
    }
    Ok(())
}

fn cmd_apply(args: &[String]) -> Result<(), CliError> {
    let mut positional = Vec::new();
    let mut params: BTreeMap<String, String> = BTreeMap::new();
    let mut out_path: Option<String> = None;
    let mut aspect_out: Option<String> = None;
    let mut dry_run = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                out_path =
                    Some(args.get(i + 1).ok_or_else(|| usage_err("-o needs a path"))?.clone());
                i += 2;
            }
            "--aspect-out" => {
                aspect_out = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--aspect-out needs a path"))?.clone(),
                );
                i += 2;
            }
            "--dry-run" => {
                dry_run = true;
                i += 1;
            }
            arg if arg.contains('=') => {
                let (k, v) = arg.split_once('=').expect("checked contains");
                params.insert(k.to_owned(), v.to_owned());
                i += 1;
            }
            other => {
                positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    let [model_path, concern_name] = positional.as_slice() else {
        return Err(usage_err("usage: comet-cli apply <model.xmi> <concern> [k=v ...]"));
    };
    let pair = comet_concerns::by_name(concern_name)
        .ok_or_else(|| format!("unknown concern `{concern_name}` (see `comet-cli concerns`)"))?;
    let mut model = load(model_path)?;

    let wizard = Wizard::for_pair(&pair);
    let si = wizard.collect(&params).map_err(|e| e.to_string())?;
    let (cmt, ca) = pair.specialize(si).map_err(|e| e.to_string())?;
    // Under --dry-run the apply happens inside an outer journal segment
    // (the engine's own segment nests into it), so the whole refinement
    // can be unwound after the report is printed.
    if dry_run {
        model.begin_journal();
    }
    let report = match cmt.apply(&mut model) {
        Ok(report) => report,
        Err(e) => {
            if dry_run {
                model.rollback_journal();
            }
            return Err(e.to_string().into());
        }
    };
    println!(
        "{} {} (created {}, modified {}, removed {})",
        if dry_run { "would apply" } else { "applied" },
        cmt.full_name(),
        report.created.len(),
        report.modified.len(),
        report.removed.len()
    );
    if dry_run {
        model.rollback_journal();
        println!("dry run: model unchanged, nothing written");
        return Ok(());
    }

    let out = out_path.unwrap_or_else(|| model_path.clone());
    std::fs::write(&out, export_model(&model)).map_err(|e| e.to_string())?;
    println!("wrote refined model to {out}");

    if let Some(aspect_path) = aspect_out {
        let artifact = AspectJBackend::new().render(&ca);
        std::fs::write(&aspect_path, artifact).map_err(|e| e.to_string())?;
        println!("wrote concrete aspect `{}` to {aspect_path}", ca.name);
    }
    Ok(())
}

fn parse_threads(args: &[String]) -> Result<(Vec<String>, Option<usize>), CliError> {
    let mut rest = Vec::new();
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            let n = args.get(i + 1).ok_or_else(|| usage_err("--threads needs a count"))?;
            threads = Some(
                n.parse().map_err(|_| usage_err(format!("--threads: `{n}` is not a number")))?,
            );
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok((rest, threads))
}

fn cmd_weave(args: &[String]) -> Result<(), CliError> {
    let (rest, threads) = parse_threads(args)?;
    let mut positional = Vec::new();
    let mut params: BTreeMap<String, String> = BTreeMap::new();
    for arg in &rest {
        match arg.split_once('=') {
            Some((k, v)) => {
                params.insert(k.to_owned(), v.to_owned());
            }
            None => positional.push(arg.clone()),
        }
    }
    let [model_path, concern_name] = positional.as_slice() else {
        return Err(usage_err(
            "usage: comet-cli weave <model.xmi> <concern> [k=v ...] [--threads N]",
        ));
    };
    let pair = comet_concerns::by_name(concern_name)
        .ok_or_else(|| format!("unknown concern `{concern_name}` (see `comet-cli concerns`)"))?;
    let mut model = load(model_path)?;
    let si = Wizard::for_pair(&pair).collect(&params).map_err(|e| e.to_string())?;
    let (cmt, ca) = pair.specialize(si).map_err(|e| e.to_string())?;
    cmt.apply(&mut model).map_err(|e| e.to_string())?;
    let functional = FunctionalGenerator::new().generate(&model, &BodyProvider::default());
    let weaver = Weaver::new(vec![ca]);
    let result = with_pool(threads, || weaver.weave(&functional))?.map_err(|e| e.to_string())?;
    println!(
        "wove `{}` into {} classes: {} advice applications",
        weaver.aspects()[0].name,
        result.program.classes.len(),
        result.trace.len()
    );
    for jp in &result.trace {
        println!("  {:?} at {}.{} ({:?})", jp.kind, jp.class, jp.method, jp.shadow);
    }
    Ok(())
}

/// Extracts `--faults <plan.toml>` and `--seed <N>` from `args`,
/// returning the remaining arguments and the resulting plan: the parsed
/// plan file (re-seeded when `--seed` is given), an inert seeded plan
/// for `--seed` alone, `None` when neither flag is present.
fn parse_faults(args: &[String]) -> Result<(Vec<String>, Option<FaultPlan>), CliError> {
    let mut rest = Vec::new();
    let mut plan_path: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--faults" => {
                plan_path = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--faults needs a path"))?.clone(),
                );
                i += 2;
            }
            "--seed" => {
                let n = args.get(i + 1).ok_or_else(|| usage_err("--seed needs a number"))?;
                seed = Some(
                    n.parse().map_err(|_| usage_err(format!("--seed: `{n}` is not a number")))?,
                );
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let plan = match plan_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut plan = FaultPlan::parse_toml(&text).map_err(|e| format!("{path}: {e}"))?;
            if let Some(s) = seed {
                plan.seed = s;
            }
            Some(plan)
        }
        None => seed.map(FaultPlan::new),
    };
    Ok((rest, plan))
}

/// Extracts `--trace <out.json>` from `args`, returning the remaining
/// arguments and the output path.
fn parse_trace(args: &[String]) -> Result<(Vec<String>, Option<String>), CliError> {
    let mut rest = Vec::new();
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" {
            trace = Some(args.get(i + 1).ok_or_else(|| usage_err("--trace needs a path"))?.clone());
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok((rest, trace))
}

/// Writes the collector's trace as a Chrome trace-event file.
fn write_trace(obs: &Collector, path: &str) -> Result<(), CliError> {
    let trace = obs.snapshot();
    std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote trace to {path} ({} spans, {} events, {} counters) — load it in Perfetto",
        trace.spans.len(),
        trace.events.len(),
        trace.counters.len()
    );
    Ok(())
}

/// Runs the chaos harness and prints the report; `Err` when the run
/// violated the graceful-degradation contract.
fn run_chaos(
    plan: Option<FaultPlan>,
    order: FtOrder,
    transfers: Option<u32>,
    obs: &Collector,
) -> Result<(), CliError> {
    let mut cfg = ChaosConfig { order, ..ChaosConfig::default() };
    if let Some(plan) = plan {
        cfg.seed = plan.seed;
        cfg.plan = plan;
    }
    if let Some(n) = transfers {
        cfg.transfers = n;
    }
    let report = run_banking_chaos_traced(&cfg, obs).map_err(|e| e.to_string())?;
    print!("{report}");
    if report.degraded_gracefully() {
        Ok(())
    } else {
        Err("chaos run degraded ungracefully (see report above)".into())
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let (rest, plan) = parse_faults(args)?;
    let (rest, trace_path) = parse_trace(&rest)?;
    let mut order = FtOrder::FtOutsideTx;
    let mut transfers: Option<u32> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--order" => {
                order = match rest.get(i + 1).map(String::as_str) {
                    Some("ft-outside-tx") => FtOrder::FtOutsideTx,
                    Some("tx-outside-ft") => FtOrder::TxOutsideFt,
                    other => {
                        return Err(usage_err(format!(
                            "--order must be `ft-outside-tx` or `tx-outside-ft`, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--transfers" => {
                let n = rest.get(i + 1).ok_or_else(|| usage_err("--transfers needs a count"))?;
                transfers = Some(
                    n.parse()
                        .map_err(|_| usage_err(format!("--transfers: `{n}` is not a number")))?,
                );
                i += 2;
            }
            other => return Err(usage_err(format!("run: unexpected argument `{other}`"))),
        }
    }
    let obs = if trace_path.is_some() { Collector::enabled() } else { Collector::disabled() };
    let outcome = run_chaos(plan, order, transfers, &obs);
    if let Some(path) = trace_path {
        write_trace(&obs, &path)?;
    }
    outcome
}

/// The Fig. 2 demo's concern steps: distribution, transactions,
/// security, each with its `Si`, shared by `pipeline` and `metrics`.
fn fig2_steps() -> [(&'static str, ParamSet); 3] {
    [
        (
            "distribution",
            ParamSet::new()
                .with("server_class", ParamValue::from("Bank"))
                .with("node", ParamValue::from("server"))
                .with(
                    "operations",
                    ParamValue::from(vec!["transfer".to_owned(), "openAccount".to_owned()]),
                ),
        ),
        (
            "transactions",
            ParamSet::new().with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()])),
        ),
        (
            "security",
            ParamSet::new()
                .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()])),
        ),
    ]
}

fn cmd_pipeline(args: &[String]) -> Result<(), CliError> {
    let (rest, plan) = parse_faults(args)?;
    let (rest, threads) = parse_threads(&rest)?;
    let (rest, trace_path) = parse_trace(&rest)?;
    if !rest.is_empty() {
        return Err(usage_err(
            "usage: comet-cli pipeline [--threads N] [--faults plan.toml] [--seed N] \
             [--trace out.json]",
        ));
    }
    let obs = if trace_path.is_some() { Collector::enabled() } else { Collector::disabled() };
    // The paper's Fig. 2 demo: distribution, transactions, security
    // refined onto the sample banking PIM, then code generation +
    // weaving.
    let workflow = WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).map_err(|e| e.to_string())?;
    mda.set_collector(obs.clone());
    for (name, si) in fig2_steps() {
        let pair = comet_concerns::by_name(name).expect("standard concern exists");
        let applied = mda.apply_concern(&pair, si).map_err(|e| e.to_string())?;
        println!(
            "applied {} (created {}, modified {})",
            applied.cmt.full_name(),
            applied.report.created.len(),
            applied.report.modified.len()
        );
    }
    let system = with_pool(threads, || {
        mda.generate(&BodyProvider::default(), comet::Backend::JavaFunctional)
    })?
    .map_err(|e| e.to_string())?;
    println!(
        "generated {} classes, wove {} aspects: {} advice applications",
        system.woven().classes.len(),
        system.aspect_sources.len(),
        system.weave_trace().len()
    );
    print!("{}", mda.colors());
    let chaos_outcome = if plan.is_some() {
        println!("--- chaos run ---");
        run_chaos(plan, FtOrder::FtOutsideTx, None, &obs)
    } else {
        Ok(())
    };
    if let Some(path) = trace_path {
        write_trace(&obs, &path)?;
    }
    chaos_outcome
}

/// `comet-cli generate`: runs the Fig. 2 pipeline and renders the
/// woven system through the named generation backend. The factory and
/// content-addressed cache are the same ones the serving layer drives,
/// so the artifact printed here is byte-identical to what a serving
/// tenant's `Generate` request produces at the same model state.
fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let mut backend_id: Option<String> = None;
    let mut out: Option<String> = None;
    let mut list = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--backend" => {
                let id = iter.next().ok_or_else(|| usage_err("--backend needs a value"))?;
                backend_id = Some(id.clone());
            }
            "-o" => {
                let path = iter.next().ok_or_else(|| usage_err("-o needs a path"))?;
                out = Some(path.clone());
            }
            "--list-backends" => list = true,
            other => return Err(usage_err(format!("generate: unexpected argument `{other}`"))),
        }
    }
    if list {
        let factory = comet::GeneratorFactory::with_standard_backends();
        for generator in factory.backends() {
            println!("{:<16} {}", generator.id(), generator.describe());
        }
        return Ok(());
    }
    let id = backend_id.unwrap_or_else(|| comet_serve::DEFAULT_BACKEND.to_owned());
    let backend = comet::Backend::parse(&id)
        .ok_or_else(|| usage_err(format!("unknown backend `{id}` (try --list-backends)")))?;
    let workflow = WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).map_err(|e| e.to_string())?;
    for (name, si) in fig2_steps() {
        let pair = comet_concerns::by_name(name).expect("standard concern exists");
        mda.apply_concern(&pair, si).map_err(|e| e.to_string())?;
    }
    let system = mda.generate(&BodyProvider::default(), backend).map_err(|e| e.to_string())?;
    match out {
        Some(path) => {
            std::fs::write(&path, &system.artifact).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {} artifact ({} bytes) to {path}", backend, system.artifact.len());
        }
        None => print!("{}", system.artifact),
    }
    Ok(())
}

/// `comet-cli serve`: the sharded multi-tenant serving harness over the
/// banking lifecycle. Everything printed to stdout is derived from the
/// shard-count-invariant `ServeReport`/trace, so CI can diff the output
/// of `--shards 1` against `--shards 4` byte for byte.
///
/// `--data-dir DIR` journals every tenant's repository under
/// `DIR/<tenant>/` (segment store + write-ahead log); a later `serve`
/// over the same directory resumes the tenants from their journals.
/// `--kill tenant@N` (requires `--data-dir`) crashes that tenant's
/// lifecycle at its Nth request — torn journal tail included — and
/// recovers it from the log; the printed report is byte-identical to a
/// run without the kill.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut workload: Option<String> = None;
    let mut shards: usize = 1;
    let mut seed: Option<u64> = None;
    let mut faults: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut data_dir: Option<String> = None;
    let mut kill: Option<KillPoint> = None;
    let mut json = false;
    let mut metrics_path: Option<String> = None;
    let mut slo = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data-dir" => {
                data_dir = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--data-dir needs a path"))?.clone(),
                );
                i += 2;
            }
            "--kill" => {
                let spec = args.get(i + 1).ok_or_else(|| usage_err("--kill needs tenant@N"))?;
                let (tenant, at) = spec
                    .split_once('@')
                    .ok_or_else(|| usage_err(format!("--kill: `{spec}` is not tenant@N")))?;
                let at_request = at
                    .parse()
                    .map_err(|_| usage_err(format!("--kill: `{at}` is not a request number")))?;
                kill = Some(KillPoint { tenant: tenant.to_owned(), at_request });
                i += 2;
            }
            "--workload" => {
                workload = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--workload needs a path"))?.clone(),
                );
                i += 2;
            }
            "--shards" => {
                let n = args.get(i + 1).ok_or_else(|| usage_err("--shards needs a count"))?;
                shards =
                    n.parse().map_err(|_| usage_err(format!("--shards: `{n}` is not a number")))?;
                if shards == 0 {
                    return Err(usage_err("--shards must be at least 1"));
                }
                i += 2;
            }
            "--seed" => {
                let n = args.get(i + 1).ok_or_else(|| usage_err("--seed needs a number"))?;
                seed = Some(
                    n.parse().map_err(|_| usage_err(format!("--seed: `{n}` is not a number")))?,
                );
                i += 2;
            }
            "--faults" => {
                faults = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--faults needs a path"))?.clone(),
                );
                i += 2;
            }
            "--trace" => {
                trace_path =
                    Some(args.get(i + 1).ok_or_else(|| usage_err("--trace needs a path"))?.clone());
                i += 2;
            }
            "--threads" => {
                let n = args.get(i + 1).ok_or_else(|| usage_err("--threads needs a count"))?;
                threads = Some(
                    n.parse()
                        .map_err(|_| usage_err(format!("--threads: `{n}` is not a number")))?,
                );
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--metrics" => {
                metrics_path = Some(
                    args.get(i + 1).ok_or_else(|| usage_err("--metrics needs a path"))?.clone(),
                );
                i += 2;
            }
            "--slo" => {
                slo = true;
                i += 1;
            }
            other => return Err(usage_err(format!("serve: unexpected argument `{other}`"))),
        }
    }
    let mut plan = match workload {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            WorkloadPlan::parse_toml(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => WorkloadPlan::default(),
    };
    if let Some(s) = seed {
        plan.seed = s;
    }
    let fault_plan = match faults {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Some(FaultPlan::parse_toml(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    if kill.is_some() && data_dir.is_none() {
        return Err(usage_err("--kill requires --data-dir (recovery needs a journal)"));
    }
    if slo && plan.slo.is_none() {
        return Err(usage_err("--slo requires an [slo] section in the workload plan"));
    }
    let cfg = comet_serve::RunConfig {
        traced: trace_path.is_some(),
        metrics: metrics_path.is_some() || slo,
    };
    let outcome = match &data_dir {
        None => with_pool(threads, || run_banking_serve(&plan, shards, fault_plan, &cfg))?
            .map_err(|e| e.to_string())?,
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            let (outcome, recoveries) = with_pool(threads, || {
                run_banking_serve_durable(&plan, shards, fault_plan, &cfg, &dir, kill)
            })?
            .map_err(|e| e.to_string())?;
            if recoveries > 0 {
                println!("recovered {recoveries} crashed tenant lifecycle(s) from the journal");
            }
            outcome
        }
    };
    if json {
        print!("{}", outcome.report.to_json());
    } else {
        print!("{}", outcome.report);
    }
    if let Some(path) = &metrics_path {
        let snapshot = outcome.metrics.as_ref().expect("metrics-enabled run returns a snapshot");
        let rendered =
            if path.ends_with(".json") { snapshot.to_json() } else { snapshot.to_prometheus() };
        std::fs::write(path, rendered).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    if let Some(path) = trace_path {
        let trace = outcome.trace.expect("traced run returns a trace");
        std::fs::write(&path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote trace to {path} ({} spans, {} events, {} counters) — load it in Perfetto",
            trace.spans.len(),
            trace.events.len(),
            trace.counters.len()
        );
    }
    // Admission-gate rejections fail the run loudly: the report above
    // shows what served, but a plan that tripped the interaction matrix
    // is not a clean run.
    if outcome.report.conflicts > 0 {
        return Err(format!(
            "{} apply request(s) rejected by the interaction admission gate \
             (ServeError::Conflict)",
            outcome.report.conflicts
        )
        .into());
    }
    // `--slo` makes a burn-rate breach fail the run the same loud way.
    if slo && outcome.report.slo_breached() {
        let breached: Vec<&str> = outcome
            .report
            .slo
            .iter()
            .filter(|(_, v)| v.breached)
            .map(|(t, _)| t.as_str())
            .collect();
        return Err(format!("SLO breached for tenant(s): {}", breached.join(", ")).into());
    }
    Ok(())
}

/// `comet-cli repo fsck <dir>`: offline integrity check of durable
/// repository journals. `<dir>` is either one journal directory (it
/// contains `wal.log`) or a serve data dir whose subdirectories are
/// per-tenant journals. Replays each write-ahead log, verifies every
/// commit's snapshot bytes against its content hash in the segment
/// store, and checks branch/tag referential integrity; exits non-zero
/// when any journal is corrupt. The replay is [`Repository::open`], so
/// the check also repairs: a torn tail in either file is truncated,
/// and the report counts the bytes.
fn cmd_repo(args: &[String]) -> Result<(), CliError> {
    let usage = "usage: comet-cli repo fsck <data-dir>";
    match args.first().map(String::as_str) {
        Some("fsck") => {}
        Some(other) => return Err(usage_err(format!("repo: unknown subcommand `{other}`"))),
        None => return Err(usage_err(usage)),
    }
    let dir = std::path::PathBuf::from(args.get(1).ok_or_else(|| usage_err(usage))?);
    if args.len() > 2 {
        return Err(usage_err(format!("repo fsck: unexpected argument `{}`", args[2])));
    }
    let mut journals = Vec::new();
    if Repository::exists(&dir) {
        journals.push(dir.clone());
    } else {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut dirs: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| Repository::exists(p))
            .collect();
        dirs.sort();
        journals.extend(dirs);
    }
    if journals.is_empty() {
        return Err(format!("{}: no repository journal found", dir.display()).into());
    }
    let mut corrupt = 0usize;
    for journal in &journals {
        let report =
            Repository::fsck(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        println!("{}:", journal.display());
        print!("{report}");
        if !report.ok() {
            corrupt += 1;
        }
    }
    if corrupt > 0 {
        return Err(format!("{corrupt} of {} journal(s) corrupt", journals.len()).into());
    }
    println!("{} journal(s) healthy", journals.len());
    Ok(())
}

fn cmd_provenance(args: &[String]) -> Result<(), CliError> {
    let (rest, trace_path) = parse_trace(args)?;
    let [element] = rest.as_slice() else {
        return Err(usage_err("usage: comet-cli provenance <element> --trace out.json"));
    };
    let path = trace_path.ok_or_else(|| {
        usage_err(
            "provenance needs --trace <out.json> (a file written by \
             `pipeline --trace` or `run --trace`)",
        )
    })?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let index = ProvenanceIndex::build(&trace);
    match index.query(element) {
        Some(report) => print!("{report}"),
        None => {
            println!("no provenance for `{element}` in {path} ({} indexed entries)", index.len())
        }
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => return Err(usage_err(format!("metrics: unexpected argument `{other}`"))),
        }
    }
    // Same Fig. 2 pipeline as `comet-cli pipeline`, measured instead of
    // narrated: scattering/tangling of the middleware concerns over the
    // woven program (the monolithic-equivalent artifact the paper's E5
    // experiment compares against).
    let workflow = WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).map_err(|e| e.to_string())?;
    for (name, si) in fig2_steps() {
        let pair = comet_concerns::by_name(name).expect("standard concern exists");
        mda.apply_concern(&pair, si).map_err(|e| e.to_string())?;
    }
    let system = mda
        .generate(&BodyProvider::default(), comet::Backend::JavaFunctional)
        .map_err(|e| e.to_string())?;
    let report = concern_metrics(system.woven(), &["net", "tx", "sec", "log", "lock"]);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    Ok(())
}

/// `comet-cli interactions`: the critical-pair interaction matrix over
/// the full standard concern library, exactly as the serving admission
/// gate computes it (same probe PIM, same serving `Si` bindings) —
/// every `commutes` cell is backed by the weave-both-orders oracle.
fn cmd_interactions(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => return Err(usage_err(format!("interactions: unexpected argument `{other}`"))),
        }
    }
    let steps: Vec<String> =
        comet_concerns::standard_pairs().iter().map(|p| p.concern().to_owned()).collect();
    let matrix = comet::serve_interaction_matrix(&steps).map_err(|e| e.to_string())?;
    if json {
        print!("{}", matrix.to_json());
    } else {
        print!("{matrix}");
    }
    Ok(())
}
