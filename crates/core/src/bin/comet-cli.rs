//! `comet-cli` — a command-line front-end for the COMET tool
//! infrastructure: inspect models, list concerns and their parameters,
//! apply concern transformations to XMI models, run the Fig. 2
//! pipeline, serve it to tenants and check their journals.
//! `comet-cli help` lists every command with its synopsis; the list is
//! built from the command table in this file, as is the dispatch.
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
//! (or `--seed`) appends the same chaos run after the Fig. 2 demo.
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
//!
//! Usage errors (unknown command, bad or leftover arguments) exit 2
//! with the usage on stderr; a failing operation exits 1.

use comet::chaos::{run_banking_chaos_traced, ChaosConfig, FtOrder};
use comet::{run_banking_serve, run_banking_serve_durable, KillPoint, MdaLifecycle, Wizard};
use comet_aop::{concern_metrics, Aspect, Weaver};
use comet_aspectgen::AspectJBackend;
use comet_codegen::{BodyProvider, FunctionalGenerator};
use comet_middleware::FaultPlan;
use comet_model::{sample::banking_pim, Model};
use comet_obs::{Collector, ProvenanceIndex, Trace};
use comet_repo::{ColorReport, Repository};
use comet_serve::WorkloadPlan;
use comet_transform::{ConcreteTransformation, ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use comet_xmi::{export_model, import_model};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

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

/// Shorthand for flag/argument mistakes.
fn usage_err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

type Handler = fn(Args) -> Result<(), CliError>;

/// Every command: its name, its synopsis (what follows the name in
/// `help` and in its usage error) and its handler.
const COMMANDS: [(&str, &str, Handler); 13] = [
    ("new", "<out.xmi>", cmd_new),
    ("inspect", "<model.xmi>", cmd_inspect),
    ("concerns", "", cmd_concerns),
    (
        "apply",
        "<model.xmi> <concern> [k=v ...] [-o out.xmi] [--aspect-out out.aj] [--dry-run]",
        cmd_apply,
    ),
    ("weave", "<model.xmi> <concern> [k=v ...] [--threads N]", cmd_weave),
    ("pipeline", "[--threads N] [--faults plan.toml] [--seed N] [--trace out.json]", cmd_pipeline),
    ("generate", "[--backend ID] [-o out] [--list-backends]", cmd_generate),
    (
        "run",
        "[--faults plan.toml] [--seed N] [--order ft-outside-tx|tx-outside-ft] [--transfers N] \
         [--trace out.json]",
        cmd_run,
    ),
    (
        "serve",
        "[--workload plan.toml] [--shards N] [--seed N] [--faults plan.toml] [--threads N] \
         [--trace out.json] [--json] [--data-dir DIR] [--kill tenant@N] \
         [--metrics out.prom|out.json] [--slo]",
        cmd_serve,
    ),
    ("repo", "fsck <data-dir>   (truncates torn journal tails, then verifies)", cmd_repo),
    ("provenance", "<element> --trace out.json", cmd_provenance),
    ("metrics", "[--json]", cmd_metrics),
    ("interactions", "[--json]", cmd_interactions),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        None | Some("help" | "--help" | "-h") => {
            println!("{}", usage_text());
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|(command, ..)| *command == name) {
            Some(&(cmd, synopsis, handler)) => {
                handler(Args { cmd, usage: usage_line(cmd, synopsis), rest: args.collect() })
            }
            None => Err(usage_err(format!("unknown command `{name}`"))),
        },
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

fn usage_line(cmd: &str, synopsis: &str) -> String {
    format!("comet-cli {cmd} {synopsis}").trim_end().to_owned()
}

fn usage_text() -> String {
    let mut text =
        "comet-cli — concern-oriented model transformations meet AOP\n\nUSAGE:".to_owned();
    for (cmd, synopsis, _) in COMMANDS {
        text += &format!("\n  {}", usage_line(cmd, synopsis));
    }
    text
}

/// One command's arguments. Each reader removes what it reads, and
/// `finish` takes the positionals and rejects whatever is left.
struct Args {
    /// What `finish` names in its errors: the command, or `repo fsck`.
    cmd: &'static str,
    /// The command's `help` line, the error for too few positionals.
    usage: String,
    rest: Vec<String>,
}

impl Args {
    /// Removes every `flag value` pair; the last value wins. `what`
    /// names the value in the error for a flag that ends the line or is
    /// followed by another flag.
    fn value(&mut self, flag: &str, what: &str) -> Result<Option<String>, CliError> {
        let mut value = None;
        while let Some(i) = self.rest.iter().position(|a| a == flag) {
            if self.rest.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(usage_err(format!("{flag} needs {what}")));
            }
            value = Some(self.rest.remove(i + 1));
            self.rest.remove(i);
        }
        Ok(value)
    }

    /// [`Args::value`], parsed as a number.
    fn number<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Option<T>, CliError> {
        self.value(flag, what)?
            .map(|n| n.parse().map_err(|_| usage_err(format!("{flag}: `{n}` is not a number"))))
            .transpose()
    }

    /// A count of threads or shards, which must be at least 1.
    fn count(&mut self, flag: &str) -> Result<Option<usize>, CliError> {
        match self.number(flag, "a count")? {
            Some(0) => Err(usage_err(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// Removes every `flag`; whether there was one.
    fn switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() < before
    }

    /// Removes every `key=value` argument; the last value of a key wins.
    fn params(&mut self) -> BTreeMap<String, String> {
        let mut params = BTreeMap::new();
        self.rest.retain(|arg| match arg.split_once('=') {
            Some((k, v)) => {
                params.insert(k.to_owned(), v.to_owned());
                false
            }
            None => true,
        });
        params
    }

    /// The remaining arguments as exactly `N` positionals. A leftover
    /// flag or an extra positional is `<cmd>: unexpected argument`; too
    /// few is the usage line.
    fn finish<const N: usize>(self) -> Result<[String; N], CliError> {
        let extra = self.rest.iter().find(|a| a.starts_with("--")).or(self.rest.get(N));
        if let Some(arg) = extra {
            return Err(usage_err(format!("{}: unexpected argument `{arg}`", self.cmd)));
        }
        self.rest.try_into().map_err(|_| usage_err(format!("usage: {}", self.usage)))
    }
}

/// Reads and parses the file at `path`; every error names the path.
fn read_input<T, E: Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes `trace` as a Chrome trace-event file and says so on stdout.
fn write_trace(trace: &Trace, path: &str) -> Result<(), CliError> {
    std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote trace to {path} ({} spans, {} events, {} counters) — load it in Perfetto",
        trace.spans.len(),
        trace.events.len(),
        trace.counters.len()
    );
    Ok(())
}

/// Runs `op` with `--threads N` governing the weaver's parallel
/// per-class fan-out: a dedicated rayon pool when a count was given,
/// the global default (all cores) otherwise.
fn with_pool<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> Result<R, CliError> {
    let Some(n) = threads else { return Ok(op()) };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().map_err(|e| e.to_string())?;
    Ok(pool.install(op))
}

fn cmd_new(args: Args) -> Result<(), CliError> {
    let [path] = args.finish()?;
    let model = banking_pim();
    std::fs::write(&path, export_model(&model)).map_err(|e| e.to_string())?;
    println!("wrote sample PIM `{}` ({} elements) to {path}", model.name(), model.len());
    Ok(())
}

fn cmd_inspect(args: Args) -> Result<(), CliError> {
    let [path] = args.finish()?;
    let model = read_input(&path, import_model)?;
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
    print!("{}", ColorReport::for_model(&model));
    let marks = |id| -> Result<(String, String), CliError> {
        let element = model.element(id).map_err(|e| e.to_string())?;
        let stereotypes = &element.core().stereotypes;
        let marks = if stereotypes.is_empty() {
            String::new()
        } else {
            format!(" «{}»", stereotypes.join(", "))
        };
        Ok((element.name().to_owned(), marks))
    };
    for class_id in model.classes() {
        let (name, stereo) = marks(class_id)?;
        println!("  class {name}{stereo}");
        for op in model.operations_of(class_id) {
            let (name, stereo) = marks(op)?;
            println!("    {name}(){stereo}");
        }
    }
    Ok(())
}

fn cmd_concerns(args: Args) -> Result<(), CliError> {
    let [] = args.finish()?;
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

/// Loads the model and specializes the named concern with `params`:
/// the CMT to apply to it and the paired concrete aspect.
fn specialize(
    model_path: &str,
    concern: &str,
    params: &BTreeMap<String, String>,
) -> Result<(Model, ConcreteTransformation, Aspect), CliError> {
    let pair = comet_concerns::by_name(concern)
        .ok_or_else(|| format!("unknown concern `{concern}` (see `comet-cli concerns`)"))?;
    let model = read_input(model_path, import_model)?;
    let si = Wizard::for_pair(&pair).collect(params).map_err(|e| e.to_string())?;
    let (cmt, ca) = pair.specialize(si).map_err(|e| e.to_string())?;
    Ok((model, cmt, ca))
}

fn cmd_apply(mut args: Args) -> Result<(), CliError> {
    let out_path = args.value("-o", "a path")?;
    let aspect_out = args.value("--aspect-out", "a path")?;
    let dry_run = args.switch("--dry-run");
    let params = args.params();
    let [model_path, concern] = args.finish()?;
    let (mut model, cmt, ca) = specialize(&model_path, &concern, &params)?;
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

    let out = out_path.unwrap_or(model_path);
    std::fs::write(&out, export_model(&model)).map_err(|e| e.to_string())?;
    println!("wrote refined model to {out}");

    if let Some(aspect_path) = aspect_out {
        let artifact = AspectJBackend::new().render(&ca);
        std::fs::write(&aspect_path, artifact).map_err(|e| e.to_string())?;
        println!("wrote concrete aspect `{}` to {aspect_path}", ca.name);
    }
    Ok(())
}

fn cmd_weave(mut args: Args) -> Result<(), CliError> {
    let threads = args.count("--threads")?;
    let params = args.params();
    let [model_path, concern] = args.finish()?;
    let (mut model, cmt, ca) = specialize(&model_path, &concern, &params)?;
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

/// Reads `--faults <plan.toml>` and `--seed <N>` for a chaos run: the
/// plan file (re-seeded when `--seed` is given), an inert seeded plan
/// for `--seed` alone, `None` when neither flag is present.
fn chaos_plan(args: &mut Args) -> Result<Option<FaultPlan>, CliError> {
    let path = args.value("--faults", "a path")?;
    let seed = args.number("--seed", "a number")?;
    let Some(path) = path else { return Ok(seed.map(FaultPlan::new)) };
    let mut plan = read_input(&path, FaultPlan::parse_toml)?;
    if let Some(s) = seed {
        plan.seed = s;
    }
    Ok(Some(plan))
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
        Err("chaos run degraded ungracefully (see report above)".to_owned().into())
    }
}

fn cmd_run(mut args: Args) -> Result<(), CliError> {
    let plan = chaos_plan(&mut args)?;
    let trace_path = args.value("--trace", "a path")?;
    let order = match args.value("--order", "a value")?.as_deref() {
        None | Some("ft-outside-tx") => FtOrder::FtOutsideTx,
        Some("tx-outside-ft") => FtOrder::TxOutsideFt,
        other => {
            return Err(usage_err(format!(
                "--order must be `ft-outside-tx` or `tx-outside-ft`, got {other:?}"
            )))
        }
    };
    let transfers = args.number("--transfers", "a count")?;
    let [] = args.finish()?;
    let obs = if trace_path.is_some() { Collector::enabled() } else { Collector::disabled() };
    let outcome = run_chaos(plan, order, transfers, &obs);
    if let Some(path) = trace_path {
        write_trace(&obs.snapshot(), &path)?;
    }
    outcome
}

/// The paper's Fig. 2 demo: distribution, transactions and security,
/// each with its `Si`, refined onto the sample banking PIM and ready to
/// generate. `pipeline`, `generate` and `metrics` all start here.
fn fig2_lifecycle(obs: Collector) -> Result<MdaLifecycle, CliError> {
    let list =
        |items: &[&str]| ParamValue::from(items.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let steps = [
        (
            "distribution",
            ParamSet::new()
                .with("server_class", ParamValue::from("Bank"))
                .with("node", ParamValue::from("server"))
                .with("operations", list(&["transfer", "openAccount"])),
        ),
        ("transactions", ParamSet::new().with("methods", list(&["Bank.transfer"]))),
        ("security", ParamSet::new().with("protected", list(&["Bank.transfer:teller"]))),
    ];
    let workflow =
        steps.iter().fold(WorkflowModel::new("fig2"), |flow, (name, _)| flow.step(name, false));
    let mut mda = MdaLifecycle::new(banking_pim(), workflow).map_err(|e| e.to_string())?;
    mda.set_collector(obs);
    for (name, si) in steps {
        let pair = comet_concerns::by_name(name).expect("standard concern exists");
        mda.apply_concern(&pair, si).map_err(|e| e.to_string())?;
    }
    Ok(mda)
}

fn cmd_pipeline(mut args: Args) -> Result<(), CliError> {
    let plan = chaos_plan(&mut args)?;
    let threads = args.count("--threads")?;
    let trace_path = args.value("--trace", "a path")?;
    let [] = args.finish()?;
    let obs = if trace_path.is_some() { Collector::enabled() } else { Collector::disabled() };
    let mda = fig2_lifecycle(obs.clone())?;
    for step in mda.applied() {
        println!(
            "applied {} (created {}, modified {})",
            step.cmt.full_name(),
            step.report.created.len(),
            step.report.modified.len()
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
        write_trace(&obs.snapshot(), &path)?;
    }
    chaos_outcome
}

/// `comet-cli generate`: runs the Fig. 2 pipeline and renders the
/// woven system through the named generation backend. The backends and
/// content-addressed cache are the same ones the serving layer drives,
/// so the artifact printed here is byte-identical to what a serving
/// tenant's `Generate` request produces at the same model state.
fn cmd_generate(mut args: Args) -> Result<(), CliError> {
    let backend_id = args.value("--backend", "a value")?;
    let out = args.value("-o", "a path")?;
    let list = args.switch("--list-backends");
    let [] = args.finish()?;
    if list {
        for backend in comet::Backend::ALL {
            println!("{:<16} {}", backend.id(), backend.describe());
        }
        return Ok(());
    }
    let id = backend_id.unwrap_or_else(|| comet_serve::DEFAULT_BACKEND.to_owned());
    let backend = comet::Backend::parse(&id)
        .ok_or_else(|| usage_err(format!("unknown backend `{id}` (try --list-backends)")))?;
    let mda = fig2_lifecycle(Collector::disabled())?;
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
/// shard-count-invariant `ServeReport`/trace, so the output of
/// `--shards 1` and `--shards 4` is byte-identical. `--seed` sets the
/// workload plan's seed, not a fault plan's.
///
/// `--data-dir DIR` journals every tenant's repository under
/// `DIR/<tenant>/` (segment store + write-ahead log); a later `serve`
/// over the same directory resumes the tenants from their journals.
/// `--kill tenant@N` (requires `--data-dir`) crashes that tenant's
/// lifecycle at its Nth request — torn journal tail included — and
/// recovers it from the log; the printed report is byte-identical to a
/// run without the kill.
fn cmd_serve(mut args: Args) -> Result<(), CliError> {
    let data_dir = args.value("--data-dir", "a path")?;
    let kill = match args.value("--kill", "tenant@N")? {
        None => None,
        Some(spec) => {
            let (tenant, at) = spec
                .split_once('@')
                .ok_or_else(|| usage_err(format!("--kill: `{spec}` is not tenant@N")))?;
            let at_request = at
                .parse()
                .map_err(|_| usage_err(format!("--kill: `{at}` is not a request number")))?;
            Some(KillPoint { tenant: tenant.to_owned(), at_request })
        }
    };
    let workload = args.value("--workload", "a path")?;
    let shards = args.count("--shards")?.unwrap_or(1);
    let seed = args.number("--seed", "a number")?;
    let faults = args.value("--faults", "a path")?;
    let trace_path = args.value("--trace", "a path")?;
    let threads = args.count("--threads")?;
    let metrics_path = args.value("--metrics", "a path")?;
    let json = args.switch("--json");
    let slo = args.switch("--slo");
    let [] = args.finish()?;
    let mut plan = match workload {
        Some(path) => read_input(&path, WorkloadPlan::parse_toml)?,
        None => WorkloadPlan::default(),
    };
    if let Some(s) = seed {
        plan.seed = s;
    }
    let fault_plan = faults.map(|path| read_input(&path, FaultPlan::parse_toml)).transpose()?;
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
        write_trace(outcome.trace.as_ref().expect("traced run returns a trace"), &path)?;
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
fn cmd_repo(mut args: Args) -> Result<(), CliError> {
    match args.rest.first().map(String::as_str) {
        Some("fsck") => {
            args.rest.remove(0);
            args.cmd = "repo fsck";
        }
        Some(other) => return Err(usage_err(format!("repo: unknown subcommand `{other}`"))),
        None => return Err(usage_err(format!("usage: {}", args.usage))),
    }
    let [dir] = args.finish()?;
    let dir = std::path::PathBuf::from(dir);
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

fn cmd_provenance(mut args: Args) -> Result<(), CliError> {
    let trace_path = args.value("--trace", "a path")?;
    let [element] = args.finish()?;
    let path = trace_path.ok_or_else(|| {
        usage_err(
            "provenance needs --trace <out.json> (a file written by \
             `pipeline --trace` or `run --trace`)",
        )
    })?;
    let trace = read_input(&path, Trace::from_chrome_json)?;
    let index = ProvenanceIndex::build(&trace);
    match index.query(&element) {
        Some(report) => print!("{report}"),
        None => {
            println!("no provenance for `{element}` in {path} ({} indexed entries)", index.len())
        }
    }
    Ok(())
}

fn cmd_metrics(mut args: Args) -> Result<(), CliError> {
    let json = args.switch("--json");
    let [] = args.finish()?;
    // Same Fig. 2 pipeline as `comet-cli pipeline`, measured instead of
    // narrated: scattering/tangling of the middleware concerns over the
    // woven program (the monolithic-equivalent artifact the paper's E5
    // experiment compares against).
    let system = fig2_lifecycle(Collector::disabled())?
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
fn cmd_interactions(mut args: Args) -> Result<(), CliError> {
    let json = args.switch("--json");
    let [] = args.finish()?;
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
