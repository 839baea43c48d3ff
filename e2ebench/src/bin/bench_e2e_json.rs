//! `bench_e2e_json` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin bench_e2e_json -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! With `--workload`, runs that one workload for `--seconds` seconds and
//! prints as the last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! Without `--workload`, runs each workload untraced and then traced,
//! each in a fresh child process of this binary, and prints one JSON
//! document holding every result, also written to `--out` when given.
//! Exits non-zero when any correctness check fails, including a
//! `BENCHMARK.json` in the working directory that lists other workloads
//! or metrics than this binary prints. The workloads and metrics are
//! described in README.md.
//!
//! A run repeats one fixed unit of work — a short plan run, or a pair
//! of lifecycle rounds — until `--seconds` have passed. It reports
//! throughput over a repetition's wall rebuilt from session segments
//! and latency over call positions, each segment and call taken over
//! its fastest quarter of repetitions (see [`comet_e2ebench::RepWalls`]
//! and [`comet_e2ebench::Positions`]), scaled to reference host speed
//! by calibration units timed before every repetition (see
//! [`comet_e2ebench::CalibrationUnit`]).

use comet::{serve_interaction_matrix, Backend, BankingFactory, MdaLifecycle};
use comet_codegen::BodyProvider;
use comet_e2ebench::{
    at_reference_speed, calibrate, check_benchmark_json, fast_median, fnv1a64, host_info,
    kind_index, layer_self_ns, load_plan, metric_json, ns, serve_steps, CalibrationUnit, Ledger,
    Positions, RepWalls, Summary, TimedFactory, CALL_SPAN, END_TO_END, LAYERS, LIFECYCLE_UNIT,
    PER_LAYER, PLANS, SERVE_UNIT, WORKLOADS,
};
use comet_interaction::{build_matrix, InteractionMatrix};
use comet_obs::{Collector, JsonValue, Trace};
use comet_repo::DurableRepository;
use comet_serve::{EngineFactory, RunConfig, ServeReport, ServerCore, TenantEngine, WorkloadPlan};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Shards, and so worker threads, the serve load runs on.
const SHARDS: usize = 2;
/// Repetitions per run at the least, however short `--seconds`.
const MIN_REPS: usize = 8;
/// lifecycle-large times one set-up construction before every
/// `SETUP_EVERY`-th pair. Set-up commits to a journal, so it waits on
/// the disk; spread over the run, its samples do not all fall in one
/// slow second.
const SETUP_EVERY: usize = 4;
/// lifecycle-large times one recovery before every `RECOVER_EVERY`-th
/// pair, for the same reason.
const RECOVER_EVERY: usize = 8;
/// Passes when timing journal reopening and the interaction analysis.
const TIMING_PASSES: usize = 3;
/// Pairs of rounds in lifecycle-large's recovery journal, after set-up.
const RECOVERY_PAIRS: usize = 8;

/// Digests of each workload's output at `PIN_SEED`: the FNV-1a of the
/// `ServeReport` JSON for the serve workloads, and of the two
/// alternating lifecycle states' XMI and artifacts for lifecycle-large.
/// A change that alters what the program computes fails here.
const PIN_SEED: u64 = 7;
const PINNED: [(&str, u64); 4] = [
    ("serve-steady", 0x6580_f40a_c38d_b314),
    ("serve-churn", 0xb31f_9811_09e5_2837),
    ("serve-churn-durable", 0xb31f_9811_09e5_2837),
    ("lifecycle-large", 0x4cc3_3d23_32df_670c),
];

/// lifecycle-large's model: `synthetic(CLASSES, ATTRS, OPS)`.
const CLASSES: usize = 50;
const ATTRS: usize = 3;
const OPS: usize = 6;
/// Classes each logging target set covers.
const LOG_CLASSES: usize = 8;
/// Operations the transactions and security bindings each name.
const BOUND_OPS: usize = 12;
/// Each round generates every backend twice: once right after the
/// apply (weave miss) and once more at the unchanged model (cache
/// hits). With one pass, exactly half a round's calls were fast and
/// the median sat on the edge between fast and slow calls.
const GENERATE_PASSES: usize = 2;
/// Timed calls per pair of rounds: twice undo, apply and the generates.
const PAIR_CALLS: usize = 2 * (2 + GENERATE_PASSES * Backend::ALL.len());

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: PIN_SEED, seconds: 20.0, trace: false, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// What one workload run measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Metrics as measured, before scaling to reference speed.
    metrics: BTreeMap<&'static str, f64>,
    /// The workload's yardstick of host speed.
    unit: CalibrationUnit,
    /// Seconds of every calibration unit, timed before each repetition.
    calibration: Vec<f64>,
}

impl Outcome {
    fn new(unit: CalibrationUnit) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            unit,
            calibration: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Times the calibration unit on `threads` threads at once.
    fn calibrate(&mut self, threads: usize) {
        self.calibration.extend(calibrate(&self.unit, threads));
    }

    /// How many times slower than the reference the host ran.
    fn speed(&self) -> f64 {
        fast_median(&self.calibration) / self.unit.reference_s
    }

    /// The result line, metrics in table order at reference speed; a
    /// metric the table names but the run did not measure is a failed
    /// check.
    fn result_json(&mut self, table: &[(&'static str, &'static str)]) -> JsonValue {
        let speed = self.speed();
        let mut metrics = Vec::new();
        for (name, unit) in table {
            match self.metrics.get(name) {
                Some(v) => metrics.push((
                    (*name).to_owned(),
                    metric_json(at_reference_speed(*v, unit, speed), unit),
                )),
                None => self.problems.push(format!("metric `{name}` was not measured")),
            }
        }
        JsonValue::Obj(vec![
            ("correct".to_owned(), JsonValue::Bool(self.problems.is_empty())),
            ("attempted".to_owned(), JsonValue::Num(self.attempted as f64)),
            ("failed".to_owned(), JsonValue::Num(self.failed as f64)),
            ("metrics".to_owned(), JsonValue::Obj(metrics)),
        ])
    }

    /// The end-to-end metrics: throughput from the repetitions' rebuilt
    /// wall, each of which served `requests` (lifecycle calls), and
    /// latency from each call position's fastest quarter.
    fn emit_e2e(
        &mut self,
        requests: u64,
        walls: &RepWalls,
        positions: &Positions,
        setup_s: &[f64],
        recovery_s: &[f64],
        rss_mib: Result<f64, String>,
    ) {
        let latency = Summary::of(&positions.fast_latencies());
        self.metrics.insert("throughput_rps", requests as f64 / (walls.fast_wall_ns() / 1e9));
        self.metrics.insert("latency_p50_us", us(latency.p50));
        self.metrics.insert("latency_p99_us", us(latency.p99));
        self.metrics.insert("setup_s", fast_median(setup_s));
        if !recovery_s.is_empty() {
            self.metrics.insert("recovery_s", fast_median(recovery_s));
        }
        match rss_mib {
            Ok(mib) => {
                self.metrics.insert("peak_rss_mib", mib);
            }
            Err(e) => self.problems.push(format!("peak RSS: {e}")),
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs `op` with every parallel iterator inside it on this thread.
/// The memory metric is read after such a warm-up: with a single
/// thread, peak RSS does not depend on how the allocator's per-thread
/// arenas happened to be shared out.
fn one_thread<R>(op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("the pool builds").install(op)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn check_pin(out: &mut Outcome, workload: &str, seed: u64, digest: u64) {
    if seed != PIN_SEED {
        return;
    }
    let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d);
    out.check(pinned == Some(digest), || {
        format!("seed-{PIN_SEED} digest {digest:016x} differs from the pinned {pinned:016x?}")
    });
}

/// Traced-repetition totals the per-layer metrics derive from.
#[derive(Default)]
struct LayerTotals {
    /// Requests (lifecycle calls) the traced repetitions served.
    requests: u64,
    /// Σ session wall (lifecycle-large: pair wall) in traced repetitions.
    wall_ns: u64,
    /// Σ engine (lifecycle) call wall in traced repetitions.
    call_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
    generates: u64,
    rewoven: u64,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

impl LayerTotals {
    fn add_trace(&mut self, trace: &Trace) {
        for (layer, v) in layer_self_ns(trace) {
            *self.self_ns.entry(layer).or_insert(0) += v;
        }
        self.rewoven += trace.counters.get("weave.incremental.rewoven").copied().unwrap_or(0);
    }

    /// The time ledger: per-request layer costs, and how well they add
    /// up to the measured wall time (must be within 5%). Time outside
    /// calls is measured by the benchmark's timers, time inside them by
    /// the spans, so the residue is where the two disagree.
    fn emit(&self, out: &mut Outcome) {
        let per = |v: f64| v / 1e3 / self.requests.max(1) as f64;
        let spans: u64 = self.self_ns.values().sum();
        let outside = self.wall_ns.saturating_sub(self.call_ns);
        let unattributed = self.wall_ns as f64 - (spans + outside) as f64;
        let gap = unattributed.abs() / self.wall_ns.max(1) as f64;
        out.check(self.requests > 0, || "no traced request was measured".to_owned());
        out.check(gap <= 0.05, || {
            format!("layer ledger does not close: {:.2}% of wall unattributed", gap * 100.0)
        });
        let m = &mut out.metrics;
        m.insert("ledger.wall_us", per(self.wall_ns as f64));
        m.insert("ledger.outside_calls_us", per(outside as f64));
        for layer in LAYERS {
            m.insert(layer, per(self.self_ns.get(layer).copied().unwrap_or(0) as f64));
        }
        m.insert("trace.unattributed_us", per(unattributed));
        m.insert("trace.ledger_gap", gap);
        m.insert(
            "obs.tracing_overhead",
            fast_median(&self.traced_walls) / fast_median(&self.untraced_walls),
        );
        m.insert("aop.rewoven_per_generate", ratio(self.rewoven, self.generates));
    }
}

/// Call latency from untraced repetitions: writes (apply, undo) change
/// the model, reads (generate, snapshot) render or export it.
fn emit_calls(out: &mut Outcome, calls: &Ledger) {
    const CALL_METRICS: [([&str; 2], [&str; 3]); 2] = [
        (["apply", "undo"], ["call.write_p50_us", "call.write_p99_us", "call.write_n"]),
        (["generate", "snapshot"], ["call.read_p50_us", "call.read_p99_us", "call.read_n"]),
    ];
    for (kinds, [p50, p99, n]) in CALL_METRICS {
        let samples: Vec<u64> =
            kinds.iter().flat_map(|k| &calls.calls[kind_index(k)]).copied().collect();
        let s = Summary::of(&samples);
        out.metrics.insert(p50, us(s.p50));
        out.metrics.insert(p99, us(s.p99));
        out.metrics.insert(n, s.n as f64);
    }
}

/// Times reopening every journal in `journals` as a bare repository,
/// [`TIMING_PASSES`] times: the median single open in ms.
fn time_reopen(out: &mut Outcome, journals: &[PathBuf]) -> f64 {
    let mut opens = Vec::new();
    for _ in 0..TIMING_PASSES {
        for j in journals {
            let t1 = Instant::now();
            if let Err(e) = DurableRepository::open(j) {
                out.problems.push(format!("reopen {}: {e}", j.display()));
            }
            opens.push(ns(t1.elapsed()));
        }
    }
    Summary::of(&opens).p50 as f64 / 1e6
}

/// Times `build` [`TIMING_PASSES`] times; the fastest quarter's median.
fn time_matrix<E: std::fmt::Display>(
    out: &mut Outcome,
    build: impl Fn() -> Result<InteractionMatrix, E>,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..TIMING_PASSES {
        let t0 = Instant::now();
        if let Err(e) = build() {
            out.problems.push(format!("interaction analysis: {e}"));
        }
        times.push(secs(ns(t0.elapsed())));
    }
    fast_median(&times)
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

struct ServeRep {
    setup_ns: u64,
    wall_ns: u64,
    report: ServeReport,
    trace: Option<Trace>,
    ledger: Ledger,
    /// The shard each session ran on.
    shards: BTreeMap<String, usize>,
}

/// One plan run on a fresh server. Set-up — plan parse and validation,
/// the factory with its interaction analysis, the server core — is
/// timed apart from the run.
fn serve_rep(
    plan_text: &str,
    seed: u64,
    data_dir: Option<&Path>,
    traced: bool,
) -> Result<ServeRep, String> {
    let t0 = Instant::now();
    let plan: WorkloadPlan = load_plan(plan_text, seed)?;
    let mut factory = BankingFactory::with_steps(plan.seed, None, &serve_steps(&plan))
        .map_err(|e| e.to_string())?;
    if let Some(dir) = data_dir {
        factory = factory.with_data_dir(dir);
    }
    let factory = TimedFactory::new(factory);
    let core = ServerCore::new(&plan, &factory, SHARDS).map_err(|e| e.to_string())?;
    let setup_ns = ns(t0.elapsed());
    let t1 = Instant::now();
    let outcome = core.run_with(&RunConfig { traced, metrics: false });
    let wall_ns = ns(t1.elapsed());
    let ledger = factory.take_ledger();
    let shards = ledger.walls.keys().map(|t| (t.clone(), core.shard_of(t))).collect();
    Ok(ServeRep { setup_ns, wall_ns, report: outcome.report, trace: outcome.trace, ledger, shards })
}

/// Timing from outside must not change what the program does: the plan,
/// cut to an eighth of its requests per client, served in memory
/// through [`TimedFactory`] and through the plain factory with metrics
/// on, gives the same report and metrics snapshot. The engine counters
/// reach the snapshot only through `counters()`, so a wrapper that
/// dropped them would differ.
fn check_timed_is_plain(out: &mut Outcome, plan: &WorkloadPlan) {
    let plan = WorkloadPlan { requests: (plan.requests / 8).max(1), ..plan.clone() };
    let serve = |timed: bool| -> Result<_, String> {
        let factory = BankingFactory::with_steps(plan.seed, None, &serve_steps(&plan))
            .map_err(|e| e.to_string())?;
        let cfg = RunConfig { traced: false, metrics: true };
        let outcome = if timed {
            ServerCore::new(&plan, &TimedFactory::new(factory), SHARDS).map(|c| c.run_with(&cfg))
        } else {
            ServerCore::new(&plan, &factory, SHARDS).map(|c| c.run_with(&cfg))
        }
        .map_err(|e| e.to_string())?;
        Ok((outcome.report, outcome.metrics))
    };
    match (serve(true), serve(false)) {
        (Ok(timed), Ok(plain)) => out.check(timed == plain, || {
            "timing from outside changed the report or the metrics snapshot".to_owned()
        }),
        (Err(e), _) | (_, Err(e)) => out.problems.push(e),
    }
}

/// A server restarted on the journals of a run that served `report`,
/// one tenant at a time: a factory on that data directory creates the
/// tenant's session, which recovers its lifecycle from its journal.
/// After each repetition [`Restarts::sample`] restarts the next half of
/// the tenants in turn, so the samples spread over the whole run
/// instead of falling in one moment. A tenant's recovery is the same
/// work every time, so it is taken at its fastest quarter like a call
/// position (see [`Positions`]); `recovery_s` is their sum, a restart of
/// every tenant.
struct Restarts<'r> {
    factory: BankingFactory,
    tenants: Vec<String>,
    report: &'r ServeReport,
    next: usize,
    times: Positions,
}

impl<'r> Restarts<'r> {
    fn new(factory: BankingFactory, report: &'r ServeReport) -> Self {
        let tenants = report.tenants.keys().cloned().collect();
        Restarts { factory, tenants, report, next: 0, times: Positions::default() }
    }

    /// Restarts the next half of the tenants. Every recovered tenant
    /// must have applied what the report says it had.
    fn sample(&mut self, out: &mut Outcome) {
        let obs = Collector::disabled();
        for _ in 0..self.tenants.len().div_ceil(2) {
            let tenant = &self.tenants[self.next % self.tenants.len()];
            self.next += 1;
            let t0 = Instant::now();
            let session = self.factory.create(tenant, &obs);
            let took = ns(t0.elapsed());
            let served = &self.report.tenants[tenant].applied;
            out.check(*served == session.applied(), || {
                format!(
                    "recovered tenant {tenant} applied {:?}, served {served:?}",
                    session.applied()
                )
            });
            self.times.add(&BTreeMap::from([(tenant.clone(), vec![took])]));
        }
    }

    /// Seconds to recover every tenant, each at its fastest quarter.
    fn seconds(&self, out: &mut Outcome) -> f64 {
        out.check(self.next >= self.tenants.len(), || "a tenant was never restarted".to_owned());
        secs(self.times.fast_latencies().iter().sum())
    }
}

fn check_accounting(out: &mut Outcome, r: &ServeReport) {
    out.check(r.issued == r.completed + r.rejected + r.deadline_dropped, || {
        format!("issued {} != completed + rejected + shed", r.issued)
    });
    out.check(r.completed == r.ok + r.failed, || {
        format!("completed {} != ok {} + failed {}", r.completed, r.ok, r.failed)
    });
}

/// The journal in `dir` must pass fsck.
fn fsck(out: &mut Outcome, dir: &Path) {
    match DurableRepository::fsck(dir) {
        Ok(report) => out.check(report.ok(), || format!("fsck {}: {report}", dir.display())),
        Err(e) => out.problems.push(format!("fsck {}: {e}", dir.display())),
    }
}

/// Every tenant journal under `dir` must pass fsck. Returns them.
fn fsck_all(out: &mut Outcome, dir: &Path) -> Vec<PathBuf> {
    let journals: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    out.check(!journals.is_empty(), || "the durable run wrote no journal".to_owned());
    for j in &journals {
        fsck(out, j);
    }
    journals
}

fn run_serve(workload: &str, args: &Args, scratch: &Path) -> Outcome {
    let mut out = Outcome::new(SERVE_UNIT);
    let durable = workload == "serve-churn-durable";
    let plan_name = if durable { "serve-churn" } else { workload };
    let text = PLANS.iter().find(|(n, _)| *n == plan_name).expect("every serve plan is listed").1;
    let rep_dir = |i: usize| durable.then(|| scratch.join(format!("rep{i}")));

    // Warm-up on one thread: the memory metric is read right after it.
    // Its report is the reference every later repetition reproduces
    // byte for byte, traced or not.
    let first = match one_thread(|| serve_rep(text, args.seed, rep_dir(0).as_deref(), false)) {
        Ok(rep) => rep,
        Err(e) => {
            out.problems.push(format!("plan does not serve: {e}"));
            return out;
        }
    };
    let rss = peak_rss_mib();
    let reference_json = first.report.to_json();
    check_accounting(&mut out, &first.report);
    check_pin(&mut out, workload, args.seed, fnv1a64(reference_json.as_bytes()));
    let plan = match load_plan(text, args.seed) {
        Ok(plan) => plan,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    check_timed_is_plain(&mut out, &plan);

    // The journals recovery and the repository layer are measured on:
    // serve-churn-durable's warm-up wrote them, and its tenants must
    // serve exactly what in-memory ones do; the in-memory workloads
    // serve their plan once more, journalled, which says what
    // journalling their requests would cost.
    let (journal, fsyncs) = match rep_dir(0) {
        Some(dir) => {
            match serve_rep(text, args.seed, None, false) {
                Ok(mem) => out.check(mem.report.to_json() == reference_json, || {
                    "the durable report differs from the in-memory one".to_owned()
                }),
                Err(e) => out.problems.push(e),
            }
            (dir, first.ledger.counter("wal_fsyncs"))
        }
        None => {
            let dir = scratch.join("journal");
            match serve_rep(text, args.seed, Some(&dir), false) {
                Ok(rep) => {
                    out.check(rep.report.to_json() == reference_json, || {
                        "the journalled repetition reports differently from the first".to_owned()
                    });
                    (dir, rep.ledger.counter("wal_fsyncs"))
                }
                Err(e) => {
                    out.problems.push(format!("journalled repetition: {e}"));
                    return out;
                }
            }
        }
    };
    let mut restarts = match BankingFactory::with_steps(plan.seed, None, &serve_steps(&plan)) {
        Ok(factory) => Restarts::new(factory.with_data_dir(&journal), &first.report),
        Err(e) => {
            out.problems.push(e.to_string());
            return out;
        }
    };

    let mut setup = Vec::new();
    let mut walls = RepWalls::default();
    let mut positions = Positions::default();
    let mut layers = LayerTotals::default();
    let mut untraced = Ledger::default();
    let mut last_dir: Option<PathBuf> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 1usize;
    loop {
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead compares repetitions of one process.
        let traced = args.trace && i.is_multiple_of(2);
        let dir = rep_dir(i);
        out.calibrate(SHARDS);
        let rep = match serve_rep(text, args.seed, dir.as_deref(), traced) {
            Ok(rep) => rep,
            Err(e) => {
                out.problems.push(e);
                break;
            }
        };
        let r = &rep.report;
        check_accounting(&mut out, r);
        out.check(r.to_json() == reference_json, || {
            format!("repetition {i} reports differently from the first")
        });
        out.attempted += r.issued;
        out.failed += r.failed + r.rejected + r.deadline_dropped;
        setup.push(secs(rep.setup_ns));
        if let Some(prev) = std::mem::replace(&mut last_dir, dir) {
            let _ = std::fs::remove_dir_all(prev);
        }
        restarts.sample(&mut out);
        if traced {
            let trace = rep.trace.as_ref().expect("a traced run returns its trace");
            layers.add_trace(trace);
            layers.requests += r.completed;
            layers.wall_ns += rep.ledger.tenant_wall_ns();
            layers.call_ns += rep.ledger.call_ns();
            layers.generates += rep.ledger.calls[kind_index("generate")].len() as u64;
            layers.traced_walls.push(secs(rep.wall_ns));
        } else {
            layers.untraced_walls.push(secs(rep.wall_ns));
            walls.add(rep.wall_ns, &rep.ledger.walls, |t| rep.shards[t]);
            positions.add(&rep.ledger.sequences);
            untraced.merge(Ledger { sequences: BTreeMap::new(), ..rep.ledger });
        }
        if i >= MIN_REPS && Instant::now() >= deadline && (!args.trace || i.is_multiple_of(2)) {
            break;
        }
        i += 1;
    }

    // The journals, the last repetition's and the restarted ones, must
    // pass fsck.
    if let Some(dir) = &last_dir {
        fsck_all(&mut out, dir);
        let _ = std::fs::remove_dir_all(dir);
    }
    let journals = fsck_all(&mut out, &journal);
    let recovery_s = restarts.seconds(&mut out);
    let completed = first.report.completed;
    if args.trace {
        let open_p50_ms = time_reopen(&mut out, &journals);
        let m = &mut out.metrics;
        m.insert("repo.wal_fsyncs_per_req", ratio(fsyncs, completed));
        m.insert("repo.journal_bytes_per_req", ratio(dir_bytes(&journal), completed));
        m.insert("repo.open_p50_ms", open_p50_ms);
    }
    let _ = std::fs::remove_dir_all(&journal);

    if !args.trace {
        out.emit_e2e(completed, &walls, &positions, &setup, &[recovery_s], rss);
        return out;
    }
    layers.emit(&mut out);
    emit_calls(&mut out, &untraced);
    let steps = serve_steps(&plan);
    let matrix_s = time_matrix(&mut out, || serve_interaction_matrix(&steps));
    let c = |name| untraced.counter(name);
    let m = &mut out.metrics;
    m.insert("interaction.matrix_build_s", matrix_s);
    m.insert(
        "gen.cache_hit_ratio",
        ratio(c("gen_cache_hits"), c("gen_cache_hits") + c("gen_cache_misses")),
    );
    m.insert(
        "aop.weave_hit_ratio",
        ratio(c("weave_cache_hits"), c("weave_cache_hits") + c("weave_cache_misses")),
    );
    out
}

// ---------------------------------------------------------------------
// lifecycle-large
// ---------------------------------------------------------------------

/// SplitMix64: the seeded choice of lifecycle-large's target classes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The concern bindings of lifecycle-large, on seed-chosen classes.
/// Every seed binds the same number of classes and operations, so
/// seeds change which elements are touched, not how many.
struct Bindings {
    /// distribution, transactions and security, in application order.
    steps: Vec<(&'static str, ParamSet)>,
    /// Logging's two alternating target sets.
    logging: [ParamSet; 2],
}

impl Bindings {
    /// Every binding in application order, logging on its first set.
    fn all(&self) -> impl Iterator<Item = (&'static str, ParamSet)> + '_ {
        self.steps.iter().cloned().chain([("logging", self.logging[0].clone())])
    }
}

fn bindings(seed: u64) -> Bindings {
    let mut state = seed;
    let mut classes: Vec<usize> = (0..CLASSES).collect();
    for i in (1..classes.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        classes.swap(i, j);
    }
    let mut ops = |from: usize| -> Vec<String> {
        classes[from..from + BOUND_OPS]
            .iter()
            .map(|c| format!("C{c}.op{}", splitmix(&mut state) % OPS as u64))
            .collect()
    };
    let tx = ops(1);
    let sec: Vec<String> = ops(1 + BOUND_OPS).into_iter().map(|m| format!("{m}:teller")).collect();
    let log_from = 1 + 2 * BOUND_OPS;
    let log = |k: usize| {
        let targets: Vec<String> = classes[log_from + k * LOG_CLASSES..][..LOG_CLASSES]
            .iter()
            .map(|c| format!("C{c}.*"))
            .collect();
        ParamSet::new().with("targets", ParamValue::from(targets))
    };
    let operations: Vec<String> = (0..OPS).map(|o| format!("op{o}")).collect();
    let dist = ParamSet::new()
        .with("server_class", ParamValue::from(format!("C{}", classes[0]).as_str()))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(operations));
    Bindings {
        steps: vec![
            ("distribution", dist),
            ("transactions", ParamSet::new().with("methods", ParamValue::from(tx))),
            ("security", ParamSet::new().with("protected", ParamValue::from(sec))),
        ],
        logging: [log(0), log(1)],
    }
}

fn large_workflow() -> WorkflowModel {
    ["distribution", "transactions", "security", "logging"]
        .iter()
        .fold(WorkflowModel::new("large"), |w, step| w.step(step, false))
}

/// Set-up: the model, the durable lifecycle, and the four bindings.
fn build_lifecycle(dir: &Path, b: &Bindings) -> Result<MdaLifecycle, String> {
    let model = comet_model::sample::synthetic(CLASSES, ATTRS, OPS);
    let mut mda =
        MdaLifecycle::new_durable(model, large_workflow(), dir).map_err(|e| e.to_string())?;
    for (concern, si) in b.all() {
        let pair = comet_concerns::by_name(concern).expect("standard concern");
        mda.apply_concern(&pair, si).map_err(|e| format!("apply {concern}: {e}"))?;
    }
    Ok(mda)
}

/// Runs one lifecycle call of `kind`, timed into `ledger` and inside a
/// [`CALL_SPAN`] span on `obs` — the request span the scheduler opens
/// around each serve request.
fn timed<R>(obs: &Collector, ledger: &mut Ledger, kind: &str, call: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let span = obs.begin_span(CALL_SPAN, kind, 0);
    let result = call();
    obs.end_span(span, 0);
    ledger.record("lifecycle", kind, ns(t.elapsed()));
    result
}

/// One round: undo the logging step, re-bind it to `si`, and generate
/// every backend `GENERATE_PASSES` times, each call timed into
/// `ledger`; `obs` is the lifecycle's collector. Returns the artifacts
/// of the last pass.
fn round(
    mda: &mut MdaLifecycle,
    obs: &Collector,
    si: &ParamSet,
    ledger: &mut Ledger,
) -> Result<Vec<String>, String> {
    let logging = comet_concerns::by_name("logging").expect("standard concern");
    let bodies = BodyProvider::default();
    timed(obs, ledger, "undo", || mda.undo_last()).map_err(|e| format!("undo: {e}"))?;
    timed(obs, ledger, "apply", || mda.apply_concern(&logging, si.clone()))
        .map_err(|e| format!("apply logging: {e}"))?;
    let mut passes: Vec<Vec<String>> = Vec::new();
    for _ in 0..GENERATE_PASSES {
        let mut artifacts = Vec::new();
        for backend in Backend::ALL {
            let system = timed(obs, ledger, "generate", || mda.generate(&bodies, backend))
                .map_err(|e| format!("generate: {e}"))?;
            artifacts.push(system.artifact);
        }
        passes.push(artifacts);
    }
    if passes.windows(2).any(|w| w[0] != w[1]) {
        return Err("a repeated generate rendered a different artifact".to_owned());
    }
    Ok(passes.pop().expect("GENERATE_PASSES > 0"))
}

/// FNV-1a over a lifecycle state: the model's XMI and every artifact.
fn state_digest(mda: &MdaLifecycle, artifacts: &[String]) -> u64 {
    let mut text = comet_xmi::export_model(mda.model());
    for a in artifacts {
        text.push('\u{0}');
        text.push_str(a);
    }
    fnv1a64(text.as_bytes())
}

/// Times one set-up construction, in a directory of its own.
fn time_setup(out: &mut Outcome, setup: &mut Vec<f64>, dir: &Path, b: &Bindings) {
    out.calibrate(1);
    let t0 = Instant::now();
    let built = build_lifecycle(dir, b);
    setup.push(secs(ns(t0.elapsed())));
    if let Err(e) = built {
        out.problems.push(e);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Times one recovery of the journal in `dir`, which must rebuild the
/// model whose XMI is `xmi`.
fn time_recover(out: &mut Outcome, recovery_s: &mut Vec<f64>, dir: &Path, b: &Bindings, xmi: &str) {
    let resolver = |concern: &str| {
        let (_, si) = b.all().find(|(c, _)| *c == concern)?;
        Some((comet_concerns::by_name(concern)?, si))
    };
    out.calibrate(1);
    let t0 = Instant::now();
    match MdaLifecycle::recover(dir, large_workflow(), resolver) {
        Ok((recovered, _)) => {
            recovery_s.push(secs(ns(t0.elapsed())));
            out.check(comet_xmi::export_model(recovered.model()) == xmi, || {
                "the recovered model's XMI differs from the live model's".to_owned()
            });
        }
        Err(e) => out.problems.push(format!("recover: {e}")),
    }
}

fn run_lifecycle(args: &Args, scratch: &Path) -> Outcome {
    let mut out = Outcome::new(LIFECYCLE_UNIT);
    let b = bindings(args.seed);
    let dir = scratch.join("lifecycle");
    let mut mda = match build_lifecycle(&dir, &b) {
        Ok(mda) => mda,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };

    // A pair of rounds re-binds logging to target set 1, then back to
    // target set 0, so every pair does identical work and ends in the
    // set-up state. The warm-up pair runs on one thread, renders every
    // artifact cold, and records each state's digest.
    let untraced_obs = Collector::disabled();
    let mut warm = Ledger::default();
    let mut digests = [0u64; 2];
    let warm_up = one_thread(|| -> Result<(), String> {
        for state in [1, 0] {
            let artifacts = round(&mut mda, &untraced_obs, &b.logging[state], &mut warm)?;
            digests[state] = state_digest(&mda, &artifacts);
        }
        Ok(())
    });
    let rss = peak_rss_mib();
    out.attempted += PAIR_CALLS as u64;
    if let Err(e) = warm_up {
        out.failed += 1;
        out.problems.push(e);
        return out;
    }
    check_pin(
        &mut out,
        "lifecycle-large",
        args.seed,
        fnv1a64(format!("{:016x}{:016x}", digests[0], digests[1]).as_bytes()),
    );

    // Recovery is timed on a twin journal of fixed length, so the time
    // does not grow with the number of pairs a run fits in; it must
    // reproduce the twin's live model.
    let twin_dir = scratch.join("recovery");
    let twin = build_lifecycle(&twin_dir, &b).and_then(|mut twin| {
        let mut ledger = Ledger::default();
        for _ in 0..RECOVERY_PAIRS {
            round(&mut twin, &untraced_obs, &b.logging[1], &mut ledger)?;
            round(&mut twin, &untraced_obs, &b.logging[0], &mut ledger)?;
        }
        Ok(comet_xmi::export_model(twin.model()))
    });
    let twin_xmi = match twin {
        Ok(xmi) => xmi,
        Err(e) => {
            out.problems.push(format!("recovery twin: {e}"));
            return out;
        }
    };

    let collector = Collector::enabled();
    let mut setup = Vec::new();
    let mut recovery_s = Vec::new();
    let mut walls = RepWalls::default();
    let mut positions = Positions::default();
    let mut untraced = Ledger::default();
    let mut layers = LayerTotals::default();
    let mut last_artifacts: Vec<String>;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pair = 1usize;
    loop {
        if pair % SETUP_EVERY == 1 {
            time_setup(&mut out, &mut setup, &scratch.join("setup"), &b);
        }
        if pair.is_multiple_of(RECOVER_EVERY) {
            time_recover(&mut out, &mut recovery_s, &twin_dir, &b, &twin_xmi);
        }
        let traced = args.trace && pair.is_multiple_of(2);
        out.calibrate(1);
        let obs = if traced { &collector } else { &untraced_obs };
        mda.set_collector(obs.clone());
        let mut ledger = Ledger::default();
        let t0 = Instant::now();
        let result = round(&mut mda, obs, &b.logging[1], &mut ledger)
            .and_then(|_| round(&mut mda, obs, &b.logging[0], &mut ledger));
        let pair_wall_ns = ns(t0.elapsed());
        out.attempted += PAIR_CALLS as u64;
        match result {
            Ok(artifacts) => last_artifacts = artifacts,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("pair {pair}: {e}"));
                return out;
            }
        }
        let wall_ns = ledger.call_ns();
        if traced {
            let trace = collector.take();
            layers.add_trace(&trace);
            layers.traced_walls.push(secs(wall_ns));
            layers.requests += PAIR_CALLS as u64;
            layers.wall_ns += pair_wall_ns;
            layers.call_ns += wall_ns;
            layers.generates += ledger.calls[kind_index("generate")].len() as u64;
        } else {
            layers.untraced_walls.push(secs(wall_ns));
            walls.add(wall_ns, &ledger.sequences, |_| 0);
            positions.add(&ledger.sequences);
            untraced.merge(Ledger { sequences: BTreeMap::new(), ..ledger });
        }
        if pair >= MIN_REPS && Instant::now() >= deadline && (!args.trace || pair.is_multiple_of(2))
        {
            break;
        }
        pair += 1;
    }

    // The final state must reproduce the warm-up's cold renders.
    out.check(state_digest(&mda, &last_artifacts) == digests[0], || {
        "the final lifecycle state differs from its first, cold occurrence".to_owned()
    });
    let (weave_hits, weave_misses) = mda.weave_cache_stats();
    let (gen_hits, gen_misses) = mda.gen_cache_stats();
    let fsyncs = mda.wal_fsyncs();
    drop(mda);
    fsck(&mut out, &dir);
    fsck(&mut out, &twin_dir);
    let journal_bytes = dir_bytes(&dir);

    if !args.trace {
        out.emit_e2e(PAIR_CALLS as u64, &walls, &positions, &setup, &recovery_s, rss);
        return out;
    }
    let open_p50_ms = time_reopen(&mut out, &[twin_dir]);
    layers.emit(&mut out);
    emit_calls(&mut out, &untraced);
    // The interaction analysis of the four bindings on the 50-class model.
    let model = comet_model::sample::synthetic(CLASSES, ATTRS, OPS);
    let analysed: Vec<_> = b
        .all()
        .map(|(concern, si)| (comet_concerns::by_name(concern).expect("standard concern"), si))
        .collect();
    let bodies = BodyProvider::default();
    let matrix_s = time_matrix(&mut out, || build_matrix(&model, &bodies, &analysed));
    let m = &mut out.metrics;
    m.insert("interaction.matrix_build_s", matrix_s);
    m.insert("gen.cache_hit_ratio", ratio(gen_hits, gen_hits + gen_misses));
    m.insert("aop.weave_hit_ratio", ratio(weave_hits, weave_hits + weave_misses));
    m.insert("repo.wal_fsyncs_per_req", ratio(fsyncs, out.attempted));
    m.insert("repo.journal_bytes_per_req", ratio(journal_bytes, out.attempted));
    m.insert("repo.open_p50_ms", open_p50_ms);
    out
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    // Journals go under the build directory of the checkout the
    // benchmark runs from, one directory per process.
    let scratch = PathBuf::from(".bench_build").join(format!("e2e-scratch-{}", std::process::id()));
    let mut out = if workload == "lifecycle-large" {
        run_lifecycle(args, &scratch)
    } else {
        run_serve(workload, args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // The run prints what BENCHMARK.json, beside it, says it prints.
    if let Err(e) = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| check_benchmark_json(&text))
    {
        out.problems.push(e);
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = out.result_json(table);
    eprintln!(
        "{workload}: host ran {:.3}x the reference speed's time ({} calibration units)",
        out.speed(),
        out.calibration.len()
    );
    let measured: Vec<(String, JsonValue)> = table
        .iter()
        .filter_map(|(name, _)| Some(((*name).to_owned(), JsonValue::Num(*out.metrics.get(name)?))))
        .collect();
    eprintln!("{workload}: as measured: {}", JsonValue::Obj(measured));
    for p in &out.problems {
        eprintln!("{workload}: check failed: {p}");
    }
    println!("{line}");
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut members = Vec::new();
        let mut correct = true;
        for (trace, key) in [("0", "e2e"), ("1", "layers")] {
            eprintln!("running {workload} (trace {trace}) ...");
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output();
            let parsed = child.as_ref().ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout);
                let line = stdout.lines().last()?.to_owned();
                JsonValue::parse(&line).ok().map(|v| (o.status.success(), v))
            });
            let Some((ok, result)) = parsed else {
                eprintln!("{workload}: the child printed no result");
                correct = false;
                continue;
            };
            correct &= ok && result.get("correct") == Some(&JsonValue::Bool(true));
            if trace == "0" {
                for field in ["attempted", "failed"] {
                    let value = result.get(field).cloned().unwrap_or(JsonValue::Null);
                    members.push((field.to_owned(), value));
                }
            }
            let metrics = result.get("metrics").cloned().unwrap_or(JsonValue::Null);
            members.push((key.to_owned(), metrics));
        }
        members.insert(0, ("correct".to_owned(), JsonValue::Bool(correct)));
        all_correct &= correct;
        results.push((workload.to_owned(), JsonValue::Obj(members)));
    }
    let doc = JsonValue::Obj(vec![
        ("benchmark".to_owned(), JsonValue::Str("bench_e2e_json".to_owned())),
        ("host".to_owned(), host_info(SHARDS).to_json()),
        ("seed".to_owned(), JsonValue::Num(args.seed as f64)),
        ("seconds".to_owned(), JsonValue::Num(args.seconds)),
        ("correct".to_owned(), JsonValue::Bool(all_correct)),
        ("workloads".to_owned(), JsonValue::Obj(results)),
    ]);
    let text = doc.to_pretty();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{text}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e_json: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
