//! # comet-e2ebench — the repository benchmark's harness
//!
//! Everything `bench_e2e_json` and `bench_e2e_compare` share, kept in a
//! library so the tests can reach it:
//!
//! * nearest-rank summaries over nanosecond samples ([`Summary`]) and
//!   the quartiles the comparison uses ([`quartiles`]);
//! * the fastest-share statistics ([`fast_median`], [`Positions`],
//!   [`RepWalls`]) and the host-speed calibration ([`calibrate`]) that
//!   steady the end-to-end metrics on a shared host;
//! * [`host_info`] — cores, worker threads and git revision;
//! * the timed wrappers [`TimedFactory`] / [`TimedEngine`], which time
//!   every engine call and session from outside the program and forward
//!   every trait method untouched;
//! * per-layer self time from the spans the program already records
//!   ([`layer_self_ns`]);
//! * the serve workload plans under `workloads/` ([`load_plan`]);
//! * the workload and metric names `BENCHMARK.json` must list
//!   ([`check_benchmark_json`]).
//!
//! Output goes through `comet_obs::JsonValue`, the workspace's one JSON
//! emitter and parser.

use comet_obs::{Collector, JsonValue, Span, Trace};
use comet_serve::{EngineFactory, QuerySelector, Request, ServeError, TenantEngine, WorkloadPlan};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct`% of the samples at or below it. 0 when empty.
pub fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Count, minimum and nearest-rank percentiles of a sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[u64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Summary {
            n: sorted.len(),
            min: sorted.first().copied().unwrap_or(0),
            p50: nearest_rank(&sorted, 50.0),
            p90: nearest_rank(&sorted, 90.0),
            p99: nearest_rank(&sorted, 99.0),
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count).
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method — the default
/// of Python's `statistics.quantiles(values, n=4)`, so the spreads the
/// comparison prints match that computation exactly.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The share of samples a timing is taken over: the fastest quarter.
/// Every timing is short — one call, one segment of a session, one
/// calibration unit, one set-up — and every sample of it does identical
/// work, so they differ only by interference from the host. Shared
/// hosts drift between speed states (measured on a 2-vCPU cloud host:
/// states up to 1.7× apart, switching within seconds, with millisecond
/// bursts inside the slow ones) and the share of a run spent in a slow
/// state varies from run to run; a run's median follows that share, its
/// fastest quarter does not.
pub const FAST_SHARE: f64 = 0.25;

/// Median of the smallest [`FAST_SHARE`] of `values`, at least one of
/// them. NaN when empty.
pub fn fast_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(((v.len() as f64 * FAST_SHARE).ceil() as usize).max(1));
    median(&v)
}

// ---------------------------------------------------------------------
// Host speed calibration
// ---------------------------------------------------------------------

/// Fixed allocation-heavy work owned by the benchmark, the yardstick
/// of host speed: `keys` formatted keys, hashed with [`fnv1a64`], into
/// a `BTreeMap` of small vectors, then a reversed copy of the keys. It
/// uses nothing of the program, so no program change moves its time.
/// The program's own work is dominated by the same kind of small
/// allocations and string handling. Never change a unit: every time
/// result is scaled by its time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationUnit {
    /// Keys the unit inserts; they set its working set.
    pub keys: u64,
    /// Units each thread times per [`calibrate`] call.
    pub repeats: usize,
    /// Seconds the unit takes at reference speed.
    pub reference_s: f64,
}

/// The serve workloads' unit: 3000 keys, 1.1 ms at reference speed —
/// its fastest-quarter time on the 2-vCPU host the bounds were set on,
/// in a quiet phase.
///
/// A shared host's slow phases do not slow every kind of code alike:
/// the larger unit slows more. Each workload is scaled by the unit that
/// tracked it. Measured on that host in a phase where this unit ran up
/// to 1.7× slower than at reference speed, twelve runs of one seed
/// spread, when scaled by this unit, 6–10% in the serve workloads'
/// latencies and 16–19% in lifecycle-large's; scaled by
/// [`LIFECYCLE_UNIT`], 13–15% and 6–7%.
pub const SERVE_UNIT: CalibrationUnit =
    CalibrationUnit { keys: 3000, repeats: 4, reference_s: 0.0011 };

/// lifecycle-large's unit: 10000 keys, about 5 ms. Its time at
/// reference speed is set so that the two units read the same host
/// speed, on median, over ten rounds of every workload in turn.
pub const LIFECYCLE_UNIT: CalibrationUnit =
    CalibrationUnit { keys: 10_000, repeats: 1, reference_s: 0.0055 };

impl CalibrationUnit {
    /// Runs the unit once.
    pub fn run(&self) -> u64 {
        let mut map = BTreeMap::new();
        let mut acc = 0u64;
        for i in 0..self.keys {
            let key = format!("class-{}-op-{}", i % 97, i);
            acc = acc.wrapping_add(fnv1a64(key.as_bytes()));
            map.insert(key, vec![i; 8]);
        }
        let keys: Vec<String> = map.keys().rev().cloned().collect();
        for k in &keys {
            acc ^= k.len() as u64;
        }
        std::hint::black_box(acc)
    }
}

/// 64-bit FNV-1a, the benchmark's own: the calibration unit and the
/// pinned output digests must not change when the program's hashing
/// does.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Seconds of each run of `unit` that `threads` threads, running at
/// once, time back to back, `unit.repeats` each.
pub fn calibrate(unit: &CalibrationUnit, threads: usize) -> Vec<f64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    (0..unit.repeats)
                        .map(|_| {
                            let t0 = Instant::now();
                            unit.run();
                            t0.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("the calibration unit does not panic"))
            .collect()
    })
}

/// Reports `value`, measured in `unit` on a host running `speed` times
/// slower than the reference, at reference speed: times divide by
/// `speed`, rates multiply; counts, ratios and sizes stay as measured.
pub fn at_reference_speed(value: f64, unit: &str, speed: f64) -> f64 {
    match unit {
        "us" | "ms" | "s" => value / speed,
        "req/s" => value * speed,
        _ => value,
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Host and emission
// ---------------------------------------------------------------------

/// What a result depends on besides the code: the host's cores, the
/// worker threads the load ran on, and the measured revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Worker threads the benchmark drives load from.
    pub threads: usize,
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

/// Reads the host facts for a run on `threads` worker threads.
pub fn host_info(threads: usize) -> HostInfo {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    HostInfo {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads,
        git_rev,
    }
}

impl HostInfo {
    /// The host facts as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("host_cores".to_owned(), JsonValue::Num(self.cores as f64)),
            ("threads".to_owned(), JsonValue::Num(self.threads as f64)),
            ("git_rev".to_owned(), JsonValue::Str(self.git_rev.clone())),
        ])
    }
}

/// One metric as the result line carries it: `{"value": v, "unit": u}`.
pub fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("value".to_owned(), JsonValue::Num(value)),
        ("unit".to_owned(), JsonValue::Str(unit.to_owned())),
    ])
}

/// A numeric member of a parsed JSON object.
pub fn num(value: &JsonValue, key: &str) -> Option<f64> {
    match value.get(key)? {
        JsonValue::Num(n) | JsonValue::Fixed(n, _) => Some(*n),
        _ => None,
    }
}

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["serve-steady", "serve-churn", "serve-churn-durable", "lifecycle-large"];

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("recovery_s", "s"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
/// `_us` layer times are µs per request (per lifecycle call on
/// lifecycle-large). Every workload exercises every one of them.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("ledger.wall_us", "us"),
    ("ledger.outside_calls_us", "us"),
    ("request.self_us", "us"),
    ("lifecycle.concern_self_us", "us"),
    ("transform.apply_self_us", "us"),
    ("lifecycle.generate_self_us", "us"),
    ("codegen.functional_self_us", "us"),
    ("codegen.render_aspects_self_us", "us"),
    ("aop.weave_trace_self_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.ledger_gap", "ratio"),
    ("obs.tracing_overhead", "ratio"),
    ("call.write_p50_us", "us"),
    ("call.write_p99_us", "us"),
    ("call.write_n", "count"),
    ("call.read_p50_us", "us"),
    ("call.read_p99_us", "us"),
    ("call.read_n", "count"),
    ("interaction.matrix_build_s", "s"),
    ("gen.cache_hit_ratio", "ratio"),
    ("aop.weave_hit_ratio", "ratio"),
    ("aop.rewoven_per_generate", "count"),
    ("repo.wal_fsyncs_per_req", "count"),
    ("repo.journal_bytes_per_req", "bytes"),
    ("repo.open_p50_ms", "ms"),
];

/// Checks that `BENCHMARK.json`'s text lists exactly [`WORKLOADS`],
/// [`END_TO_END`] and [`PER_LAYER`], names and units in order.
///
/// # Errors
/// Names the first list that differs, or what does not parse.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let bench = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let entries = bench
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
        Ok(entries
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect())
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    let workloads: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| ((*w).to_owned(), String::new())).collect();
    for (key, built_in) in [
        ("workloads", workloads),
        ("end_to_end", owned(&END_TO_END)),
        ("per_layer", owned(&PER_LAYER)),
    ] {
        let listed = list(key)?;
        if listed != built_in {
            return Err(format!(
                "BENCHMARK.json `{key}` lists {listed:?}, the benchmark prints {built_in:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Timing engine calls from outside the program
// ---------------------------------------------------------------------

/// Request kinds in the order [`Ledger::calls`] stores them.
pub const KINDS: [&str; 5] = ["apply", "undo", "generate", "query", "snapshot"];

/// Index of a request kind in [`KINDS`].
pub fn kind_index(kind: &str) -> usize {
    KINDS.iter().position(|k| *k == kind).expect("every request kind is listed in KINDS")
}

/// Wall time a run's sessions spent, gathered by [`TimedEngine`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Per session: creation start to drop, in segments that each end
    /// where a [`SEGMENT_CALLS`]-th engine call starts (the last ends
    /// at drop); merged ledgers concatenate them.
    pub walls: BTreeMap<String, Vec<u64>>,
    /// Wall ns of each engine call, by [`KINDS`] index; a query batch
    /// is one call.
    pub calls: [Vec<u64>; 5],
    /// Σ of each engine counter over the sessions, read at drop.
    pub counters: BTreeMap<&'static str, u64>,
    /// Wall ns of each non-query call in call order, by session.
    pub sequences: BTreeMap<String, Vec<u64>>,
}

impl Ledger {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Ledger) {
        for (session, segments) in other.walls {
            self.walls.entry(session).or_default().extend(segments);
        }
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            mine.extend(theirs);
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (session, seq) in other.sequences {
            self.sequences.entry(session).or_default().extend(seq);
        }
    }

    /// Records one call of `kind` by `session` that took `ns`.
    pub fn record(&mut self, session: &str, kind: &str, ns: u64) {
        let i = kind_index(kind);
        self.calls[i].push(ns);
        if KINDS[i] != "query" {
            self.sequences.entry(session.to_owned()).or_default().push(ns);
        }
    }

    /// Σ session wall ns.
    pub fn tenant_wall_ns(&self) -> u64 {
        self.walls.values().flatten().sum()
    }

    /// Σ wall ns of every engine call.
    pub fn call_ns(&self) -> u64 {
        self.calls.iter().flatten().sum()
    }

    /// An engine counter's total, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// An [`EngineFactory`] that times each session it creates, from the
/// start of its creation to its drop; its engines time every call.
/// Behaviour is the wrapped factory's, byte for byte.
pub struct TimedFactory<F> {
    inner: F,
    ledger: Arc<Mutex<Ledger>>,
}

impl<F> TimedFactory<F> {
    /// Wraps `inner`.
    pub fn new(inner: F) -> Self {
        TimedFactory { inner, ledger: Arc::new(Mutex::new(Ledger::default())) }
    }

    /// Drains what every dropped session recorded so far.
    pub fn take_ledger(&self) -> Ledger {
        std::mem::take(&mut *self.ledger.lock().expect("a session panicked while recording"))
    }
}

impl<F: EngineFactory> EngineFactory for TimedFactory<F> {
    type Engine = TimedEngine<F::Engine>;

    fn create(&self, tenant: &str, obs: &Collector) -> Self::Engine {
        let born = Instant::now();
        TimedEngine {
            inner: self.inner.create(tenant, obs),
            tenant: tenant.to_owned(),
            born,
            calls: 0,
            marks: Vec::new(),
            local: Ledger::default(),
            shared: Arc::clone(&self.ledger),
        }
    }

    fn query_pool(&self) -> Vec<QuerySelector> {
        self.inner.query_pool()
    }
}

/// A session timed from outside: each call's wall time is recorded
/// locally and merged into the factory's ledger when the session drops.
pub struct TimedEngine<E: TenantEngine> {
    inner: E,
    tenant: String,
    born: Instant,
    /// Engine calls so far.
    calls: usize,
    /// ns since `born` at which each segment but the last ends.
    marks: Vec<u64>,
    local: Ledger,
    shared: Arc<Mutex<Ledger>>,
}

impl<E: TenantEngine> TimedEngine<E> {
    /// The start of an engine call; every [`SEGMENT_CALLS`]-th ends a
    /// segment of the session's wall.
    fn start_call(&mut self) -> Instant {
        let now = Instant::now();
        if self.calls > 0 && self.calls.is_multiple_of(SEGMENT_CALLS) {
            self.marks.push(ns(now - self.born));
        }
        self.calls += 1;
        now
    }
}

impl<E: TenantEngine> TenantEngine for TimedEngine<E> {
    fn execute(&mut self, req: &Request, obs: &Collector) -> Result<String, ServeError> {
        let t0 = self.start_call();
        let result = self.inner.execute(req, obs);
        self.local.record(&self.tenant, req.kind(), ns(t0.elapsed()));
        result
    }

    fn execute_queries(
        &mut self,
        selectors: &[QuerySelector],
        obs: &Collector,
    ) -> Result<Vec<u64>, ServeError> {
        let t0 = self.start_call();
        let result = self.inner.execute_queries(selectors, obs);
        self.local.record(&self.tenant, "query", ns(t0.elapsed()));
        result
    }

    fn next_apply(&mut self) -> Option<Request> {
        self.inner.next_apply()
    }

    fn applied(&self) -> Vec<String> {
        self.inner.applied()
    }

    fn take_service_us(&mut self) -> u64 {
        self.inner.take_service_us()
    }

    fn fault_log(&self) -> comet_middleware::FaultLog {
        self.inner.fault_log()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

impl<E: TenantEngine> Drop for TimedEngine<E> {
    fn drop(&mut self) {
        let mut start = 0;
        let segments = (self.marks.iter().copied().chain([ns(self.born.elapsed())]))
            .map(|end| end - std::mem::replace(&mut start, end))
            .collect();
        self.local.walls.insert(self.tenant.clone(), segments);
        for (name, v) in self.inner.counters() {
            *self.local.counters.entry(name).or_insert(0) += v;
        }
        // Poisoned only if another session panicked, which fails the
        // run anyway; a drop must not panic on top of it.
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(std::mem::take(&mut self.local));
        }
    }
}

/// Samples by position across repetitions. Every repetition of a run
/// issues the same calls in the same order (its report or state digest
/// is checked to be identical), so the k-th call of a session, or its
/// k-th segment, is the same work in every repetition. Each position is
/// taken at the median of its fastest [`FAST_SHARE`] of samples:
/// interference that lasts less than a repetition is taken out position
/// by position, not only repetition by repetition.
#[derive(Debug, Default)]
pub struct Positions {
    samples: BTreeMap<String, Vec<Vec<u64>>>,
}

impl Positions {
    /// Adds one repetition's samples, in position order by session.
    pub fn add(&mut self, sequences: &BTreeMap<String, Vec<u64>>) {
        for (session, seq) in sequences {
            let slots = self.samples.entry(session.clone()).or_default();
            if slots.len() < seq.len() {
                slots.resize_with(seq.len(), Vec::new);
            }
            for (slot, &ns) in slots.iter_mut().zip(seq) {
                slot.push(ns);
            }
        }
    }

    /// Each session's positions at their fastest, in ns.
    fn fast(&self) -> impl Iterator<Item = (&String, impl Iterator<Item = f64> + '_)> {
        self.samples.iter().map(|(session, slots)| {
            let fast = slots.iter().map(|slot| {
                let v: Vec<f64> = slot.iter().map(|&n| n as f64).collect();
                fast_median(&v)
            });
            (session, fast)
        })
    }

    /// Every position at its fastest, in ns.
    pub fn fast_latencies(&self) -> Vec<u64> {
        self.fast().flat_map(|(_, fast)| fast.map(|ns| ns as u64)).collect()
    }
}

/// Engine calls per segment of a session's wall. In serve-steady a
/// session lasts a third of a second and in serve-churn 20 ms; 64 calls
/// are a few milliseconds in either.
pub const SEGMENT_CALLS: usize = 64;

/// A repetition's wall time rebuilt from parts that repeat exactly
/// across repetitions, each at its fastest (see [`Positions`]): every
/// segment of every session's wall, and what a repetition spends
/// beyond its slowest shard's sessions (dispatch, join, report
/// assembly). Shards run in parallel and each runs its sessions one
/// after another, so the rebuilt wall is the largest per-shard sum plus
/// that remainder. The measured wall of a repetition counts every
/// burst of interference on either vCPU; the rebuilt one counts a
/// segment only as slow as it runs in its faster repetitions.
#[derive(Debug, Default)]
pub struct RepWalls {
    segments: Positions,
    shards: BTreeMap<String, usize>,
    /// Each repetition's wall ns beyond its slowest shard's sessions.
    rest: Vec<f64>,
}

impl RepWalls {
    /// Adds a repetition of `wall_ns` whose sessions took `walls`, in
    /// segments, each session on the shard `shard_of` names.
    pub fn add(
        &mut self,
        wall_ns: u64,
        walls: &BTreeMap<String, Vec<u64>>,
        shard_of: impl Fn(&str) -> usize,
    ) {
        let mut shard_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for (session, segments) in walls {
            let shard = shard_of(session);
            self.shards.insert(session.clone(), shard);
            *shard_ns.entry(shard).or_insert(0) += segments.iter().sum::<u64>();
        }
        self.segments.add(walls);
        let slowest = shard_ns.values().copied().max().unwrap_or(0);
        self.rest.push(wall_ns.saturating_sub(slowest) as f64);
    }

    /// The rebuilt wall in ns; NaN before the first repetition.
    pub fn fast_wall_ns(&self) -> f64 {
        let mut shard_ns: BTreeMap<usize, f64> = BTreeMap::new();
        for (session, fast) in self.segments.fast() {
            *shard_ns.entry(self.shards[session]).or_insert(0.0) += fast.sum::<f64>();
        }
        shard_ns.values().copied().fold(0.0, f64::max) + fast_median(&self.rest)
    }
}

// ---------------------------------------------------------------------
// Per-layer self time from recorded spans
// ---------------------------------------------------------------------

/// The per-layer metrics span self time is attributed to, in report
/// order. `request.self_us` is the span around each request: the
/// scheduler's `serve.request`, or the benchmark's own [`CALL_SPAN`]
/// around each lifecycle call.
pub const LAYERS: [&str; 7] = [
    "request.self_us",
    "lifecycle.concern_self_us",
    "transform.apply_self_us",
    "lifecycle.generate_self_us",
    "codegen.functional_self_us",
    "codegen.render_aspects_self_us",
    "aop.weave_trace_self_us",
];

/// Category of the span the benchmark opens around each timed
/// lifecycle call; its name is the request kind.
pub const CALL_SPAN: &str = "bench";

/// The layer a span's time belongs to, if the span names one. The
/// weaver records its spans after the weave from the result, so
/// `weave` spans time the trace recording; the weave itself is self
/// time of `lifecycle.generate`.
fn named_layer(span: &Span) -> Option<&'static str> {
    Some(match (span.cat.as_str(), span.name.as_str()) {
        ("serve", "serve.request") | (CALL_SPAN, _) => "request.self_us",
        ("lifecycle", name) if name.starts_with("concern:") => "lifecycle.concern_self_us",
        ("lifecycle", "generate") => "lifecycle.generate_self_us",
        ("transform", _) => "transform.apply_self_us",
        ("codegen", "functional") => "codegen.functional_self_us",
        ("codegen", "render:aspects") => "codegen.render_aspects_self_us",
        ("weave", _) => "aop.weave_trace_self_us",
        _ => return None,
    })
}

/// The layer a span's time belongs to: its own, else its nearest
/// enclosing span's, else the request's. A span the program adds later
/// counts toward the layer it runs in until the benchmark names it.
fn layer_of<'t>(trace: &'t Trace, mut span: &'t Span) -> &'static str {
    loop {
        if let Some(layer) = named_layer(span) {
            return layer;
        }
        match span.parent {
            Some(parent) => span = &trace.spans[parent as usize],
            None => return "request.self_us",
        }
    }
}

/// Σ self wall ns per layer: each span's `wall_ns` minus the `wall_ns`
/// of its direct children. Every layer of [`LAYERS`] is present.
pub fn layer_self_ns(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; trace.spans.len()];
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.wall_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for span in &trace.spans {
        *out.entry(layer_of(trace, span)).or_insert(0) +=
            span.wall_ns.saturating_sub(child_ns[span.id as usize]);
    }
    out
}

// ---------------------------------------------------------------------
// Serve workload plans
// ---------------------------------------------------------------------

/// The serve plans, by workload name. `serve-churn-durable` runs the
/// `serve-churn` plan against journalled tenants.
pub const PLANS: [(&str, &str); 2] = [
    ("serve-steady", include_str!("../workloads/serve-steady.toml")),
    ("serve-churn", include_str!("../workloads/serve-churn.toml")),
];

/// Parses and validates a plan, then replaces its seed with `seed`.
///
/// # Errors
/// Returns the plan parser's message, or the first unknown concern or
/// backend.
pub fn load_plan(text: &str, seed: u64) -> Result<WorkloadPlan, String> {
    let mut plan = WorkloadPlan::parse_toml(text).map_err(|e| e.to_string())?;
    plan.validate_concerns(|c| comet_concerns::by_name(c).is_some()).map_err(|e| e.to_string())?;
    plan.validate_backends(|b| comet_gen::Backend::parse(b).is_some())
        .map_err(|e| e.to_string())?;
    plan.seed = seed;
    Ok(plan)
}

/// The workflow steps a plan serves: its `[workflow]`, else the default.
pub fn serve_steps(plan: &WorkloadPlan) -> Vec<String> {
    if plan.workflow.is_empty() {
        comet::SERVE_WORKFLOW.iter().map(|s| (*s).to_owned()).collect()
    } else {
        plan.workflow.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5);
        assert_eq!(nearest_rank(&v, 90.0), 9);
        assert_eq!(nearest_rank(&v, 99.0), 10);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&v, 100.0), 10);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), 99);
        assert_eq!(nearest_rank(&[7], 50.0), 7);
        assert_eq!(nearest_rank(&[], 50.0), 0);
        let s = Summary::of(&[30, 10, 20, 40]);
        assert_eq!((s.n, s.min, s.p50, s.p90, s.p99), (4, 10, 20, 40, 40));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn fastest_share_selection() {
        let walls = [50.0, 10.0, 40.0, 20.0, 30.0, 60.0, 70.0, 80.0, 15.0];
        // The fastest quarter of 9 is 3 samples: 10, 15 and 20.
        assert_eq!(fast_median(&walls), 15.0);
        // Of 6, it is 2 samples: 3 and 4.
        assert_eq!(fast_median(&[9.0, 3.0, 7.0, 4.0, 8.0, 5.0]), 3.5);
        assert_eq!(fast_median(&[9.0, 3.0, 7.0]), 3.0);
        assert!(fast_median(&[]).is_nan());
    }

    #[test]
    fn reference_speed_scales_times_and_rates_only() {
        assert_eq!(at_reference_speed(300.0, "us", 1.5), 200.0);
        assert_eq!(at_reference_speed(3.0, "s", 1.5), 2.0);
        assert_eq!(at_reference_speed(100.0, "req/s", 1.5), 150.0);
        assert_eq!(at_reference_speed(12.5, "MiB", 1.5), 12.5);
        assert_eq!(at_reference_speed(0.4, "ratio", 1.5), 0.4);
        for unit in [SERVE_UNIT, LIFECYCLE_UNIT] {
            let times = calibrate(&unit, 2);
            assert_eq!(times.len(), 2 * unit.repeats);
            assert!(times.iter().all(|&s| s > 0.0));
        }
    }

    fn span(id: u32, parent: Option<u32>, cat: &str, name: &str, wall_ns: u64) -> Span {
        Span {
            id,
            parent,
            cat: cat.to_owned(),
            name: name.to_owned(),
            start_seq: 0,
            end_seq: 0,
            start_us: 0,
            end_us: 0,
            wall_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace {
            spans: vec![
                span(0, None, "serve", "serve.request", 1000),
                span(1, Some(0), "lifecycle", "generate", 700),
                span(2, Some(1), "codegen", "functional", 100),
                span(3, Some(1), "weave", "weave", 50),
                span(4, Some(3), "weave", "class:Bank", 20),
                span(5, Some(1), "codegen", "render:aspects", 150),
                span(6, None, "serve", "serve.request", 300),
                span(7, Some(6), "lifecycle", "concern:logging", 250),
                span(8, Some(7), "transform", "apply:logging<...>", 200),
                span(9, Some(7), "mystery", "x", 10),
                span(10, None, CALL_SPAN, "undo", 40),
                span(11, None, "mystery", "y", 5),
            ],
            ..Trace::default()
        };
        let self_ns = layer_self_ns(&trace);
        // An unnamed span counts toward its enclosing layer, or the
        // request's when nothing encloses it.
        assert_eq!(self_ns["request.self_us"], (1000 - 700) + (300 - 250) + 40 + 5);
        assert_eq!(self_ns["lifecycle.generate_self_us"], 700 - 100 - 50 - 150);
        assert_eq!(self_ns["codegen.functional_self_us"], 100);
        assert_eq!(self_ns["aop.weave_trace_self_us"], (50 - 20) + 20);
        assert_eq!(self_ns["codegen.render_aspects_self_us"], 150);
        assert_eq!(self_ns["lifecycle.concern_self_us"], (250 - 200 - 10) + 10);
        assert_eq!(self_ns["transform.apply_self_us"], 200);
        // The layers partition the root spans' wall time exactly.
        assert_eq!(self_ns.values().sum::<u64>(), 1000 + 300 + 40 + 5);
        assert_eq!(self_ns.len(), LAYERS.len());
    }

    #[test]
    fn ledger_merge_sums_and_concatenates() {
        let walls =
            |w: &[(&str, &[u64])]| w.iter().map(|(s, n)| ((*s).to_owned(), n.to_vec())).collect();
        let mut a = Ledger { walls: walls(&[("t00", &[5])]), ..Ledger::default() };
        a.calls[0].push(3);
        a.counters.insert("gen_cache_hits", 2);
        let mut b =
            Ledger { walls: walls(&[("t00", &[6, 1]), ("t01", &[4])]), ..Ledger::default() };
        b.calls[0].push(4);
        b.calls[3].push(1);
        b.counters.insert("gen_cache_hits", 3);
        a.merge(b);
        assert_eq!(a.walls, walls(&[("t00", &[5, 6, 1]), ("t01", &[4])]));
        assert_eq!(a.tenant_wall_ns(), 16);
        assert_eq!(a.calls[0], vec![3, 4]);
        assert_eq!(a.call_ns(), 8);
        assert_eq!(a.counter("gen_cache_hits"), 5);
        let mut r = Ledger::default();
        r.record("t00", "apply", 5);
        r.record("t00", "query", 1);
        r.record("t00", "generate", 7);
        assert_eq!(r.sequences["t00"], vec![5, 7], "query batches are not positions");
        assert_eq!(r.calls[kind_index("query")], vec![1]);
    }

    #[test]
    fn positions_take_each_call_at_its_fastest() {
        let mut p = Positions::default();
        for (a, b) in [(10, 100), (40, 90), (12, 300), (11, 95)] {
            p.add(&BTreeMap::from([("t00".to_owned(), vec![a, b])]));
        }
        // Fastest quarter of 4 samples is the single fastest.
        assert_eq!(p.fast_latencies(), vec![10, 90]);
    }

    #[test]
    fn rep_walls_rebuild_the_slowest_shard_at_its_fastest() {
        let shard_of = |s: &str| usize::from(s == "t02");
        let mut w = RepWalls::default();
        // Shard 0 runs t00 (two segments) then t01; shard 1 runs t02.
        // Each repetition has one disturbed shard. The rebuilt wall takes
        // every segment at its fastest (the fastest quarter of two
        // samples is one): t00 3 + 6 and t01 20 on shard 0 against t02
        // 25 on shard 1, plus the smaller remainder, 112 - 110.
        for (t00, t01, t02, wall) in [([4, 6], 20, 90, 95), ([3, 47], 60, 25, 112)] {
            let walls = BTreeMap::from([
                ("t00".to_owned(), t00.to_vec()),
                ("t01".to_owned(), vec![t01]),
                ("t02".to_owned(), vec![t02]),
            ]);
            w.add(wall, &walls, shard_of);
        }
        assert_eq!(w.fast_wall_ns(), 29.0 + 2.0);
        assert!(RepWalls::default().fast_wall_ns().is_nan());
    }
}
