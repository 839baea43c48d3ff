//! Deterministic fault injection for the simulated middleware.
//!
//! The paper's middleware services become interesting only under
//! adversity: the fault-tolerance concern (retry, deadline, circuit
//! breaker) has observable behaviour exactly when the platform
//! misbehaves. This module provides the misbehaviour, deterministically:
//!
//! * [`FaultPlan`] — a seeded description of *what* to inject: per-
//!   operation transient-error probabilities, a latency-spike
//!   probability, and an explicit schedule ("the 3rd `tx.commit`
//!   fails"). No wall clock is involved anywhere; latency faults advance
//!   the shared [`SimClock`], and partition/crash faults heal when the
//!   sim clock passes their deadline.
//! * [`FaultInjector`] — the runtime: owns its own [`StdRng`] seeded
//!   from the plan (so fault draws never perturb the bus latency
//!   stream), tracks partitioned/crashed nodes, arms one-shot faults
//!   through the [`FaultHook`] trait, and records every injection in a
//!   [`FaultLog`].
//! * [`FaultLog`] — an append-only, `PartialEq`-comparable record of
//!   every injected fault and circuit-breaker transition; two runs with
//!   the same seed produce identical logs, which the chaos suite
//!   asserts.
//! * The per-callee circuit-breaker registry driven by the `ft.*`
//!   interpreter intrinsics (closed → open after N consecutive
//!   failures → half-open probe after a sim-time cooldown).
//!
//! The services consult the injector at their choke points —
//! `bus.send` (and therefore `round_trip`), `store.save`/`store.load`,
//! `tx.commit`, `naming.lookup`. With no plan installed, no armed
//! faults, and no partitions the check is a single branch, so the
//! fault-free path stays effectively free.

use crate::clock::SimClock;
use crate::error::MiddlewareError;
use crate::plan_text::{plan_lines, PlanLine, PlanLineError};
use comet_obs::Collector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// The injectable middleware operations (choke points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOp {
    /// `MessageBus::send` (and via it `round_trip`).
    BusSend,
    /// `StoreService::save`.
    StoreSave,
    /// `StoreService::load`.
    StoreLoad,
    /// `TransactionManager::commit`.
    TxCommit,
    /// `NamingService::lookup`.
    NamingLookup,
}

impl FaultOp {
    /// All choke points, in a fixed order.
    pub const ALL: [FaultOp; 5] = [
        FaultOp::BusSend,
        FaultOp::StoreSave,
        FaultOp::StoreLoad,
        FaultOp::TxCommit,
        FaultOp::NamingLookup,
    ];

    /// The stable dotted name used in plans, logs and fault hooks.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::BusSend => "bus.send",
            FaultOp::StoreSave => "store.save",
            FaultOp::StoreLoad => "store.load",
            FaultOp::TxCommit => "tx.commit",
            FaultOp::NamingLookup => "naming.lookup",
        }
    }

    /// Parses a dotted operation name.
    pub fn parse(name: &str) -> Option<FaultOp> {
        FaultOp::ALL.into_iter().find(|op| op.name() == name)
    }
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed fault to inject at a choke point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails once with a typed transient error.
    Transient,
    /// The operation succeeds but the sim clock jumps by this many µs.
    Latency(u64),
    /// The node becomes unreachable for `for_us` sim-µs (heals by time).
    Partition {
        /// The partitioned node.
        node: String,
        /// Sim-µs until the partition heals.
        for_us: u64,
    },
    /// The node crashes and stays down for `for_us` sim-µs.
    Crash {
        /// The crashed node.
        node: String,
        /// Sim-µs until the node restarts.
        for_us: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Latency(us) => write!(f, "latency {us}"),
            FaultKind::Partition { node, for_us } => write!(f, "partition {node} {for_us}"),
            FaultKind::Crash { node, for_us } => write!(f, "crash {node} {for_us}"),
        }
    }
}

impl FaultKind {
    /// Parses the textual form used in plan files: `transient`,
    /// `latency <us>`, `partition <node> <us>`, `crash <node> <us>`.
    pub fn parse(text: &str) -> Result<FaultKind, FaultPlanError> {
        let mut parts = text.split_whitespace();
        let bad = || FaultPlanError::BadFaultKind(text.to_owned());
        match parts.next() {
            Some("transient") => Ok(FaultKind::Transient),
            Some("latency") => {
                let us = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                Ok(FaultKind::Latency(us))
            }
            Some(which @ ("partition" | "crash")) => {
                let node = parts.next().ok_or_else(bad)?.to_owned();
                let for_us = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                Ok(if which == "partition" {
                    FaultKind::Partition { node, for_us }
                } else {
                    FaultKind::Crash { node, for_us }
                })
            }
            _ => Err(bad()),
        }
    }
}

/// One scheduled fault: "the `occurrence`-th `op` suffers `kind`"
/// (1-based occurrence counting, per operation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// The targeted choke point.
    pub op: FaultOp,
    /// 1-based occurrence index of that operation.
    pub occurrence: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// Errors parsing a fault-plan file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A line was not `key = value` or a `[section]` header.
    BadLine(String),
    /// An unknown operation name.
    UnknownOp(String),
    /// A value failed to parse as a number.
    BadValue(String),
    /// A fault-kind string failed to parse.
    BadFaultKind(String),
    /// A schedule key was not `<op>@<occurrence>`.
    BadScheduleKey(String),
    /// A key or section header appeared twice. The payload is the key
    /// (or `[section]`) as written; the message format is shared
    /// verbatim with the workload-plan parser in `comet-serve`.
    Duplicate(String),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadLine(l) => write!(f, "unparseable plan line `{l}`"),
            FaultPlanError::UnknownOp(o) => write!(f, "unknown operation `{o}`"),
            FaultPlanError::BadValue(v) => write!(f, "bad numeric value `{v}`"),
            FaultPlanError::BadFaultKind(k) => write!(f, "bad fault kind `{k}`"),
            FaultPlanError::BadScheduleKey(k) => {
                write!(f, "bad schedule key `{k}` (want `<op>@<occurrence>`)")
            }
            FaultPlanError::Duplicate(k) => write!(f, "duplicate plan entry `{k}`"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl From<PlanLineError> for FaultPlanError {
    fn from(e: PlanLineError) -> Self {
        match e {
            PlanLineError::BadLine(l) => FaultPlanError::BadLine(l),
            PlanLineError::Duplicate(k) => FaultPlanError::Duplicate(k),
        }
    }
}

/// A deterministic description of what to inject, either drawn per
/// operation from a seeded RNG or dictated by an explicit schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG.
    pub seed: u64,
    /// Per-operation probability of a transient failure.
    pub probabilities: BTreeMap<FaultOp, f64>,
    /// Probability that a `bus.send` suffers a latency spike.
    pub latency_probability: f64,
    /// Size of an injected latency spike in sim-µs.
    pub latency_spike_us: u64,
    /// Explicitly scheduled faults (checked before the probability draw).
    pub schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until configured).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            probabilities: BTreeMap::new(),
            latency_probability: 0.0,
            latency_spike_us: 0,
            schedule: Vec::new(),
        }
    }

    /// Sets the transient-failure probability of one operation.
    pub fn with_probability(mut self, op: FaultOp, p: f64) -> Self {
        self.probabilities.insert(op, p.clamp(0.0, 1.0));
        self
    }

    /// Sets the latency-spike draw for `bus.send`.
    pub fn with_latency_spike(mut self, probability: f64, spike_us: u64) -> Self {
        self.latency_probability = probability.clamp(0.0, 1.0);
        self.latency_spike_us = spike_us;
        self
    }

    /// Schedules `kind` at the `occurrence`-th (1-based) `op`.
    pub fn at(mut self, op: FaultOp, occurrence: u64, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault { op, occurrence, kind });
        self
    }

    /// Parses the TOML-subset plan format:
    ///
    /// ```toml
    /// seed = 7
    ///
    /// [probabilities]
    /// bus.send = 0.10
    /// tx.commit = 0.05
    ///
    /// [latency]
    /// probability = 0.05
    /// spike_us = 4000
    ///
    /// [schedule]
    /// tx.commit@1 = "transient"
    /// bus.send@3 = "partition server 3000"
    /// ```
    ///
    /// Lines are read by the shared [`plan_lines`] reader (hand-rolled:
    /// the build carries no TOML dependency), which rejects duplicate
    /// keys, repeated section headers, and trailing garbage after a
    /// header — a plan that pins a chaos run must have exactly one
    /// meaning.
    ///
    /// # Errors
    /// Returns a [`FaultPlanError`] describing the first bad line.
    pub fn parse_toml(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::new(0);
        for entry in plan_lines(text) {
            let PlanLine::Entry { section, key, value, line } = entry? else {
                continue;
            };
            match section {
                "" => match key {
                    "seed" => {
                        plan.seed = value
                            .parse()
                            .map_err(|_| FaultPlanError::BadValue(value.to_owned()))?;
                    }
                    _ => return Err(FaultPlanError::BadLine(line.to_owned())),
                },
                "probabilities" => {
                    let op =
                        FaultOp::parse(key).ok_or_else(|| FaultPlanError::UnknownOp(key.into()))?;
                    let p: f64 =
                        value.parse().map_err(|_| FaultPlanError::BadValue(value.to_owned()))?;
                    plan.probabilities.insert(op, p.clamp(0.0, 1.0));
                }
                "latency" => {
                    let n: f64 =
                        value.parse().map_err(|_| FaultPlanError::BadValue(value.to_owned()))?;
                    match key {
                        "probability" => plan.latency_probability = n.clamp(0.0, 1.0),
                        "spike_us" => plan.latency_spike_us = n as u64,
                        _ => return Err(FaultPlanError::BadLine(line.to_owned())),
                    }
                }
                "schedule" => {
                    let (op_name, nth) = key
                        .split_once('@')
                        .ok_or_else(|| FaultPlanError::BadScheduleKey(key.to_owned()))?;
                    let op = FaultOp::parse(op_name)
                        .ok_or_else(|| FaultPlanError::UnknownOp(op_name.into()))?;
                    let occurrence: u64 =
                        nth.parse().map_err(|_| FaultPlanError::BadScheduleKey(key.to_owned()))?;
                    plan.schedule.push(ScheduledFault {
                        op,
                        occurrence,
                        kind: FaultKind::parse(value)?,
                    });
                }
                other => return Err(FaultPlanError::BadLine(format!("[{other}] {line}"))),
            }
        }
        Ok(plan)
    }
}

/// One event in the fault log.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A fault was injected at a choke point.
    Injected {
        /// Where.
        op: FaultOp,
        /// What.
        kind: FaultKind,
    },
    /// A one-shot armed fault (via [`FaultHook`]) fired.
    ArmedFired {
        /// The fault point that had been armed.
        point: String,
    },
    /// A partition or crash healed (sim clock passed its deadline).
    Healed {
        /// The node that came back.
        node: String,
    },
    /// A circuit breaker opened after reaching its failure threshold.
    BreakerOpened {
        /// The guarded callee.
        callee: String,
        /// Sim time at which a half-open probe becomes allowed.
        until_us: u64,
    },
    /// A breaker moved open → half-open (probe allowed).
    BreakerHalfOpen {
        /// The guarded callee.
        callee: String,
    },
    /// A breaker closed again after a successful probe.
    BreakerClosed {
        /// The guarded callee.
        callee: String,
    },
}

/// One timestamped fault-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Sim time of the event in µs.
    pub at_us: u64,
    /// The event.
    pub event: FaultEvent,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<4} t={:>8}µs  ", self.seq, self.at_us)?;
        match &self.event {
            FaultEvent::Injected { op, kind } => write!(f, "inject {op}: {kind}"),
            FaultEvent::ArmedFired { point } => write!(f, "armed fault fired at {point}"),
            FaultEvent::Healed { node } => write!(f, "node {node} healed"),
            FaultEvent::BreakerOpened { callee, until_us } => {
                write!(f, "breaker {callee} OPEN until {until_us}µs")
            }
            FaultEvent::BreakerHalfOpen { callee } => write!(f, "breaker {callee} HALF-OPEN"),
            FaultEvent::BreakerClosed { callee } => write!(f, "breaker {callee} CLOSED"),
        }
    }
}

/// The append-only log of injected faults and breaker transitions.
/// Derives `PartialEq`: the chaos suite asserts byte-equal logs across
/// same-seed runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
}

impl FaultLog {
    /// All records, oldest first.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of injected faults at one choke point (excludes breaker
    /// transitions and heals).
    pub fn injected_at(&self, op: FaultOp) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(&r.event, FaultEvent::Injected { op: o, .. } if *o == op))
            .count()
    }

    /// Number of breaker-opened transitions.
    pub fn breaker_opens(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.event, FaultEvent::BreakerOpened { .. })).count()
    }
}

/// A component exposing named one-shot fault points. This is the single
/// injection API shared by the middleware runtime ([`FaultInjector`]:
/// points are the choke-point names) and the model repository
/// (`comet-repo`: `repo.commit` / `repo.undo`) — tests arm a point and
/// the next use of it fails with a typed error.
pub trait FaultHook {
    /// The fault points this component exposes.
    fn fault_points(&self) -> Vec<&'static str>;

    /// Arms `point` to fail on its next use.
    ///
    /// # Errors
    /// Fails when the point is not one of [`FaultHook::fault_points`].
    fn arm_fault(&mut self, point: &str) -> Result<(), MiddlewareError>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { failures: u64 },
    Open { until_us: u64 },
    HalfOpen,
}

/// The runtime fault injector shared (via `Rc<RefCell<..>>`) by every
/// middleware service. See the module docs for the overall design.
#[derive(Debug)]
pub struct FaultInjector {
    clock: Rc<RefCell<SimClock>>,
    rng: StdRng,
    plan: Option<FaultPlan>,
    /// Per-operation occurrence counters (only maintained with a plan).
    counts: BTreeMap<FaultOp, u64>,
    /// node -> sim-µs heal deadline.
    partitioned: BTreeMap<String, u64>,
    /// node -> sim-µs restart deadline.
    crashed: BTreeMap<String, u64>,
    /// One-shot armed fault points (via [`FaultHook`]).
    armed: BTreeMap<String, u64>,
    breakers: BTreeMap<String, BreakerState>,
    log: FaultLog,
    seq: u64,
    /// Trace sink: every [`FaultRecord`] is mirrored as an obs event.
    /// Disabled by default; `install_plan` deliberately leaves it alone
    /// (the trace outlives plan swaps, unlike the log).
    obs: Collector,
}

impl FaultInjector {
    pub(crate) fn new(clock: Rc<RefCell<SimClock>>, default_seed: u64) -> Self {
        FaultInjector {
            clock,
            rng: StdRng::seed_from_u64(default_seed ^ 0x5fa17_u64),
            plan: None,
            counts: BTreeMap::new(),
            partitioned: BTreeMap::new(),
            crashed: BTreeMap::new(),
            armed: BTreeMap::new(),
            breakers: BTreeMap::new(),
            log: FaultLog::default(),
            seq: 0,
            obs: Collector::disabled(),
        }
    }

    /// Attaches a trace collector; every subsequent fault-log record is
    /// mirrored into it as a `fault`-category event.
    pub fn set_collector(&mut self, obs: Collector) {
        self.obs = obs;
    }

    /// Installs (or replaces) the fault plan, reseeding the private RNG
    /// from `plan.seed` and resetting counters, partitions, breakers and
    /// the log — a fresh deterministic run.
    pub fn install_plan(&mut self, plan: FaultPlan) {
        self.rng = StdRng::seed_from_u64(plan.seed);
        self.counts.clear();
        self.partitioned.clear();
        self.crashed.clear();
        self.breakers.clear();
        self.log = FaultLog::default();
        self.seq = 0;
        self.plan = Some(plan);
    }

    /// The installed plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The fault log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    fn now_us(&self) -> u64 {
        self.clock.borrow().now_us()
    }

    fn record(&mut self, event: FaultEvent) {
        let rec = FaultRecord { seq: self.seq, at_us: self.now_us(), event };
        self.seq += 1;
        if self.obs.is_enabled() {
            let (name, mut attrs): (&str, Vec<(String, String)>) = match &rec.event {
                FaultEvent::Injected { op, kind } => (
                    "fault.injected",
                    vec![("op".into(), op.to_string()), ("kind".into(), kind.to_string())],
                ),
                FaultEvent::ArmedFired { point } => {
                    ("fault.armed", vec![("point".into(), point.clone())])
                }
                FaultEvent::Healed { node } => {
                    ("fault.healed", vec![("node".into(), node.clone())])
                }
                FaultEvent::BreakerOpened { callee, until_us } => (
                    "breaker.opened",
                    vec![
                        ("callee".into(), callee.clone()),
                        ("until_us".into(), until_us.to_string()),
                    ],
                ),
                FaultEvent::BreakerHalfOpen { callee } => {
                    ("breaker.half_open", vec![("callee".into(), callee.clone())])
                }
                FaultEvent::BreakerClosed { callee } => {
                    ("breaker.closed", vec![("callee".into(), callee.clone())])
                }
            };
            attrs.push(("log_seq".into(), rec.seq.to_string()));
            self.obs.event("fault", name, rec.at_us, attrs);
        }
        self.log.records.push(rec);
    }

    /// Partitions `node` for `for_us` sim-µs (manual control, also used
    /// by scheduled `partition` faults).
    pub fn partition_node(&mut self, node: &str, for_us: u64) {
        let heal_at = self.now_us().saturating_add(for_us);
        self.partitioned.insert(node.to_owned(), heal_at);
    }

    /// Crashes `node` for `for_us` sim-µs.
    pub fn crash_node(&mut self, node: &str, for_us: u64) {
        let heal_at = self.now_us().saturating_add(for_us);
        self.crashed.insert(node.to_owned(), heal_at);
    }

    /// True when `node` is currently partitioned (ignores pending heals;
    /// call [`FaultInjector::check`] or let sim time pass to heal).
    fn is_partitioned(&self, node: &str) -> bool {
        self.partitioned.get(node).is_some_and(|&until| self.now_us() < until)
    }

    /// True when `node` is currently crashed.
    fn is_crashed(&self, node: &str) -> bool {
        self.crashed.get(node).is_some_and(|&until| self.now_us() < until)
    }

    fn heal_expired(&mut self) {
        let now = self.now_us();
        let healed: Vec<String> = self
            .partitioned
            .iter()
            .chain(self.crashed.iter())
            .filter(|(_, &until)| now >= until)
            .map(|(n, _)| n.clone())
            .collect();
        if healed.is_empty() {
            return;
        }
        self.partitioned.retain(|_, &mut until| now < until);
        self.crashed.retain(|_, &mut until| now < until);
        for node in healed {
            self.record(FaultEvent::Healed { node });
        }
    }

    fn apply(&mut self, op: FaultOp, kind: FaultKind) -> Result<(), MiddlewareError> {
        self.record(FaultEvent::Injected { op, kind: kind.clone() });
        match kind {
            FaultKind::Transient => {
                Err(MiddlewareError::FaultInjected { op: op.name().to_owned() })
            }
            FaultKind::Latency(us) => {
                self.clock.borrow_mut().advance_us(us);
                Ok(())
            }
            FaultKind::Partition { node, for_us } => {
                self.partition_node(&node, for_us);
                Ok(())
            }
            FaultKind::Crash { node, for_us } => {
                self.crash_node(&node, for_us);
                Ok(())
            }
        }
    }

    /// The choke-point check. `nodes` lists the nodes the operation
    /// involves (sender and receiver for `bus.send`, empty elsewhere):
    /// the operation fails with a typed error when any of them is
    /// partitioned or crashed.
    ///
    /// # Errors
    /// A typed [`MiddlewareError`] when a fault fires.
    pub fn check(&mut self, op: FaultOp, nodes: &[&str]) -> Result<(), MiddlewareError> {
        // Fault-free fast path: nothing installed, armed or partitioned.
        if self.plan.is_none()
            && self.armed.is_empty()
            && self.partitioned.is_empty()
            && self.crashed.is_empty()
        {
            return Ok(());
        }
        self.heal_expired();
        if let Some(n) = self.armed.get_mut(op.name()) {
            *n -= 1;
            if *n == 0 {
                self.armed.remove(op.name());
            }
            self.record(FaultEvent::ArmedFired { point: op.name().to_owned() });
            return Err(MiddlewareError::FaultInjected { op: op.name().to_owned() });
        }
        if self.plan.is_some() {
            let count = self.counts.entry(op).or_insert(0);
            *count += 1;
            let occurrence = *count;
            let plan = self.plan.as_ref().expect("checked above");
            let scheduled = plan
                .schedule
                .iter()
                .find(|s| s.op == op && s.occurrence == occurrence)
                .map(|s| s.kind.clone());
            if let Some(kind) = scheduled {
                self.apply(op, kind)?;
            } else {
                // Probability-driven draws inject transients everywhere
                // and latency spikes on the bus; partitions and crashes
                // only ever come from the schedule (or manual control),
                // keeping the random stream one draw per probability.
                let transient_p = plan.probabilities.get(&op).copied().unwrap_or(0.0);
                if transient_p > 0.0 && self.rng.gen::<f64>() < transient_p {
                    self.apply(op, FaultKind::Transient)?;
                }
                let plan = self.plan.as_ref().expect("checked above");
                if op == FaultOp::BusSend && plan.latency_probability > 0.0 {
                    let (p, spike) = (plan.latency_probability, plan.latency_spike_us);
                    if self.rng.gen::<f64>() < p {
                        self.apply(op, FaultKind::Latency(spike))?;
                    }
                }
            }
        }
        for node in nodes {
            if self.is_crashed(node) {
                return Err(MiddlewareError::NodeCrashed { node: (*node).to_owned() });
            }
            if self.is_partitioned(node) {
                return Err(MiddlewareError::NodePartitioned { node: (*node).to_owned() });
            }
        }
        Ok(())
    }

    /// Draws the deterministic jitter term for `ft.backoff`: a value in
    /// `[0, cap]` from the injector's private RNG.
    pub fn jitter_us(&mut self, cap: u64) -> u64 {
        if cap == 0 {
            0
        } else {
            self.rng.gen_range(0..=cap)
        }
    }

    /// Circuit-breaker admission check for `callee`. Closed and
    /// half-open breakers admit the call; an open breaker admits nothing
    /// until `cooldown_us` of sim time has passed since it opened, at
    /// which point it moves to half-open and admits one probe.
    pub fn breaker_allow(&mut self, callee: &str) -> bool {
        let now = self.now_us();
        let state =
            *self.breakers.entry(callee.to_owned()).or_insert(BreakerState::Closed { failures: 0 });
        match state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until_us } => {
                if now >= until_us {
                    self.breakers.insert(callee.to_owned(), BreakerState::HalfOpen);
                    self.record(FaultEvent::BreakerHalfOpen { callee: callee.to_owned() });
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a call outcome for `callee`'s breaker. `threshold`
    /// consecutive failures open it for `cooldown_us` sim-µs; a
    /// half-open probe closes it on success and re-opens it on failure.
    pub fn breaker_record(&mut self, callee: &str, ok: bool, threshold: u64, cooldown_us: u64) {
        let now = self.now_us();
        let state =
            *self.breakers.entry(callee.to_owned()).or_insert(BreakerState::Closed { failures: 0 });
        let next = if ok {
            if !matches!(state, BreakerState::Closed { failures: 0 }) {
                if matches!(state, BreakerState::HalfOpen | BreakerState::Open { .. }) {
                    self.record(FaultEvent::BreakerClosed { callee: callee.to_owned() });
                }
                BreakerState::Closed { failures: 0 }
            } else {
                state
            }
        } else {
            match state {
                BreakerState::Closed { failures } => {
                    let failures = failures + 1;
                    if threshold > 0 && failures >= threshold {
                        let until_us = now.saturating_add(cooldown_us);
                        self.record(FaultEvent::BreakerOpened {
                            callee: callee.to_owned(),
                            until_us,
                        });
                        BreakerState::Open { until_us }
                    } else {
                        BreakerState::Closed { failures }
                    }
                }
                BreakerState::HalfOpen => {
                    let until_us = now.saturating_add(cooldown_us);
                    self.record(FaultEvent::BreakerOpened { callee: callee.to_owned(), until_us });
                    BreakerState::Open { until_us }
                }
                open @ BreakerState::Open { .. } => open,
            }
        };
        self.breakers.insert(callee.to_owned(), next);
    }

    /// The breaker state of `callee` as a display string
    /// (`closed` / `open` / `half-open`), or `None` if never touched.
    pub fn breaker_state(&self, callee: &str) -> Option<&'static str> {
        self.breakers.get(callee).map(|s| match s {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

impl FaultHook for FaultInjector {
    fn fault_points(&self) -> Vec<&'static str> {
        FaultOp::ALL.iter().map(|op| op.name()).collect()
    }

    fn arm_fault(&mut self, point: &str) -> Result<(), MiddlewareError> {
        if FaultOp::parse(point).is_none() {
            return Err(MiddlewareError::UnknownFaultPoint(point.to_owned()));
        }
        *self.armed.entry(point.to_owned()).or_insert(0) += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector() -> (FaultInjector, Rc<RefCell<SimClock>>) {
        let clock = Rc::new(RefCell::new(SimClock::default()));
        (FaultInjector::new(Rc::clone(&clock), 1), clock)
    }

    #[test]
    fn inert_without_plan() {
        let (mut inj, _clock) = injector();
        for _ in 0..100 {
            assert!(inj.check(FaultOp::BusSend, &["a", "b"]).is_ok());
        }
        assert!(inj.log().is_empty());
    }

    #[test]
    fn scheduled_fault_fires_at_exact_occurrence() {
        let (mut inj, _clock) = injector();
        inj.install_plan(FaultPlan::new(9).at(FaultOp::TxCommit, 2, FaultKind::Transient));
        assert!(inj.check(FaultOp::TxCommit, &[]).is_ok());
        let err = inj.check(FaultOp::TxCommit, &[]).unwrap_err();
        assert!(matches!(err, MiddlewareError::FaultInjected { ref op } if op == "tx.commit"));
        assert!(inj.check(FaultOp::TxCommit, &[]).is_ok());
        assert_eq!(inj.log().injected_at(FaultOp::TxCommit), 1);
    }

    #[test]
    fn latency_fault_advances_clock_not_error() {
        let (mut inj, clock) = injector();
        inj.install_plan(FaultPlan::new(9).at(FaultOp::BusSend, 1, FaultKind::Latency(500)));
        assert!(inj.check(FaultOp::BusSend, &[]).is_ok());
        assert_eq!(clock.borrow().now_us(), 500);
    }

    #[test]
    fn partition_heals_by_sim_time() {
        let (mut inj, clock) = injector();
        inj.install_plan(FaultPlan::new(9));
        inj.partition_node("server", 1000);
        assert!(matches!(
            inj.check(FaultOp::BusSend, &["client", "server"]),
            Err(MiddlewareError::NodePartitioned { .. })
        ));
        clock.borrow_mut().advance_us(1000);
        assert!(inj.check(FaultOp::BusSend, &["client", "server"]).is_ok());
        assert!(inj.log().records().iter().any(|r| matches!(
            &r.event,
            FaultEvent::Healed { node } if node == "server"
        )));
    }

    #[test]
    fn crash_reports_typed_error() {
        let (mut inj, _clock) = injector();
        inj.crash_node("server", 10_000);
        assert!(matches!(
            inj.check(FaultOp::BusSend, &["client", "server"]),
            Err(MiddlewareError::NodeCrashed { .. })
        ));
    }

    #[test]
    fn same_seed_same_log() {
        let run = || {
            let (mut inj, _clock) = injector();
            inj.install_plan(
                FaultPlan::new(33)
                    .with_probability(FaultOp::BusSend, 0.4)
                    .with_latency_spike(0.3, 200),
            );
            for _ in 0..50 {
                let _ = inj.check(FaultOp::BusSend, &["a", "b"]);
            }
            inj.log().clone()
        };
        let a = run();
        assert!(!a.is_empty(), "plan with p=0.4 over 50 draws should fire");
        assert_eq!(a, run());
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let (mut inj, clock) = injector();
        for _ in 0..3 {
            assert!(inj.breaker_allow("Bank.transfer"));
            inj.breaker_record("Bank.transfer", false, 3, 1000);
        }
        assert_eq!(inj.breaker_state("Bank.transfer"), Some("open"));
        assert!(!inj.breaker_allow("Bank.transfer"));
        clock.borrow_mut().advance_us(1000);
        assert!(inj.breaker_allow("Bank.transfer"), "half-open admits one probe");
        assert_eq!(inj.breaker_state("Bank.transfer"), Some("half-open"));
        inj.breaker_record("Bank.transfer", true, 3, 1000);
        assert_eq!(inj.breaker_state("Bank.transfer"), Some("closed"));
        assert_eq!(inj.log().breaker_opens(), 1);
    }

    #[test]
    fn half_open_failure_reopens() {
        let (mut inj, clock) = injector();
        inj.breaker_record("x", false, 1, 100);
        assert_eq!(inj.breaker_state("x"), Some("open"));
        clock.borrow_mut().advance_us(100);
        assert!(inj.breaker_allow("x"));
        inj.breaker_record("x", false, 1, 100);
        assert_eq!(inj.breaker_state("x"), Some("open"));
        assert_eq!(inj.log().breaker_opens(), 2);
    }

    #[test]
    fn fault_hook_arms_one_shot() {
        let (mut inj, _clock) = injector();
        assert!(inj.fault_points().contains(&"store.save"));
        assert!(matches!(
            inj.arm_fault("store.teleport"),
            Err(MiddlewareError::UnknownFaultPoint(_))
        ));
        inj.arm_fault("store.save").unwrap();
        assert!(matches!(
            inj.check(FaultOp::StoreSave, &[]),
            Err(MiddlewareError::FaultInjected { .. })
        ));
        assert!(inj.check(FaultOp::StoreSave, &[]).is_ok(), "one-shot");
    }

    #[test]
    fn plan_toml_round_trip() {
        let text = r#"
            seed = 7            # comment
            [probabilities]
            bus.send = 0.10
            tx.commit = 0.05
            [latency]
            probability = 0.25
            spike_us = 4000
            [schedule]
            tx.commit@1 = "transient"
            bus.send@3 = "partition server 3000"
            store.save@2 = "latency 1000"
            naming.lookup@4 = "crash server 2500"
        "#;
        let plan = FaultPlan::parse_toml(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.probabilities[&FaultOp::BusSend], 0.10);
        assert_eq!(plan.latency_probability, 0.25);
        assert_eq!(plan.latency_spike_us, 4000);
        assert_eq!(plan.schedule.len(), 4);
        assert_eq!(
            plan.schedule[1],
            ScheduledFault {
                op: FaultOp::BusSend,
                occurrence: 3,
                kind: FaultKind::Partition { node: "server".into(), for_us: 3000 },
            }
        );
    }

    #[test]
    fn plan_toml_rejects_garbage() {
        assert!(matches!(
            FaultPlan::parse_toml("[probabilities]\nbus.warp = 0.1"),
            Err(FaultPlanError::UnknownOp(_))
        ));
        assert!(matches!(
            FaultPlan::parse_toml("[schedule]\ntx.commit = \"transient\""),
            Err(FaultPlanError::BadScheduleKey(_))
        ));
        assert!(matches!(
            FaultPlan::parse_toml("[schedule]\ntx.commit@1 = \"meteor\""),
            Err(FaultPlanError::BadFaultKind(_))
        ));
        assert!(matches!(FaultPlan::parse_toml("wat"), Err(FaultPlanError::BadLine(_))));
    }

    #[test]
    fn plan_toml_rejects_duplicates_and_header_garbage() {
        let e =
            FaultPlan::parse_toml("[probabilities]\nbus.send = 0.1\nbus.send = 0.2").unwrap_err();
        assert!(matches!(&e, FaultPlanError::Duplicate(k) if k == "bus.send"));
        assert_eq!(e.to_string(), "duplicate plan entry `bus.send`");
        assert!(matches!(
            FaultPlan::parse_toml("seed = 1\nseed = 2"),
            Err(FaultPlanError::Duplicate(k)) if k == "seed"
        ));
        assert!(matches!(
            FaultPlan::parse_toml("[latency]\nprobability = 0.1\n[latency]\nspike_us = 5"),
            Err(FaultPlanError::Duplicate(k)) if k == "[latency]"
        ));
        // The same key in different sections stays legal.
        FaultPlan::parse_toml(
            "[probabilities]\nbus.send = 0.1\n[schedule]\nbus.send@1 = \"transient\"",
        )
        .unwrap();
        // Trailing garbage around a section header is a bad line, not a
        // silently-ignored or silently-keyed one.
        assert!(matches!(FaultPlan::parse_toml("[latency] junk"), Err(FaultPlanError::BadLine(_))));
        assert!(matches!(
            FaultPlan::parse_toml("[latency]]\nprobability = 0.1"),
            Err(FaultPlanError::BadLine(_))
        ));
        assert!(matches!(FaultPlan::parse_toml("[]"), Err(FaultPlanError::BadLine(_))));
    }

    #[test]
    fn collector_mirrors_every_log_record() {
        let (mut inj, clock) = injector();
        let obs = Collector::enabled();
        inj.set_collector(obs.clone());
        inj.install_plan(FaultPlan::new(1).at(FaultOp::TxCommit, 1, FaultKind::Transient).at(
            FaultOp::BusSend,
            1,
            FaultKind::Partition { node: "server".into(), for_us: 50 },
        ));
        let _ = inj.check(FaultOp::TxCommit, &[]);
        let _ = inj.check(FaultOp::BusSend, &[]);
        clock.borrow_mut().advance_us(50);
        let _ = inj.check(FaultOp::BusSend, &["server"]); // heals
        inj.breaker_record("Bank.transfer", false, 1, 100);
        let trace = obs.take();
        assert_eq!(
            trace.events.len(),
            inj.log().len(),
            "one obs event per fault-log record: {trace:?}"
        );
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["fault.injected", "fault.injected", "fault.healed", "breaker.opened"]);
        // The bridge carries the log's own seq and sim time, so a trace
        // can be checked against the log record-for-record.
        for (e, r) in trace.events.iter().zip(inj.log().records()) {
            assert_eq!(
                comet_obs::Trace::attr(&e.attrs, "log_seq"),
                Some(r.seq.to_string().as_str())
            );
            assert_eq!(e.at_us, r.at_us);
        }
    }

    #[test]
    fn install_plan_resets_state() {
        let (mut inj, _clock) = injector();
        inj.install_plan(FaultPlan::new(1).at(FaultOp::BusSend, 1, FaultKind::Transient));
        let _ = inj.check(FaultOp::BusSend, &[]);
        assert_eq!(inj.log().len(), 1);
        inj.install_plan(FaultPlan::new(1));
        assert!(inj.log().is_empty());
        assert!(inj.check(FaultOp::BusSend, &[]).is_ok());
    }
}
