//! Per-tenant closed-loop scheduler and per-shard execution.
//!
//! # Determinism across shard counts
//!
//! Every tenant is its own little world: a single-server FIFO queue fed
//! by C closed-loop simulated clients, a private `StdRng` derived from
//! the plan seed and the tenant's *global* name (never its shard), and
//! a private sim-time axis starting at 0. Shards merely group tenants
//! for real parallelism — they contribute no state of their own, so the
//! per-tenant outcome is a pure function of `(plan, fault plan, tenant
//! name)`. Reports then aggregate tenants in name order and traces
//! merge in name order, which is why the same seed and plan produce a
//! byte-identical `ServeReport` whether the server runs 1 shard or 8,
//! on 1 weaver thread or 16.
//!
//! # The event loop
//!
//! Sim time advances from event to event:
//!
//! * **Arrival** — a thinking client issues its next request. Admission
//!   control runs first: a full queue rejects with
//!   `ServeError::Overloaded { retry_after_us }` (the attempt is
//!   consumed and the client backs off), so queue memory is bounded by
//!   construction. Admitted requests are drawn from the plan's seeded
//!   mix and join the FIFO.
//! * **Pickup** — when the server is idle and the queue non-empty, the
//!   head is picked up. Requests that out-waited the plan's deadline
//!   are shed here (`DeadlineExceeded`, counted as degraded, client
//!   released). Consecutive read-only `Query` requests at the head are
//!   batched and answered from one engine pass, charged one service
//!   cost. Execution happens at pickup; the service time (plan base
//!   cost + jitter draw + sim time the engine itself consumed, e.g.
//!   latency faults) determines the completion event.
//! * **Completion** — latency is recorded and the batch's clients go
//!   back to thinking. Completions tie-break before arrivals; same-time
//!   arrivals process in client-index order.
//!
//! Engine failures (injected middleware faults surfacing as
//! `ServeError::Engine`) mark that one request `failed` and the loop
//! carries on — a fault degrades a request, never a shard.

use crate::core::RunConfig;
use crate::error::ServeError;
use crate::meters::{kind_index, TenantMeters};
use crate::plan::{SampleMode, WorkloadPlan, DEFAULT_BACKEND};
use crate::report::TenantStats;
use crate::request::{EngineFactory, QuerySelector, Request, TenantEngine};
use comet_metrics::SloVerdict;
use comet_obs::{fnv1a64, fnv1a64_extend, Collector, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Everything one tenant's run produced (plain data; crosses threads).
#[derive(Debug)]
pub(crate) struct TenantOutcome {
    /// Tenant name (`t00`, ...).
    pub tenant: String,
    /// Aggregated per-tenant stats.
    pub stats: TenantStats,
    /// Per-request queue+service latencies, completion order.
    pub latencies: Vec<u64>,
    /// The tenant's trace, when tracing was requested.
    pub trace: Option<Trace>,
    /// The tenant's meters, with the engine's counters, when metrics
    /// were requested.
    pub meters: Option<TenantMeters>,
    /// The tenant's SLO verdict, when the plan carries a policy.
    pub slo: Option<SloVerdict>,
}

/// One client of the closed loop.
struct Client {
    /// When this client next issues (valid while thinking).
    next_us: u64,
    /// Attempts left before the client retires.
    remaining: u64,
    /// True while a request of this client is queued or in service.
    waiting: bool,
}

/// One admitted request waiting in (or leaving) the queue.
struct Queued {
    client: usize,
    req: Request,
    enqueued_us: u64,
}

/// The server's in-service batch (queries) or single request.
struct InService {
    until: u64,
    /// Sim time of pickup (queue-wait boundary for the whole batch).
    started_us: u64,
    batch: Vec<Queued>,
    /// Per-member success flags, aligned with `batch` — carried from
    /// execution (at pickup) to completion so the SLO window can
    /// classify each member at its completion tick.
    oks: Vec<bool>,
}

pub(crate) struct TenantScheduler<'a, E: TenantEngine> {
    plan: &'a WorkloadPlan,
    tenant: String,
    engine: E,
    obs: Collector,
    rng: StdRng,
    query_pool: Vec<QuerySelector>,
    clients: Vec<Client>,
    queue: VecDeque<Queued>,
    in_service: Option<InService>,
    now: u64,
    /// Applies admitted minus undos admitted — gates `UndoLast` draws.
    planned_depth: u64,
    stats: TenantStats,
    latencies: Vec<u64>,
    hash: u64,
    meters: Option<TenantMeters>,
    /// This tenant's SLO latency target (`u64::MAX` without a policy).
    slo_target_us: u64,
    /// Pre-decided `PerTenantHash` verdict: the whole tenant samples
    /// together, decided from its name hash alone.
    sample_tenant_kept: bool,
}

impl<'a, E: TenantEngine> TenantScheduler<'a, E> {
    pub(crate) fn new<F>(plan: &'a WorkloadPlan, tenant: &str, factory: &F, cfg: &RunConfig) -> Self
    where
        F: EngineFactory<Engine = E>,
    {
        let obs = if cfg.traced { Collector::enabled() } else { Collector::disabled() };
        let engine = factory.create(tenant, &obs);
        let clients = (0..plan.clients)
            .map(|_| Client { next_us: 0, remaining: plan.requests, waiting: false })
            .collect();
        // An SLO policy implies metrics: verdicts need the histograms.
        let meters = (cfg.metrics || plan.slo.is_some())
            .then(|| TenantMeters::new(plan.slo.as_ref().map_or(1_000_000, |s| s.window_us)));
        let sample_tenant_kept = match plan.sampling {
            SampleMode::PerTenantHash { rate } => {
                // FNV-1a's high bits barely move for short, similar
                // names ("t00".."t07" all share the same top bits), so
                // run the hash through a 64-bit avalanche finalizer
                // before taking the top 53 bits as a uniform draw in
                // [0, 1) — still a pure function of the tenant name.
                let mut h = fnv1a64(tenant.as_bytes());
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
                h ^= h >> 33;
                ((h >> 11) as f64) < rate * (1u64 << 53) as f64
            }
            _ => true,
        };
        TenantScheduler {
            plan,
            tenant: tenant.to_owned(),
            engine,
            obs,
            rng: StdRng::seed_from_u64(plan.seed ^ fnv1a64(tenant.as_bytes())),
            query_pool: factory.query_pool(),
            clients,
            queue: VecDeque::new(),
            in_service: None,
            now: 0,
            planned_depth: 0,
            stats: TenantStats::default(),
            latencies: Vec::new(),
            hash: fnv1a64(&[]),
            meters,
            slo_target_us: plan.slo.as_ref().map_or(u64::MAX, |s| s.target_for(tenant)),
            sample_tenant_kept,
        }
    }

    /// Runs the tenant to quiescence and returns its outcome.
    pub(crate) fn run(mut self) -> TenantOutcome {
        loop {
            if self.in_service.is_none() && !self.queue.is_empty() {
                self.start_service();
                continue;
            }
            let completion = self.in_service.as_ref().map(|s| s.until);
            let arrival = self
                .clients
                .iter()
                .filter(|c| !c.waiting && c.remaining > 0)
                .map(|c| c.next_us)
                .min();
            match (completion, arrival) {
                (None, None) => break,
                (Some(c), None) => self.complete(c),
                (None, Some(a)) => self.arrivals_at(a),
                // Completions tie-break before same-time arrivals.
                (Some(c), Some(a)) if c <= a => self.complete(c),
                (Some(_), Some(a)) => self.arrivals_at(a),
            }
        }
        self.stats.end_us = self.now;
        self.stats.applied = self.engine.applied();
        self.stats.fault_records = self.engine.fault_log().len() as u64;
        let applied = std::mem::take(&mut self.stats.applied);
        for concern in &applied {
            self.fold(concern.as_bytes());
        }
        self.stats.applied = applied;
        self.stats.outcome_hash = self.hash;
        let meters = self.meters.take().map(|mut m| {
            m.engine = self.engine.counters();
            m
        });
        let slo = match (&self.plan.slo, &meters) {
            (Some(policy), Some(m)) => {
                Some(policy.evaluate(&self.tenant, &m.latency(), Some(&m.slo)))
            }
            _ => None,
        };
        TenantOutcome {
            tenant: self.tenant,
            stats: self.stats,
            latencies: self.latencies,
            trace: if self.obs.is_enabled() { Some(self.obs.take()) } else { None },
            meters,
            slo,
        }
    }

    /// FNV-1a fold of one bookkeeping record into the outcome hash.
    /// Each record ends with a `0xff` separator byte.
    fn fold(&mut self, bytes: &[u8]) {
        self.hash = fnv1a64_extend(fnv1a64_extend(self.hash, bytes), &[0xff]);
    }

    fn think_jitter(&mut self) -> u64 {
        self.plan.service.think_us + self.rng.gen_range(0..=self.plan.service.jitter_us)
    }

    /// Processes every client arriving at time `at`, in index order.
    fn arrivals_at(&mut self, at: u64) {
        self.now = at;
        for i in 0..self.clients.len() {
            let c = &self.clients[i];
            if c.waiting || c.remaining == 0 || c.next_us != at {
                continue;
            }
            self.issue(i);
        }
    }

    /// One client issues one request (the attempt is consumed either way).
    fn issue(&mut self, client: usize) {
        self.clients[client].remaining -= 1;
        self.stats.issued += 1;
        if self.queue.len() >= self.plan.limits.queue_depth {
            // Admission control: bounded queue, typed backpressure.
            let retry_after_us = self.backlog_estimate_us().max(1);
            let err = ServeError::Overloaded { retry_after_us };
            self.stats.rejected += 1;
            self.fold(format!("reject:{client}@{}:{err}", self.now).as_bytes());
            self.obs.event(
                "serve",
                "serve.reject",
                self.now,
                vec![
                    ("tenant".into(), self.tenant.clone()),
                    ("client".into(), client.to_string()),
                    ("retry_after_us".into(), retry_after_us.to_string()),
                ],
            );
            if let Some(m) = &mut self.meters {
                m.slo.record(self.now, false);
            }
            let backoff = retry_after_us + self.think_jitter();
            self.clients[client].next_us = self.now + backoff;
            return;
        }
        let req = self.draw_request();
        self.queue.push_back(Queued { client, req, enqueued_us: self.now });
        self.clients[client].waiting = true;
    }

    /// Honest deterministic backlog estimate backing `retry_after_us`.
    fn backlog_estimate_us(&self) -> u64 {
        let s = &self.plan.service;
        let avg = (s.apply_us + s.undo_us + s.generate_us + s.query_us + s.snapshot_us) / 5;
        let in_service = self.in_service.as_ref().map_or(0, |b| b.until.saturating_sub(self.now));
        in_service + self.queue.len() as u64 * avg
    }

    /// Draws the next request from the plan's seeded mix.
    fn draw_request(&mut self) -> Request {
        let m = &self.plan.mix;
        let x = self.rng.gen::<f64>() * m.total();
        if x < m.apply {
            if let Some(req) = self.engine.next_apply() {
                self.planned_depth += 1;
                return req;
            }
            // Workflow complete: degrade to a read.
            return Request::Query(self.draw_query());
        }
        if x < m.apply + m.undo {
            if self.planned_depth > 0 {
                self.planned_depth -= 1;
                return Request::UndoLast;
            }
            return Request::Query(self.draw_query());
        }
        if x < m.apply + m.undo + m.generate {
            return Request::Generate { backend: self.draw_backend() };
        }
        if x < m.apply + m.undo + m.generate + m.query {
            return Request::Query(self.draw_query());
        }
        Request::Snapshot
    }

    /// The backend a `Generate` draw targets. Without a
    /// `[mix.generate]` section this pins [`DEFAULT_BACKEND`] and
    /// consumes no random number, so pre-factory plans keep their
    /// exact request streams; with one, a secondary weighted draw
    /// walks the backends in plan order.
    fn draw_backend(&mut self) -> String {
        let backends = &self.plan.mix.generate_backends;
        if backends.is_empty() {
            return DEFAULT_BACKEND.to_owned();
        }
        let total: f64 = backends.iter().map(|(_, w)| w).sum();
        let mut x = self.rng.gen::<f64>() * total;
        for (backend, weight) in backends {
            x -= weight;
            if x < 0.0 {
                return backend.clone();
            }
        }
        backends.last().expect("non-empty").0.clone()
    }

    fn draw_query(&mut self) -> QuerySelector {
        if self.query_pool.is_empty() {
            return QuerySelector::Classes;
        }
        let i = self.rng.gen_range(0..self.query_pool.len());
        self.query_pool[i].clone()
    }

    /// Picks up the queue head (shedding expired requests), executes it
    /// — batching consecutive queries — and schedules the completion.
    fn start_service(&mut self) {
        let deadline = self.plan.limits.deadline_us;
        while let Some(head) = self.queue.front() {
            let waited = self.now - head.enqueued_us;
            if deadline == 0 || waited <= deadline {
                break;
            }
            let shed = self.queue.pop_front().expect("head exists");
            let err = ServeError::DeadlineExceeded { waited_us: waited, deadline_us: deadline };
            self.stats.deadline_dropped += 1;
            self.fold(
                format!("shed:{}:{}@{}:{err}", shed.req.kind(), shed.client, self.now).as_bytes(),
            );
            self.obs.event(
                "serve",
                "serve.deadline",
                self.now,
                vec![
                    ("tenant".into(), self.tenant.clone()),
                    ("client".into(), shed.client.to_string()),
                    ("kind".into(), shed.req.kind().to_string()),
                    ("waited_us".into(), waited.to_string()),
                ],
            );
            if let Some(m) = &mut self.meters {
                m.slo.record(self.now, false);
            }
            self.release(shed.client);
        }
        let Some(first) = self.queue.pop_front() else { return };
        let mut batch = vec![first];
        if matches!(batch[0].req, Request::Query(_)) {
            while matches!(self.queue.front().map(|q| &q.req), Some(Request::Query(_))) {
                batch.push(self.queue.pop_front().expect("front exists"));
            }
        }
        let base = match &batch[0].req {
            Request::ApplyConcern { .. } => self.plan.service.apply_us,
            Request::UndoLast => self.plan.service.undo_us,
            Request::Generate { .. } => self.plan.service.generate_us,
            // One pass, one service cost — that is the batching win.
            Request::Query(_) => self.plan.service.query_us,
            Request::Snapshot => self.plan.service.snapshot_us,
        };
        let jitter = self.rng.gen_range(0..=self.plan.service.jitter_us);
        // Pickup point: the queue-wait of every batch member ends here.
        let started_us = self.now;
        if let Some(m) = &mut self.meters {
            for q in &batch {
                m.queue_wait[kind_index(&q.req)].observe(started_us - q.enqueued_us);
            }
        }
        let (until, oks) = self.execute(&batch, base + jitter);
        self.in_service = Some(InService { until, started_us, batch, oks });
    }

    /// Executes the batch under `serve.request` spans and returns the
    /// completion time plus per-member success flags. Outcomes are
    /// carried as display text — `Err` holds the rendered `ServeError`
    /// — since the scheduler only counts, hashes, and tags them.
    ///
    /// The sampling decision also lives here: the engine runs at
    /// pickup, so by the end of this method the batch's outcome,
    /// fault-log growth and completion latency are all known — exactly
    /// what tail-based sampling needs to decide keep-or-discard while
    /// the speculative span region is still the newest thing in the
    /// collector (interleaved arrival events come later and must not
    /// be truncated with it).
    fn execute(&mut self, batch: &[Queued], sched_cost: u64) -> (u64, Vec<bool>) {
        let mark = if self.obs.is_enabled() && !matches!(self.plan.sampling, SampleMode::Always) {
            Some(self.obs.mark())
        } else {
            None
        };
        let faults_before = if matches!(self.plan.sampling, SampleMode::TailOnError) {
            self.engine.fault_log().len()
        } else {
            0
        };
        self.engine.take_service_us(); // discard pre-request drift
        let outcomes: Vec<Result<String, String>> = if let Request::Query(_) = &batch[0].req {
            let selectors: Vec<QuerySelector> = batch
                .iter()
                .map(|q| match &q.req {
                    Request::Query(sel) => sel.clone(),
                    other => unreachable!("query batch holds {other}"),
                })
                .collect();
            if batch.len() > 1 {
                self.stats.batches += 1;
                self.stats.batched_queries += batch.len() as u64;
            }
            let span = self.obs.begin_span("serve", "serve.request", self.now);
            let answer = self.engine.execute_queries(&selectors, &self.obs);
            self.obs.end_span(span, self.now);
            let outs: Vec<Result<String, String>> = match answer {
                Ok(counts) => counts.iter().map(|n| Ok(format!("ok:{n}"))).collect(),
                // One failed pass degrades the whole batch —
                // every member is a read, none saw bad data.
                Err(err) => {
                    let text = err.to_string();
                    batch.iter().map(|_| Err(text.clone())).collect()
                }
            };
            self.tag_request_span(span, &batch[0], batch.len(), outs.first());
            // Batch members beyond the head get their own
            // (zero-length) request spans for provenance.
            for (q, out) in batch.iter().zip(&outs).skip(1) {
                let s = self.obs.begin_span("serve", "serve.request", self.now);
                self.obs.end_span(s, self.now);
                self.tag_request_span(s, q, batch.len(), Some(out));
            }
            outs
        } else {
            let span = self.obs.begin_span("serve", "serve.request", self.now);
            let answer = self.engine.execute(&batch[0].req, &self.obs);
            self.obs.end_span(span, self.now);
            let result = match answer {
                Ok(token) => Ok(token),
                Err(err) => {
                    // Count typed admission-gate rejections before the
                    // error degrades to display text for hashing.
                    if let ServeError::Conflict { .. } = err {
                        self.stats.conflicts += 1;
                    }
                    Err(err.to_string())
                }
            };
            self.tag_request_span(span, &batch[0], 1, Some(&result));
            vec![result]
        };
        for (q, out) in batch.iter().zip(&outcomes) {
            match out {
                Ok(token) => {
                    self.stats.ok += 1;
                    self.fold(
                        format!("ok:{}:{}@{}:{token}", q.req.kind(), q.client, self.now).as_bytes(),
                    );
                }
                Err(err) => {
                    self.stats.failed += 1;
                    self.fold(
                        format!("fail:{}:{}@{}:{err}", q.req.kind(), q.client, self.now).as_bytes(),
                    );
                }
            }
        }
        let until = self.now + sched_cost + self.engine.take_service_us();
        if let Some(mark) = mark {
            let keep = match self.plan.sampling {
                SampleMode::Always => true,
                SampleMode::Never => false,
                SampleMode::PerTenantHash { .. } => self.sample_tenant_kept,
                SampleMode::TailOnError => {
                    let any_err = outcomes.iter().any(Result::is_err);
                    let faulted = self.engine.fault_log().len() > faults_before;
                    let breach = batch.iter().any(|q| until - q.enqueued_us > self.slo_target_us);
                    any_err || faulted || breach
                }
            };
            if !keep {
                self.obs.discard_to(mark);
            }
            if let Some(m) = &mut self.meters {
                if keep {
                    m.trace_kept += 1;
                } else {
                    m.trace_dropped += 1;
                }
            }
        }
        (until, outcomes.iter().map(Result::is_ok).collect())
    }

    /// Attaches a closed request span's attributes. A request span
    /// brackets the engine call alone; its attributes, and the outcome
    /// text they carry, are written after the close so the span's wall
    /// time is the request's work, not the scheduler's bookkeeping
    /// around it.
    fn tag_request_span(
        &mut self,
        span: comet_obs::SpanId,
        q: &Queued,
        batch_len: usize,
        outcome: Option<&Result<String, String>>,
    ) {
        if self.obs.is_enabled() {
            self.obs.span_attr(span, "tenant", &self.tenant);
            self.obs.span_attr(span, "kind", q.req.kind());
            self.obs.span_attr(span, "client", &q.client.to_string());
            if batch_len > 1 {
                self.obs.span_attr(span, "batch", &batch_len.to_string());
            }
            let text = match outcome {
                Some(Ok(token)) => token.clone(),
                Some(Err(err)) => format!("error:{err}"),
                None => "unknown".to_owned(),
            };
            self.obs.span_attr(span, "outcome", &text);
        }
    }

    /// The in-service batch finishes at `at`.
    fn complete(&mut self, at: u64) {
        self.now = at;
        let done = self.in_service.take().expect("completion without service");
        for (q, &ok) in done.batch.iter().zip(&done.oks) {
            self.stats.completed += 1;
            let e2e = at - q.enqueued_us;
            self.latencies.push(e2e);
            if let Some(m) = &mut self.meters {
                let kind = kind_index(&q.req);
                m.service[kind].observe(at - done.started_us);
                m.e2e[kind].observe(e2e);
                // SLO accounting: a request is "good" only if it
                // succeeded AND met the tenant's latency target.
                m.slo.record(at, ok && e2e <= self.slo_target_us);
            }
            self.release(q.client);
        }
        self.obs.incr("serve.completed", done.batch.len() as u64);
    }

    /// Returns a client to thinking; its next issue is jittered.
    fn release(&mut self, client: usize) {
        let think = self.think_jitter();
        let c = &mut self.clients[client];
        c.waiting = false;
        c.next_us = self.now + think;
    }
}

/// Runs every tenant of one shard sequentially on the calling (rayon
/// worker) thread. Engines are created here precisely because they may
/// be `!Send` — nothing but the plain-data outcomes leaves this call.
pub(crate) fn run_shard<F: EngineFactory>(
    plan: &WorkloadPlan,
    tenants: &[String],
    factory: &F,
    cfg: &RunConfig,
) -> Vec<TenantOutcome> {
    tenants.iter().map(|t| TenantScheduler::new(plan, t, factory, cfg).run()).collect()
}
