//! # comet-serve — sharded multi-tenant transformation serving
//!
//! The substrate that turns COMET's single-session pipeline (specialize
//! GMT/GA with Si → apply CMT → weave CA in §3 precedence order) into a
//! request-driven service, the shape Manset et al. exercise per
//! deployment at grid scale: many tenants concurrently evolving their
//! own models through concern refinements.
//!
//! The crate is deliberately engine-agnostic. It knows how to *serve* —
//! seeded closed-loop workloads ([`WorkloadPlan`]), bounded-queue
//! admission control with typed backpressure ([`ServeError::Overloaded`]),
//! deadline shedding, read-only query batching, tenant→shard hash
//! routing with real rayon parallelism, and byte-comparable
//! [`ServeReport`]s — but not what a request *does*. Hosts implement
//! [`TenantEngine`]/[`EngineFactory`] (the `comet` crate plugs in its
//! `MdaLifecycle`-backed banking sessions) and may hold `!Send` state,
//! because sessions live and die on a single shard worker.
//!
//! ## Determinism
//!
//! Same seed + same plan (+ same fault plan) ⇒ byte-identical report
//! and trace across shard counts and thread counts, by construction:
//! tenants share nothing, per-tenant RNGs derive from the global tenant
//! name, and every aggregate folds in tenant-name order. See
//! `shard.rs` for the full argument.

#![warn(missing_docs)]

mod core;
mod error;
mod meters;
mod plan;
mod report;
mod request;
mod shard;

pub use crate::core::{RunConfig, ServeOutcome, ServerCore};
pub use comet_metrics::{MetricsSnapshot, SloPolicy, SloVerdict};
pub use error::{EngineError, ServeError};
pub use plan::{
    Limits, RequestMix, SampleMode, ServiceCosts, WorkloadPlan, WorkloadPlanError, DEFAULT_BACKEND,
};
pub use report::{ServeReport, TenantStats};
pub use request::{EngineFactory, QuerySelector, Request, TenantEngine};

#[cfg(test)]
mod tests {
    use super::*;
    use comet_middleware::FaultLog;
    use comet_obs::Collector;

    /// A deliberately boring engine: counts operations, fails on
    /// demand, applies concerns from a fixed workflow list. Its
    /// `Generate` path is real, though — requests resolve through
    /// `comet_gen::Backend::parse` and render over a tiny model, so even
    /// the substrate-level tests exercise backend dispatch and the typed
    /// [`ServeError::UnknownBackend`] path.
    struct MockEngine {
        workflow: Vec<String>,
        next: usize,
        applied: Vec<String>,
        /// Fail every Nth execute (0 = never).
        fail_every: u64,
        executed: u64,
        model: comet_model::Model,
        program: comet_codegen::Program,
        bodies: comet_codegen::BodyProvider,
    }

    #[derive(Debug)]
    struct MockFault;
    impl std::fmt::Display for MockFault {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("mock fault")
        }
    }
    impl std::error::Error for MockFault {}

    impl TenantEngine for MockEngine {
        fn execute(&mut self, req: &Request, _obs: &Collector) -> Result<String, ServeError> {
            self.executed += 1;
            if self.fail_every > 0 && self.executed.is_multiple_of(self.fail_every) {
                return Err(ServeError::engine(MockFault));
            }
            match req {
                Request::ApplyConcern { concern, .. } => {
                    self.applied.push(concern.clone());
                    Ok(format!("applied:{concern}"))
                }
                Request::UndoLast => {
                    let undone = self.applied.pop().unwrap_or_default();
                    Ok(format!("undone:{undone}"))
                }
                Request::Generate { backend } => {
                    let target = comet_gen::Backend::parse(backend)
                        .ok_or_else(|| ServeError::UnknownBackend(backend.clone()))?;
                    let input = comet_gen::GenInput {
                        model: &self.model,
                        woven: &self.program,
                        concerns: &self.applied,
                        bodies: &self.bodies,
                    };
                    let artifact = target.render(&input);
                    Ok(format!("generated:{backend}:{}", artifact.len()))
                }
                Request::Query(_) => unreachable!("queries go through execute_queries"),
                Request::Snapshot => Ok("snapshotted".into()),
            }
        }

        fn execute_queries(
            &mut self,
            selectors: &[QuerySelector],
            _obs: &Collector,
        ) -> Result<Vec<u64>, ServeError> {
            self.executed += 1;
            if self.fail_every > 0 && self.executed.is_multiple_of(self.fail_every) {
                return Err(ServeError::engine(MockFault));
            }
            Ok(selectors.iter().map(|s| s.to_string().len() as u64).collect())
        }

        fn next_apply(&mut self) -> Option<Request> {
            let concern = self.workflow.get(self.next)?.clone();
            self.next += 1;
            Some(Request::ApplyConcern { concern, si: comet_transform::ParamSet::new() })
        }

        fn applied(&self) -> Vec<String> {
            self.applied.clone()
        }

        fn take_service_us(&mut self) -> u64 {
            0
        }

        fn fault_log(&self) -> FaultLog {
            FaultLog::default()
        }

        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("mock_executions", self.executed)]
        }
    }

    struct MockFactory {
        fail_every: u64,
    }

    impl EngineFactory for MockFactory {
        type Engine = MockEngine;

        fn create(&self, _tenant: &str, _obs: &Collector) -> MockEngine {
            let model = comet_model::sample::banking_pim();
            let bodies = comet_codegen::BodyProvider::default();
            let program = comet_codegen::FunctionalGenerator::new().generate(&model, &bodies);
            MockEngine {
                workflow: vec!["distribution".into(), "transactions".into(), "security".into()],
                next: 0,
                applied: Vec::new(),
                fail_every: self.fail_every,
                executed: 0,
                model,
                program,
                bodies,
            }
        }

        fn query_pool(&self) -> Vec<QuerySelector> {
            vec![
                QuerySelector::Classes,
                QuerySelector::Stereotype("Distributed".into()),
                QuerySelector::Operations("Bank".into()),
            ]
        }
    }

    const TRACED: RunConfig = RunConfig { traced: true, metrics: false };

    fn plan(seed: u64) -> WorkloadPlan {
        let mut p = WorkloadPlan::new(seed);
        p.tenants = 5;
        p.clients = 3;
        p.requests = 12;
        p
    }

    #[test]
    fn same_seed_same_report_across_shard_counts() {
        let factory = MockFactory { fail_every: 0 };
        let p = plan(7);
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&shards| ServerCore::new(&p, &factory, shards).unwrap().run_with(&TRACED))
            .collect();
        let first = &runs[0];
        assert!(first.report.completed > 0);
        for other in &runs[1..] {
            assert_eq!(first.report, other.report);
            assert_eq!(first.report.to_json(), other.report.to_json());
            assert_eq!(first.trace, other.trace);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let factory = MockFactory { fail_every: 0 };
        let a = ServerCore::new(&plan(7), &factory, 2).unwrap().run_with(&RunConfig::default());
        let b = ServerCore::new(&plan(8), &factory, 2).unwrap().run_with(&RunConfig::default());
        assert_ne!(a.report, b.report);
    }

    #[test]
    fn overload_rejects_but_accepted_requests_complete() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.clients = 8;
        p.limits.queue_depth = 1;
        p.service.think_us = 10; // hammer the queue
        p.service.jitter_us = 5;
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&RunConfig::default());
        let r = &out.report;
        assert!(r.rejected > 0, "tiny queue under load must reject: {r}");
        assert!(r.completed > 0);
        // Closed loop: every attempt is accounted for, nothing leaks.
        assert_eq!(r.issued, (p.tenants as u64) * (p.clients as u64) * p.requests);
        assert_eq!(r.issued, r.completed + r.rejected + r.deadline_dropped);
        assert_eq!(r.completed, r.ok + r.failed);
    }

    #[test]
    fn deadlines_shed_stale_requests() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.clients = 8;
        p.limits.queue_depth = 16;
        p.limits.deadline_us = 200; // far below typical service times
        p.service.think_us = 10;
        let out = ServerCore::new(&p, &factory, 1).unwrap().run_with(&RunConfig::default());
        let r = &out.report;
        assert!(r.deadline_dropped > 0, "{r}");
        assert_eq!(r.issued, r.completed + r.rejected + r.deadline_dropped);
    }

    #[test]
    fn engine_failures_degrade_requests_not_the_run() {
        let factory = MockFactory { fail_every: 4 };
        let out = ServerCore::new(&plan(7), &factory, 2).unwrap().run_with(&RunConfig::default());
        let r = &out.report;
        assert!(r.failed > 0);
        assert!(r.ok > 0);
        assert_eq!(r.completed, r.ok + r.failed);
        // Determinism holds under failures too.
        let again = ServerCore::new(&plan(7), &factory, 4).unwrap().run_with(&RunConfig::default());
        assert_eq!(*r, again.report);
    }

    #[test]
    fn queries_batch() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.mix = RequestMix {
            apply: 0.0,
            undo: 0.0,
            generate: 0.0,
            query: 1.0,
            snapshot: 0.0,
            generate_backends: Vec::new(),
        };
        p.clients = 6;
        p.service.think_us = 10;
        p.limits.queue_depth = 8;
        let out = ServerCore::new(&p, &factory, 1).unwrap().run_with(&RunConfig::default());
        assert!(out.report.batches > 0, "{}", out.report);
        assert!(out.report.batched_queries >= 2 * out.report.batches);
    }

    #[test]
    fn backend_weighted_generates_stay_shard_invariant() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.mix.generate = 2.0;
        p.mix.generate_backends = vec![
            ("java-functional".to_owned(), 1.0),
            ("rust-skeleton".to_owned(), 1.0),
            ("report".to_owned(), 1.0),
        ];
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&shards| ServerCore::new(&p, &factory, shards).unwrap().run_with(&TRACED))
            .collect();
        let first = &runs[0];
        for other in &runs[1..] {
            assert_eq!(first.report, other.report);
            assert_eq!(first.trace, other.trace);
        }
        // The mix actually reaches the engine: request spans carry each
        // backend's artifact length in their outcome token.
        let trace = first.trace.as_ref().expect("traced run");
        let outcomes: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.name == "serve.request")
            .filter_map(|s| comet_obs::Trace::attr(&s.attrs, "outcome"))
            .filter(|o| o.starts_with("generated:"))
            .collect();
        assert!(!outcomes.is_empty());
        for backend in ["java-functional", "rust-skeleton", "report"] {
            assert!(
                outcomes.iter().any(|o| o.contains(backend)),
                "weighted draw never reached `{backend}`: {outcomes:?}"
            );
        }
    }

    #[test]
    fn unknown_backend_degrades_requests_with_the_typed_error() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.mix.generate = 5.0;
        p.mix.generate_backends = vec![("cobol-copybook".to_owned(), 1.0)];
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED);
        assert!(out.report.failed > 0, "{}", out.report);
        let trace = out.trace.as_ref().expect("traced run");
        assert!(
            trace.spans.iter().filter(|s| s.name == "serve.request").any(|s| {
                comet_obs::Trace::attr(&s.attrs, "outcome")
                    .is_some_and(|o| o.contains("unknown backend `cobol-copybook`"))
            }),
            "typed UnknownBackend must surface in outcomes"
        );
    }

    #[test]
    fn applied_follows_workflow_order() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.mix.apply = 5.0;
        p.mix.undo = 0.0;
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&RunConfig::default());
        for t in out.report.tenants.values() {
            let expected = ["distribution", "transactions", "security"];
            assert_eq!(t.applied, expected[..t.applied.len()]);
        }
    }

    #[test]
    fn traces_tag_requests_with_tenants() {
        let factory = MockFactory { fail_every: 0 };
        let out = ServerCore::new(&plan(7), &factory, 2).unwrap().run_with(&TRACED);
        let trace = out.trace.expect("traced run");
        let requests: Vec<_> = trace.spans.iter().filter(|s| s.name == "serve.request").collect();
        assert_eq!(
            requests.len() as u64,
            out.report.completed,
            "one serve.request span per completed request"
        );
        for span in &requests {
            let tenant = comet_obs::Trace::attr(&span.attrs, "tenant").expect("tenant attr");
            assert!(out.report.tenants.contains_key(tenant));
            assert!(comet_obs::Trace::attr(&span.attrs, "outcome").is_some());
        }
    }

    /// Span identity for set-containment checks: everything except the
    /// ids, which renumber when neighbouring spans are discarded.
    type SpanKey = (String, String, u64, u64, Vec<(String, String)>);

    fn span_keys(trace: &comet_obs::Trace) -> Vec<SpanKey> {
        let mut keys: Vec<_> = trace
            .spans
            .iter()
            .map(|s| (s.cat.clone(), s.name.clone(), s.start_us, s.end_us, s.attrs.clone()))
            .collect();
        keys.sort();
        keys
    }

    /// Multiset containment: every key of `sub` appears in `sup` at
    /// least as often.
    fn contained_in(sub: &[SpanKey], sup: &[SpanKey]) -> bool {
        let mut pool = sup.to_vec();
        sub.iter().all(|k| {
            if let Ok(i) = pool.binary_search(k) {
                pool.remove(i);
                true
            } else {
                false
            }
        })
    }

    #[test]
    fn metrics_snapshot_is_shard_count_invariant() {
        let factory = MockFactory { fail_every: 3 };
        let mut p = plan(7);
        p.slo = Some(SloPolicy { target_us: 400, ..SloPolicy::default() });
        let cfg = RunConfig { traced: false, metrics: true };
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&shards| ServerCore::new(&p, &factory, shards).unwrap().run_with(&cfg))
            .collect();
        let first = runs[0].metrics.as_ref().expect("metrics on");
        assert!(!first.is_empty());
        let prom = first.to_prometheus();
        assert!(prom.contains("comet_serve_requests_total{"), "{prom}");
        assert!(prom.contains("comet_serve_latency_us_bucket{"), "{prom}");
        assert!(prom.contains("comet_serve_mock_executions_total{"), "engine counters bridged");
        for other in &runs[1..] {
            let m = other.metrics.as_ref().expect("metrics on");
            assert_eq!(first, m);
            assert_eq!(prom, m.to_prometheus(), "byte-identical exposition");
            assert_eq!(first.to_json(), m.to_json());
            assert_eq!(runs[0].report.slo, other.report.slo, "verdicts shard-invariant");
        }
        assert_eq!(runs[0].report.slo.len(), p.tenants, "one verdict per tenant");
    }

    #[test]
    fn slo_section_implies_metrics_and_breaches_report() {
        let factory = MockFactory { fail_every: 2 };
        let mut p = plan(7);
        // An impossible target: every request breaches.
        p.slo = Some(SloPolicy { target_us: 1, error_budget: 0.001, ..SloPolicy::default() });
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&RunConfig::default());
        assert!(out.metrics.is_some(), "[slo] turns metrics on even with metrics=false");
        assert!(out.report.slo_breached(), "{}", out.report);
        let rendered = out.report.to_string();
        assert!(rendered.contains("BREACH"), "{rendered}");
        assert!(out.report.to_json().contains("\"slo\""));
        // Without a policy the report renders without any slo section.
        let bare = ServerCore::new(&plan(7), &factory, 2).unwrap().run_with(&RunConfig::default());
        assert!(bare.report.slo.is_empty());
        assert!(!bare.report.to_json().contains("\"slo\""));
    }

    #[test]
    fn sampled_trace_spans_are_a_subset_of_the_full_trace() {
        let factory = MockFactory { fail_every: 4 };
        let mut p = plan(7);
        let full = ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED);
        let full_keys = span_keys(full.trace.as_ref().unwrap());
        for mode in [
            SampleMode::Always,
            SampleMode::Never,
            SampleMode::PerTenantHash { rate: 0.5 },
            SampleMode::TailOnError,
        ] {
            p.sampling = mode;
            let sampled = ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED);
            let keys = span_keys(sampled.trace.as_ref().unwrap());
            assert!(contained_in(&keys, &full_keys), "{mode:?} leaked spans");
            assert_eq!(
                sampled.report, full.report,
                "sampling must never change the report ({mode:?})"
            );
            match mode {
                SampleMode::Always => assert_eq!(keys.len(), full_keys.len()),
                SampleMode::Never => assert!(keys.is_empty(), "{mode:?}: {}", keys.len()),
                _ => {}
            }
        }
    }

    #[test]
    fn tail_on_error_keeps_full_span_trees_for_failed_requests() {
        let factory = MockFactory { fail_every: 4 };
        let mut p = plan(7);
        p.sampling = SampleMode::TailOnError;
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED);
        let trace = out.trace.as_ref().unwrap();
        let requests: Vec<_> = trace.spans.iter().filter(|s| s.name == "serve.request").collect();
        let errored = requests
            .iter()
            .filter(|s| {
                comet_obs::Trace::attr(&s.attrs, "outcome").is_some_and(|o| o.starts_with("err"))
            })
            .count();
        assert!(out.report.failed > 0);
        assert_eq!(errored as u64, out.report.failed, "every failed request keeps its span tree");
        // The tail sampler drops the boring batches, so the kept trace
        // is strictly smaller than the full one.
        let full = {
            p.sampling = SampleMode::Always;
            ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED)
        };
        assert!(trace.spans.len() < full.trace.as_ref().unwrap().spans.len());
        // And it is still shard-count invariant.
        p.sampling = SampleMode::TailOnError;
        let again = ServerCore::new(&p, &factory, 8).unwrap().run_with(&TRACED);
        assert_eq!(out.trace, again.trace);
    }

    #[test]
    fn per_tenant_hash_keeps_whole_tenants() {
        let factory = MockFactory { fail_every: 0 };
        let mut p = plan(7);
        p.sampling = SampleMode::PerTenantHash { rate: 0.5 };
        let out = ServerCore::new(&p, &factory, 2).unwrap().run_with(&TRACED);
        let trace = out.trace.as_ref().unwrap();
        let mut kept: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.name == "serve.request")
            .filter_map(|s| comet_obs::Trace::attr(&s.attrs, "tenant"))
            .collect();
        kept.sort_unstable();
        kept.dedup();
        assert!(!kept.is_empty() && kept.len() < p.tenants, "rate 0.5 splits tenants: {kept:?}");
        // Kept tenants keep *all* their request spans.
        for tenant in &kept {
            let spans = trace
                .spans
                .iter()
                .filter(|s| {
                    s.name == "serve.request"
                        && comet_obs::Trace::attr(&s.attrs, "tenant") == Some(tenant)
                })
                .count() as u64;
            assert_eq!(spans, out.report.tenants[*tenant].completed);
        }
    }

    #[test]
    fn shard_routing_is_stable() {
        let factory = MockFactory { fail_every: 0 };
        let p = plan(7);
        let core = ServerCore::new(&p, &factory, 4).unwrap();
        for tenant in p.tenant_names() {
            assert_eq!(core.shard_of(&tenant), core.shard_of(&tenant));
            assert!(core.shard_of(&tenant) < 4);
        }
    }
}
