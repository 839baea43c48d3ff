//! Integration tests for the generator factory and the
//! content-addressed generation cache across the full stack: every
//! backend renders the complete functional element set from a real
//! lifecycle, served systems stay equal to from-scratch generation
//! and the cache's hit/miss counts follow a least-recently-used model
//! under arbitrary apply/undo/bodies/generate interleavings, the lifecycle's
//! content address always matches an export of its model (in memory,
//! durable and after recovery), and serve runs with backend-weighted
//! `Generate` traffic remain shard-invariant with the gen cache
//! observable in both trace counters and the Prometheus exposition.

use comet::chaos::{banking_bodies, executable_banking_pim};
use comet::{
    run_banking_serve, Backend, GenInput, GeneratedSystem, GeneratorFactory, MdaLifecycle,
};
use comet_aop::{parse_pointcut, Advice, AdviceKind, Weaver};
use comet_aspectgen::{AspectBackend, AspectBuilder, AspectJBackend, ConcernPair};
use comet_codegen::marks::intrinsics;
use comet_codegen::{pretty_print, Block, BodyProvider, Expr, FunctionalGenerator, Stmt};
use comet_obs::fnv1a64;
use comet_serve::{RunConfig, ServeError, WorkloadPlan, WorkloadPlanError};
use comet_transform::{ParamSchema, ParamSet, ParamValue, TransformationBuilder};
use comet_workflow::WorkflowModel;
use comet_xmi::export_model;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fig2_workflow() -> WorkflowModel {
    WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false)
}

/// The fig. 2 `(concern, Si)` bindings against the executable PIM.
fn fig2_steps() -> [(&'static str, ParamSet); 3] {
    [
        (
            "distribution",
            ParamSet::new()
                .with("server_class", ParamValue::from("Bank"))
                .with("node", ParamValue::from("server"))
                .with(
                    "operations",
                    ParamValue::from(vec!["transfer".to_owned(), "getBalance".to_owned()]),
                ),
        ),
        (
            "transactions",
            ParamSet::new()
                .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
                .with("isolation", ParamValue::from("serializable")),
        ),
        (
            "security",
            ParamSet::new()
                .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()])),
        ),
    ]
}

fn full_lifecycle() -> MdaLifecycle {
    let mut mda = MdaLifecycle::new(executable_banking_pim(), fig2_workflow()).unwrap();
    for (name, si) in fig2_steps() {
        let pair = comet_concerns::by_name(name).expect("standard concern");
        mda.apply_concern(&pair, si).unwrap();
    }
    mda
}

/// Recomputes everything `generate` returns for `mda`'s current state
/// and `bodies` from scratch — the functional generator, a full weave
/// over `mda.aspects()`, AspectJ rendering and the backend through a
/// factory with no cache — the oracle every served system must equal,
/// field by field.
fn direct_system(mda: &MdaLifecycle, bodies: &BodyProvider, backend: Backend) -> GeneratedSystem {
    let functional = FunctionalGenerator::new().generate(mda.model(), bodies);
    let aspects = mda.aspects();
    let weave = Weaver::new(aspects.clone()).weave(&functional).expect("weaves");
    let aspectj = AspectJBackend::new();
    let aspect_sources = aspects.iter().map(|a| (a.name.clone(), aspectj.render(a))).collect();
    let concerns: Vec<String> = mda.applied().iter().map(|a| a.cmt.concern().to_owned()).collect();
    let factory = GeneratorFactory::with_standard_backends();
    let input = GenInput { model: mda.model(), woven: &weave.program, concerns: &concerns, bodies };
    let artifact = factory.get(backend).expect("standard backend").generate(&input);
    GeneratedSystem {
        functional_source: pretty_print(&functional).into(),
        aspect_sources,
        weave: Arc::new(weave),
        backend,
        artifact,
    }
}

/// The content-address invariant: the lifecycle's XMI is the export of
/// its model and its hash is FNV-1a over that export.
fn check_content_address(mda: &MdaLifecycle) -> Result<(), TestCaseError> {
    let export = export_model(mda.model());
    prop_assert_eq!(mda.snapshot_xmi(), export.as_str());
    prop_assert_eq!(mda.content_hash(), fnv1a64(export.as_bytes()));
    Ok(())
}

/// Maps a journalled concern back to its fig. 2 binding.
fn fig2_resolver(concern: &str) -> Option<(ConcernPair, ParamSet)> {
    let (name, si) = fig2_steps().into_iter().find(|(name, _)| *name == concern)?;
    Some((comet_concerns::by_name(name)?, si))
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh journal directory per call (parallel tests, one process).
fn journal_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comet-codegen-backends-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    dir
}

#[test]
fn every_backend_renders_the_full_lifecycle_element_set() {
    let mda = full_lifecycle();
    for backend in Backend::ALL {
        let system = mda.generate(&banking_bodies(), backend).unwrap();
        assert_eq!(system.backend, backend);
        for needle in ["Bank", "Account", "transfer", "getBalance"] {
            assert!(
                system.artifact.contains(needle),
                "{backend}: artifact misses functional element `{needle}`"
            );
        }
    }
    // All four backends ran against one lifecycle: four distinct
    // artifacts cached, each a cold miss.
    assert_eq!(mda.gen_cache_stats(), (0, Backend::ALL.len() as u64));
}

#[test]
fn cached_artifacts_match_direct_renders_and_rehit_after_undo() {
    let mda = &mut full_lifecycle();
    let first = mda.generate(&banking_bodies(), Backend::RustSkeleton).unwrap();
    assert_eq!(first, direct_system(mda, &banking_bodies(), Backend::RustSkeleton));
    // Repeat at an unchanged model: a hit, byte-identical.
    let again = mda.generate(&banking_bodies(), Backend::RustSkeleton).unwrap();
    assert_eq!(first, again);
    let (hits, misses) = mda.gen_cache_stats();
    assert_eq!((hits, misses), (1, 1));
    // Undo one concern: different content, different artifact, miss.
    mda.undo_last().unwrap();
    let undone = mda.generate(&banking_bodies(), Backend::RustSkeleton).unwrap();
    assert_ne!(first.artifact, undone.artifact);
    assert_eq!(undone, direct_system(mda, &banking_bodies(), Backend::RustSkeleton));
}

/// An `audit` concern whose aspect logs the `Si` value `msg` on entry
/// to `Bank.transfer`, while its CMT only stereotypes `Bank`: two
/// specialisations leave identical model content but weave different
/// advice.
fn audit_pair() -> ConcernPair {
    let schema = || ParamSchema::new().string("msg", true, None);
    let gmt = TransformationBuilder::new("audit", "audit")
        .schema(schema())
        .body(|model, _| {
            let bank = model.find_class("Bank").expect("the banking PIM has Bank");
            model.apply_stereotype(bank, "Audited")?;
            Ok(())
        })
        .build();
    let ga = AspectBuilder::new("audit-aspect", "audit")
        .schema(schema())
        .advice_fn(|params| {
            let log = Expr::intrinsic(
                intrinsics::LOG_EMIT,
                vec![Expr::str("info"), Expr::str(params.str("msg")?)],
            );
            let pc = parse_pointcut("execution(Bank.transfer)").expect("valid pointcut");
            Ok(vec![Advice::new(AdviceKind::Before, pc, Block::of(vec![Stmt::Expr(log)]))])
        })
        .build();
    ConcernPair::new(gmt, ga)
}

#[test]
fn re_specialised_step_at_unchanged_content_is_rendered_afresh() {
    let workflow = WorkflowModel::new("audit").step("audit", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    let si = |msg: &str| ParamSet::new().with("msg", ParamValue::from(msg));
    let bodies = banking_bodies();
    mda.apply_concern(&audit_pair(), si("ALPHA")).unwrap();
    for backend in Backend::ALL {
        mda.generate(&bodies, backend).unwrap();
    }
    let alpha_content = mda.content_hash();
    mda.undo_last().unwrap();
    mda.apply_concern(&audit_pair(), si("BETA")).unwrap();
    assert_eq!(mda.content_hash(), alpha_content, "`msg` never reaches the model");
    for backend in Backend::ALL {
        let system = mda.generate(&bodies, backend).unwrap();
        assert!(!system.artifact.contains("ALPHA"), "{backend}: served the ALPHA step's artifact");
        assert_eq!(system, direct_system(&mda, &bodies, backend), "{backend}");
    }
}

/// The banking bodies with an audit call added to `Bank.getBalance`:
/// a second provider, so the same model state has two bodies keys.
fn audited_bodies() -> BodyProvider {
    let log = Expr::intrinsic(intrinsics::LOG_EMIT, vec![Expr::str("info"), Expr::str("read")]);
    banking_bodies().provide("Bank::getBalance", Block::of(vec![Stmt::Expr(log)]))
}

/// A generate-cache key as the test names it: the content hash, each
/// applied step with its `Si`, and which bodies were supplied.
type StateKey = (u64, Vec<String>, bool);

/// The generate cache as a least-recently-used list of states, each
/// with the backends rendered at it: predicts `weave_cache_stats()` and
/// `gen_cache_stats()`.
#[derive(Default)]
struct CacheModel {
    states: Vec<(StateKey, Vec<Backend>)>,
    weave: (u64, u64),
    gen: (u64, u64),
}

impl CacheModel {
    fn generate(&mut self, key: StateKey, backend: Backend) {
        let cached = self.states.iter().position(|(k, _)| *k == key);
        let (key, mut backends) = match cached {
            Some(at) => {
                self.weave.0 += 1;
                self.states.remove(at)
            }
            None => {
                self.weave.1 += 1;
                if self.states.len() == MdaLifecycle::CACHED_STATES {
                    self.states.remove(0);
                }
                (key, Vec::new())
            }
        };
        if backends.contains(&backend) {
            self.gen.0 += 1;
        } else {
            self.gen.1 += 1;
            backends.push(backend);
        }
        self.states.push((key, backends));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lying-revision guard, end to end: across arbitrary interleavings
    /// of apply / undo / bodies switch / generate, every system served
    /// (cache hits or cold renders alike) equals, in every field, the
    /// same state generated from scratch with no cache at all, and the
    /// hit/miss counts are those of a least-recently-used cache of
    /// `CACHED_STATES` states. The fig. 2 steps, an `audit` step bound
    /// to one of two `Si` that leave the same content, and two bodies
    /// providers give 12 states, more than the cache holds.
    #[test]
    fn cache_served_artifacts_equal_direct_renders(
        ops in prop::collection::vec(0usize..8, 20..80),
    ) {
        let workflow = fig2_workflow().step("audit", false);
        let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
        let steps = fig2_steps();
        let audit = |msg: &str| ParamSet::new().with("msg", ParamValue::from(msg));
        let mut audited = false;
        let mut model = CacheModel::default();
        for op in ops {
            let applied = mda.applied().len();
            match op {
                // Apply the next planned step, if any remain; the audit
                // step takes its `Si` from the op.
                0 | 1 => {
                    if applied < steps.len() {
                        let (name, si) = &steps[applied];
                        let pair = comet_concerns::by_name(name).expect("standard concern");
                        mda.apply_concern(&pair, si.clone()).unwrap();
                    } else if applied == steps.len() {
                        let si = audit(if op == 0 { "ALPHA" } else { "BETA" });
                        mda.apply_concern(&audit_pair(), si).unwrap();
                    }
                }
                // Undo the most recent application, if any.
                2 => {
                    if applied > 0 {
                        mda.undo_last().unwrap();
                    }
                }
                // Switch to the other bodies provider.
                3 => audited = !audited,
                // Generate with one of the four backends.
                k => {
                    let backend = Backend::ALL[k - 4];
                    let bodies = if audited { audited_bodies() } else { banking_bodies() };
                    let system = mda.generate(&bodies, backend).unwrap();
                    let oracle = direct_system(&mda, &bodies, backend);
                    prop_assert_eq!(&system, &oracle, "{} diverged from oracle", backend);
                    let steps = mda.applied().iter().map(|a| a.cmt.full_name()).collect();
                    model.generate((mda.content_hash(), steps, audited), backend);
                    prop_assert_eq!(mda.weave_cache_stats(), model.weave);
                    prop_assert_eq!(mda.gen_cache_stats(), model.gen);
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The content address never drifts from the model: after every
    /// apply, undo, generate and snapshot read — in memory, journalled,
    /// and across `MdaLifecycle::recover` of the journal — the
    /// lifecycle's XMI is the export of its model and its hash is
    /// FNV-1a over it.
    #[test]
    fn content_address_tracks_the_model(
        durable in any::<bool>(),
        ops in prop::collection::vec(0usize..6, 1..16),
    ) {
        let dir = journal_dir();
        let mut mda = if durable {
            MdaLifecycle::new_durable(executable_banking_pim(), fig2_workflow(), &dir).unwrap()
        } else {
            MdaLifecycle::new(executable_banking_pim(), fig2_workflow()).unwrap()
        };
        check_content_address(&mda)?;
        let steps = fig2_steps();
        for op in ops {
            let applied = mda.applied().len();
            match op {
                0 => {
                    if applied < steps.len() {
                        let (name, si) = &steps[applied];
                        let pair = comet_concerns::by_name(name).expect("standard concern");
                        mda.apply_concern(&pair, si.clone()).unwrap();
                    }
                }
                1 => {
                    if applied > 0 {
                        mda.undo_last().unwrap();
                    }
                }
                2 => {
                    let system = mda.generate(&banking_bodies(), Backend::Report).unwrap();
                    prop_assert_eq!(&system, &direct_system(&mda, &banking_bodies(), Backend::Report));
                }
                3 => {
                    let snapshot = mda.snapshot_xmi().to_owned();
                    prop_assert_eq!(snapshot, export_model(mda.model()));
                }
                // Crash and recover (durable only): the rebuilt
                // lifecycle starts from the journal's head commit.
                _ => {
                    if durable {
                        drop(mda);
                        mda = MdaLifecycle::recover(&dir, fig2_workflow(), fig2_resolver)
                            .unwrap()
                            .0;
                        prop_assert_eq!(mda.applied().len(), applied);
                    }
                }
            }
            check_content_address(&mda)?;
        }
        drop(mda);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("scratch dir removable");
        }
    }
}

#[test]
fn backend_weighted_serve_is_shard_invariant_with_observable_gen_cache() {
    let mut plan = WorkloadPlan::new(7);
    plan.mix.generate = 2.0;
    plan.mix.generate_backends = Backend::ALL.iter().map(|b| (b.id().to_owned(), 1.0)).collect();
    let cfg = RunConfig { traced: true, metrics: true };
    let baseline = run_banking_serve(&plan, 1, None, &cfg).expect("valid plan");
    for shards in [2usize, 4, 8] {
        let other = run_banking_serve(&plan, shards, None, &cfg).expect("valid plan");
        assert_eq!(baseline.report, other.report, "report diverged at {shards} shards");
        assert_eq!(baseline.trace, other.trace, "trace diverged at {shards} shards");
        assert_eq!(baseline.metrics, other.metrics, "metrics diverged at {shards} shards");
    }
    // The gen cache is live on the serve path and observable twice:
    // trace counters and the bridged Prometheus series agree.
    let trace = baseline.trace.as_ref().expect("traced run");
    let hits = trace.counters.get("gen.cache.hit").copied().unwrap_or(0);
    let misses = trace.counters.get("gen.cache.miss").copied().unwrap_or(0);
    assert!(misses > 0, "no generate ever rendered: {:?}", trace.counters);
    assert!(hits > 0, "steady-state generates never hit the gen cache: {:?}", trace.counters);
    let snap = baseline.metrics.as_ref().expect("metrics on");
    let total = |name: &str| -> u64 {
        snap.counters.iter().filter(|(k, _)| k.name == name).map(|(_, &v)| v).sum()
    };
    assert_eq!(total("comet_serve_gen_cache_hits_total"), hits);
    assert_eq!(total("comet_serve_gen_cache_misses_total"), misses);
    let prom = snap.to_prometheus();
    assert!(prom.contains("comet_serve_gen_cache_hits_total{"), "{prom}");
    // Every registered backend's artifact surfaced in some outcome.
    for backend in Backend::ALL {
        assert!(
            trace.spans.iter().any(|s| {
                comet_obs::Trace::attr(&s.attrs, "outcome")
                    .is_some_and(|o| o.starts_with(&format!("generated:{backend}:")))
            }),
            "weighted mix never exercised `{backend}`"
        );
    }
}

#[test]
fn plans_naming_unknown_backends_are_rejected_at_validation() {
    let mut plan = WorkloadPlan::new(7);
    plan.mix.generate_backends = vec![("fortran-punchcards".to_owned(), 1.0)];
    let err = run_banking_serve(&plan, 1, None, &RunConfig::default()).unwrap_err();
    match &err {
        ServeError::Plan(WorkloadPlanError::UnknownBackend(b)) => {
            assert_eq!(b, "fortran-punchcards");
        }
        other => panic!("expected UnknownBackend, got {other}"),
    }
    assert_eq!(
        err.to_string(),
        "workload plan: generate mix names unknown backend `fortran-punchcards`"
    );
}
