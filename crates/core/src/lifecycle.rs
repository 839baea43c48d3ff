//! The MDA lifecycle engine: the paper's Fig. 1 pipeline end to end.

use comet_aop::{Aspect, WeaveError, WeaveResult, Weaver, WovenJoinPoint};
use comet_aspectgen::{AspectBackend, AspectGenError, AspectJBackend, ConcernPair};
use comet_codegen::{
    pretty_print, BodyProvider, FunctionalGenerator, MonolithicGenerator, Program,
};
use comet_gen::{Backend, GenInput, GeneratorFactory};
use comet_middleware::{FaultHook, MiddlewareError};
use comet_model::{Model, ModelDelta, UndoLog};
use comet_obs::{fnv1a64, fnv1a64_extend};
use comet_repo::{ColorReport, Commit, RecoveryReport, RepoError, Repository};
use comet_transform::{ConcreteTransformation, ParamSet, TransformError};
use comet_workflow::{WorkflowBuildError, WorkflowEngine, WorkflowError, WorkflowModel};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Lifecycle failures; each wraps the failing subsystem's error.
#[derive(Debug)]
pub enum LifecycleError {
    /// The workflow forbids the concern at this point.
    Workflow(WorkflowError),
    /// The workflow model itself is malformed (duplicate steps, a
    /// self-constraint, a constraint naming an unplanned concern) —
    /// rejected before an engine is built around it.
    WorkflowModel(WorkflowBuildError),
    /// Specialization of the transformation/aspect pair failed.
    AspectGen(AspectGenError),
    /// Applying the concrete transformation failed (model unchanged).
    Transform(TransformError),
    /// Weaving failed.
    Weave(WeaveError),
    /// Repository failure.
    Repo(RepoError),
    /// Nothing to undo.
    NothingToUndo,
    /// Rebuilding a lifecycle from a durable journal failed: the
    /// journal replayed, but its contents cannot be turned back into a
    /// live lifecycle (no visible commit, an oldest visible commit that
    /// names a concern, or a journalled concern the caller's resolver
    /// does not know).
    Recovery(String),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Workflow(e) => write!(f, "workflow: {e}"),
            LifecycleError::WorkflowModel(e) => write!(f, "workflow model: {e}"),
            LifecycleError::AspectGen(e) => write!(f, "specialization: {e}"),
            LifecycleError::Transform(e) => write!(f, "transformation: {e}"),
            LifecycleError::Weave(e) => write!(f, "weaving: {e}"),
            LifecycleError::Repo(e) => write!(f, "repository: {e}"),
            LifecycleError::NothingToUndo => write!(f, "nothing to undo"),
            LifecycleError::Recovery(detail) => write!(f, "recovery: {detail}"),
        }
    }
}

impl std::error::Error for LifecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LifecycleError::Workflow(e) => Some(e),
            LifecycleError::WorkflowModel(e) => Some(e),
            LifecycleError::AspectGen(e) => Some(e),
            LifecycleError::Transform(e) => Some(e),
            LifecycleError::Weave(e) => Some(e),
            LifecycleError::Repo(e) => Some(e),
            LifecycleError::NothingToUndo | LifecycleError::Recovery(_) => None,
        }
    }
}

impl From<WorkflowError> for LifecycleError {
    fn from(e: WorkflowError) -> Self {
        LifecycleError::Workflow(e)
    }
}

impl From<WorkflowBuildError> for LifecycleError {
    fn from(e: WorkflowBuildError) -> Self {
        LifecycleError::WorkflowModel(e)
    }
}

impl From<AspectGenError> for LifecycleError {
    fn from(e: AspectGenError) -> Self {
        LifecycleError::AspectGen(e)
    }
}

impl From<TransformError> for LifecycleError {
    fn from(e: TransformError) -> Self {
        LifecycleError::Transform(e)
    }
}

impl From<WeaveError> for LifecycleError {
    fn from(e: WeaveError) -> Self {
        LifecycleError::Weave(e)
    }
}

impl From<RepoError> for LifecycleError {
    fn from(e: RepoError) -> Self {
        LifecycleError::Repo(e)
    }
}

/// One applied refinement step: the concrete transformation, the paired
/// concrete aspect, and what the application changed.
#[derive(Debug, Clone)]
pub struct AppliedConcern {
    /// The concrete model transformation (CMT_Ci).
    pub cmt: ConcreteTransformation,
    /// The concrete aspect (CA_Ci), generated from the same `Si`.
    pub aspect: Aspect,
    /// The model delta of the application.
    pub report: ModelDelta,
}

/// Everything the code-generation phase produces. The products of the
/// lifecycle's state are shared with the lifecycle's generate cache,
/// not copied, so a repeated `generate` hands out the same buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSystem {
    /// Pretty-printed functional source (the code generator's artifact).
    pub functional_source: Arc<str>,
    /// Per-aspect platform artifacts `(aspect name, source)`.
    pub aspect_sources: Arc<[(String, String)]>,
    /// The weaver's result: the woven program (aspects applied,
    /// precedence = application order) and every advice application.
    pub weave: Arc<WeaveResult>,
    /// The backend that rendered [`GeneratedSystem::artifact`].
    pub backend: Backend,
    /// The backend's rendered artifact (possibly served from the
    /// content-addressed generation cache — byte-identical either way).
    pub artifact: String,
}

impl GeneratedSystem {
    /// The woven program.
    pub fn woven(&self) -> &Program {
        &self.weave.program
    }

    /// Every advice application the weaver performed.
    pub fn weave_trace(&self) -> &[WovenJoinPoint] {
        &self.weave.trace
    }
}

/// The private bookkeeping of one applied step, parallel to
/// [`AppliedConcern`].
#[derive(Debug)]
struct StepState {
    /// The step's change-journal inverse ops for an in-place undo;
    /// `None` for steps rebuilt by `recover`.
    revert: Option<UndoLog>,
    /// [`steps_fingerprint`] of the steps up to and including this one.
    fingerprint: u64,
}

impl StepState {
    /// The state of step `cmt` applied on top of `below`.
    fn new(revert: Option<UndoLog>, below: &[StepState], cmt: &ConcreteTransformation) -> Self {
        let mut fingerprint = steps_fingerprint(below);
        for part in [cmt.concern(), &cmt.full_name()] {
            fingerprint = fnv1a64_extend(fnv1a64_extend(fingerprint, part.as_bytes()), b"\0");
        }
        StepState { revert, fingerprint }
    }
}

/// FNV-1a over `concern\0full_name\0` of each step in order: the
/// applied steps, each concern with its `Si`, as a cache-key component.
fn steps_fingerprint(steps: &[StepState]) -> u64 {
    steps.last().map_or(fnv1a64(b""), |s| s.fingerprint)
}

/// What `generate` derives from one lifecycle state: a pure function of
/// the model, the applied steps and the method bodies, so it is valid
/// while its key `(content hash, steps fingerprint, bodies fingerprint)`
/// holds. It keeps only what a hit hands out.
#[derive(Debug)]
struct StateProducts {
    functional_source: Arc<str>,
    aspect_sources: Arc<[(String, String)]>,
    weave: Arc<WeaveResult>,
    /// The artifact of every backend rendered at this state.
    artifacts: BTreeMap<Backend, String>,
}

/// A generate-cache key: (content hash, steps fingerprint, bodies
/// fingerprint).
type StateKey = (u64, u64, u64);

/// The generate cache: the products of the last
/// [`MdaLifecycle::CACHED_STATES`] states generated, least recently used
/// first, and the lifetime hit/miss counts. The counts are kept
/// unconditionally (unlike the `Collector` counters, which exist only
/// when tracing is on) so serving hosts can bridge them into metrics.
#[derive(Debug, Default)]
struct GenerateCache {
    states: Vec<(StateKey, StateProducts)>,
    /// `(hits, misses)` of state products: a miss weaves.
    weave: (u64, u64),
    /// `(hits, misses)` of backend artifacts: a miss renders.
    gen: (u64, u64),
}

impl GenerateCache {
    /// Removes and returns `key`'s products, if cached.
    fn take(&mut self, key: StateKey) -> Option<StateProducts> {
        let at = self.states.iter().position(|(k, _)| *k == key)?;
        Some(self.states.remove(at).1)
    }

    /// Stores `products` as the most recently used state, evicting the
    /// least recently used one when the cache is full.
    fn put(&mut self, key: StateKey, products: StateProducts) -> &mut StateProducts {
        if self.states.len() == MdaLifecycle::CACHED_STATES {
            self.states.remove(0);
        }
        self.states.push((key, products));
        &mut self.states.last_mut().expect("just pushed").1
    }
}

/// Adds one hit or one miss to `(hits, misses)`.
fn count(stats: &mut (u64, u64), hit: bool) {
    if hit {
        stats.0 += 1;
    } else {
        stats.1 += 1;
    }
}

/// The MDA lifecycle: model + repository + workflow + applied concerns.
///
/// # Incrementality
///
/// Every CMT application goes through
/// [`ConcreteTransformation::apply_traced`], which evaluates each pre-
/// and postcondition afresh. [`MdaLifecycle::generate`] caches what it
/// builds for a state — functional source, aspect sources, woven
/// result and each backend's artifact — keyed by the model's content
/// hash, the applied steps' fingerprint (each concern with its
/// specialisation `Si`) and the bodies' fingerprint. A `generate` at a
/// cached state is a lookup; a first backend at a cached state renders
/// only its artifact; any other call generates and weaves the whole
/// program with [`Weaver::weave`]. The cache holds the
/// [`MdaLifecycle::CACHED_STATES`] most recently generated states and
/// evicts the least recently used one.
///
/// [`MdaLifecycle::undo_last`] reverts the undone step's change journal
/// in place. The cache is keyed by content, never by a revision
/// counter, so an undo needs no cache reset: a restored state re-hits
/// what was cached for it. Results are byte-identical to a cold weave
/// and render in every case.
///
/// The lifecycle is the repository's only writer, so its model always
/// equals the repository's visible head commit. The cache keys on that
/// commit's hash and [`MdaLifecycle::snapshot_xmi`] returns its bytes,
/// so no read exports the model.
#[derive(Debug)]
pub struct MdaLifecycle {
    model: Model,
    repo: Repository,
    workflow: WorkflowEngine,
    applied: Vec<AppliedConcern>,
    /// Parallel to `applied`.
    steps: Vec<StepState>,
    obs: comet_obs::Collector,
    cache: RefCell<GenerateCache>,
    /// The per-lifecycle backend registry every `generate` dispatches
    /// through — one factory per tenant in the serving stack.
    factory: GeneratorFactory,
}

impl MdaLifecycle {
    /// How many states the generate cache holds. Eight covers the states
    /// the serving workloads revisit (about seven per churning tenant,
    /// two on the large lifecycle) and, with entries that keep no
    /// functional program, stayed within the benchmark's peak-memory
    /// bound where a larger entry at the same bound did not.
    pub const CACHED_STATES: usize = 8;

    /// Starts a lifecycle from a PIM, committing it as the initial
    /// version.
    ///
    /// # Errors
    /// Rejects malformed workflow models and propagates repository
    /// failures.
    pub fn new(pim: Model, workflow: WorkflowModel) -> Result<Self, LifecycleError> {
        let engine = WorkflowEngine::try_new(workflow)?;
        let mut repo = Repository::new(format!("{}-models", pim.name()));
        repo.commit(&pim, "initial PIM", None)?;
        Ok(Self::assemble(pim, repo, engine, Vec::new(), Vec::new()))
    }

    /// Starts a lifecycle whose repository journals every operation to
    /// `dir` (segment store + write-ahead log) before applying it in
    /// memory, committing the PIM as the initial version. A crash at any
    /// point leaves a journal that [`MdaLifecycle::recover`] replays to
    /// the last completed operation.
    ///
    /// # Errors
    /// Fails when the workflow model is malformed, or when `dir`
    /// already holds a journal or cannot be written.
    pub fn new_durable(
        pim: Model,
        workflow: WorkflowModel,
        dir: &Path,
    ) -> Result<Self, LifecycleError> {
        let engine = WorkflowEngine::try_new(workflow)?;
        let mut repo = Repository::create(dir, &format!("{}-models", pim.name()))?;
        repo.commit(&pim, "initial PIM", None)?;
        Ok(Self::assemble(pim, repo, engine, Vec::new(), Vec::new()))
    }

    /// Rebuilds a lifecycle from the durable journal in `dir`:
    ///
    /// 1. the write-ahead log replays into a repository (a torn tail —
    ///    a crash mid-append — is truncated to the last complete
    ///    record, so the repository lands on the last *committed*
    ///    operation);
    /// 2. the current model is restored from the head snapshot;
    /// 3. the workflow and the applied-concern list are rebuilt from
    ///    the visible history: every visible commit that names a
    ///    concern is re-recorded, and `resolve` maps the concern name
    ///    back to its [`ConcernPair`] and specialisation decisions `Si`
    ///    so the concrete aspect can be regenerated (aspect generation
    ///    is a pure function of the pair and `Si`, so the regenerated
    ///    aspects are identical to the pre-crash ones). Undone steps
    ///    were journalled as undos and replay as such, leaving them out
    ///    of the visible history exactly as a live `undo_last` would.
    ///
    /// The weave and generation caches restart cold; cached results are
    /// byte-identical to full recomputation, so post-recovery behaviour
    /// does not diverge.
    ///
    /// # Errors
    /// Fails when the workflow model is malformed, `dir` has no
    /// journal, the journal has no visible commit, its oldest visible
    /// commit names a concern (undoing every step must land on a
    /// concern-free base), or `resolve` does not know a journalled
    /// concern.
    pub fn recover<F>(
        dir: &Path,
        workflow: WorkflowModel,
        resolve: F,
    ) -> Result<(Self, RecoveryReport), LifecycleError>
    where
        F: Fn(&str) -> Option<(ConcernPair, ParamSet)>,
    {
        let mut engine = WorkflowEngine::try_new(workflow)?;
        let (repo, report) = Repository::open(dir)?;
        let model = match repo.head_model() {
            Some(model) => model?,
            None => {
                return Err(LifecycleError::Recovery(
                    "journal has no visible commit to restore".to_owned(),
                ))
            }
        };
        if let Some(base) = repo.log().first().and_then(|c| c.concern.as_deref()) {
            return Err(LifecycleError::Recovery(format!(
                "oldest visible commit names concern `{base}`: no base model to undo to"
            )));
        }
        let mut applied = Vec::new();
        let mut steps: Vec<StepState> = Vec::new();
        let journalled: Vec<(String, ModelDelta)> = repo
            .log()
            .iter()
            .filter_map(|c| c.concern.clone().map(|n| (n, c.delta.clone().unwrap_or_default())))
            .collect();
        for (concern, delta) in journalled {
            let (pair, si) = resolve(&concern).ok_or_else(|| {
                LifecycleError::Recovery(format!(
                    "no resolver entry for journalled concern `{concern}`"
                ))
            })?;
            let (cmt, aspect) = pair.specialize(si)?;
            engine.record(&concern)?;
            steps.push(StepState::new(None, &steps, &cmt));
            applied.push(AppliedConcern { cmt, aspect, report: delta });
        }
        Ok((Self::assemble(model, repo, engine, applied, steps), report))
    }

    /// Builds the lifecycle around `model`, which must equal `repo`'s
    /// visible head commit, with one commit below it per applied step.
    fn assemble(
        model: Model,
        repo: Repository,
        workflow: WorkflowEngine,
        applied: Vec<AppliedConcern>,
        steps: Vec<StepState>,
    ) -> Self {
        MdaLifecycle {
            model,
            repo,
            workflow,
            applied,
            steps,
            obs: comet_obs::Collector::disabled(),
            cache: RefCell::default(),
            factory: GeneratorFactory::with_standard_backends(),
        }
    }

    /// Whether the repository journals to disk
    /// ([`Repository::is_durable`]).
    pub fn is_durable(&self) -> bool {
        self.repo.is_durable()
    }

    /// Lifetime weave-cache `(hits, misses)` across every `generate`: a
    /// hit found the state's products cached, a miss wove them.
    pub fn weave_cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().weave
    }

    /// Lifetime generation-cache `(hits, misses)` across every
    /// `generate`: a hit found the backend's artifact cached for the
    /// state, a miss rendered it.
    pub fn gen_cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().gen
    }

    /// The backend registry this lifecycle generates through.
    pub fn generator_factory(&self) -> &GeneratorFactory {
        &self.factory
    }

    /// WAL durability barriers issued so far; 0 for in-memory repos.
    pub fn wal_fsyncs(&self) -> u64 {
        self.repo.wal_fsyncs()
    }

    /// Attaches a trace collector: every subsequent
    /// [`MdaLifecycle::apply_concern`] records a top-level
    /// `concern:<name>` span (so the span order in the trace *is* the
    /// application order — the paper's precedence rule as a checkable
    /// trace property), with the CMT's own span and model-delta events
    /// nested inside, and [`MdaLifecycle::generate`] records the
    /// codegen and weave phases.
    pub fn set_collector(&mut self, obs: comet_obs::Collector) {
        self.obs = obs;
    }

    /// The attached collector (disabled by default).
    pub fn collector(&self) -> &comet_obs::Collector {
        &self.obs
    }

    /// The current model (PIM refined into an increasingly specific PSM).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The canonical XMI export of [`MdaLifecycle::model`]: the bytes
    /// of the repository head commit the model equals — no export
    /// happens here.
    pub fn snapshot_xmi(&self) -> &str {
        self.head().snapshot_xmi()
    }

    /// FNV-1a over [`MdaLifecycle::snapshot_xmi`]: the model's content
    /// hash, the key the generation cache addresses artifacts by.
    pub fn content_hash(&self) -> u64 {
        self.head().hash
    }

    /// The visible head commit: every constructor commits or finds one,
    /// and `undo_last` never steps below the oldest.
    fn head(&self) -> &Commit {
        self.repository().head().expect("a lifecycle always has a head commit")
    }

    /// The model repository (versions, tags, diffs). It journals every
    /// write when the lifecycle came from [`MdaLifecycle::new_durable`]
    /// or [`MdaLifecycle::recover`]; a clone of it has no journal.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The workflow engine (guidance).
    pub fn workflow(&self) -> &WorkflowEngine {
        &self.workflow
    }

    /// Applied refinement steps, in application order.
    pub fn applied(&self) -> &[AppliedConcern] {
        &self.applied
    }

    /// The concern-oriented refinement step of the paper's Section 2:
    /// checks the workflow, specializes GMT_Ci **and** GA_Ci with one
    /// `Si`, applies the CMT (with pre/postconditions and automatic
    /// coloring), records the step in workflow and repository, and stores
    /// the CA for the code-generation phase.
    ///
    /// The step is **atomic across all three stores** (model,
    /// repository, workflow), staged then committed:
    ///
    /// 1. the workflow records the step up front — its constraint scan
    ///    is the single admission check (no separate `validate_sequence`
    ///    pass), and a violation rejects the step before the model is
    ///    touched;
    /// 2. the CMT applies under a change-journal segment held open
    ///    across the repository commit;
    /// 3. if the transformation *or* the repository fails, the journal
    ///    unwinds the model and the workflow record is compensated —
    ///    nothing observable remains of the step;
    /// 4. only after the repository accepted the new version (committed
    ///    from the journal's delta) is the journal released and the
    ///    step pushed onto `applied`, keeping the journal's inverse ops
    ///    for an in-place [`MdaLifecycle::undo_last`].
    ///
    /// # Errors
    /// Model, repository, and workflow are all unchanged on any error.
    pub fn apply_concern(
        &mut self,
        pair: &ConcernPair,
        si: ParamSet,
    ) -> Result<&AppliedConcern, LifecycleError> {
        let obs = self.obs.clone();
        if !obs.is_enabled() {
            return self.apply_concern_inner(pair, si, &obs);
        }
        let span = obs.begin_span("lifecycle", &format!("concern:{}", pair.concern()), 0);
        obs.span_attr(span, "concern", pair.concern());
        let result = self.apply_concern_inner(pair, si, &obs);
        match &result {
            Ok(step) => {
                obs.span_attr(span, "cmt", &step.cmt.full_name());
                obs.span_attr(span, "si", &step.cmt.params().angle_signature());
                obs.span_attr(span, "outcome", "ok");
            }
            Err(e) => obs.span_attr(span, "outcome", &format!("error: {e}")),
        }
        obs.end_span(span, 0);
        result
    }

    fn apply_concern_inner(
        &mut self,
        pair: &ConcernPair,
        si: ParamSet,
        obs: &comet_obs::Collector,
    ) -> Result<&AppliedConcern, LifecycleError> {
        let (cmt, aspect) = pair.specialize(si)?;
        self.workflow.record(pair.concern())?;
        self.model.begin_journal();
        let report = match cmt.apply_traced(&mut self.model, obs) {
            Ok(report) => report,
            Err(e) => {
                self.model.rollback_journal();
                self.workflow.unrecord(pair.concern());
                return Err(e.into());
            }
        };
        if let Err(e) = self.repo.commit_with_delta(
            &self.model,
            &cmt.full_name(),
            Some(pair.concern()),
            report.clone(),
        ) {
            self.model.rollback_journal();
            self.workflow.unrecord(pair.concern());
            return Err(e.into());
        }
        let (_, log) = self.model.commit_journal().expect("the step's segment is open");
        self.steps.push(StepState::new(log, &self.steps, &cmt));
        self.applied.push(AppliedConcern { cmt, aspect, report });
        Ok(self.applied.last().expect("just pushed"))
    }

    /// Undoes the most recent refinement step: repository undo, workflow
    /// rewind, aspect removal.
    ///
    /// The model steps back in place: the step's change journal is
    /// reverted in O(delta) ([`Model::revert`]) while the repository
    /// head steps back without decoding anything. A step rebuilt by
    /// [`MdaLifecycle::recover`] has no inverse ops; its undo decodes
    /// the snapshot the head lands on, as a full model import. Either
    /// way the head lands on a commit: every applied step sits above
    /// the concern-free base commit.
    ///
    /// The repository steps back first (its head stays put if the step
    /// fails), and only then are model, workflow, and the `applied`
    /// record changed — so a failed undo never loses the step it could
    /// not undo, nor the inverse ops a retry reverts with.
    ///
    /// # Errors
    /// Fails when nothing was applied or the repository step fails (on
    /// the decode path also when the landing snapshot is corrupt); the
    /// lifecycle state is unchanged on every error.
    pub fn undo_last(&mut self) -> Result<(), LifecycleError> {
        let Some(last) = self.applied.last() else {
            return Err(LifecycleError::NothingToUndo);
        };
        // Both repository steps are atomic — the head position does not
        // move on error — so nothing needs compensating here.
        let decoded = if self.steps.last().is_some_and(|s| s.revert.is_some()) {
            self.repo.undo_head().ok_or(LifecycleError::NothingToUndo)??;
            None
        } else {
            Some(self.repo.undo().ok_or(LifecycleError::NothingToUndo)??)
        };
        // Commit point: everything fallible is done. Workflow
        // constraints only look at which concerns are applied, so the
        // remaining prefix of a recorded sequence stays valid.
        self.workflow.unrecord(last.cmt.concern());
        self.applied.pop();
        let log = self.steps.pop().and_then(|s| s.revert);
        match decoded {
            Some(model) => self.model = model,
            None => self.model.revert(log.expect("chosen to revert above")),
        }
        Ok(())
    }

    /// The concrete aspects in precedence order (= application order).
    pub fn aspects(&self) -> Vec<Aspect> {
        self.applied.iter().map(|a| a.aspect.clone()).collect()
    }

    /// The paper's code-generation phase: functional code generator for
    /// the functional model **plus** aspect generators for the concerns,
    /// then weaving with precedence = transformation order, then the
    /// chosen `backend` rendering its artifact.
    ///
    /// Everything is cached per state (same content, same steps, same
    /// bodies): a repeat is a lookup whose results are byte-identical to
    /// a cold call, and a traced repeat still records the cold call's
    /// spans. Hits and misses surface as `weave.incremental.*` and
    /// `gen.cache.hit|miss` trace counters and through
    /// [`MdaLifecycle::weave_cache_stats`] and
    /// [`MdaLifecycle::gen_cache_stats`].
    ///
    /// # Errors
    /// Propagates weaving failures.
    pub fn generate(
        &self,
        bodies: &BodyProvider,
        backend: Backend,
    ) -> Result<GeneratedSystem, LifecycleError> {
        let obs = &self.obs;
        let phase = obs.begin_span("lifecycle", "generate", 0);
        let key = (self.content_hash(), steps_fingerprint(&self.steps), bodies.fingerprint());
        let mut cache = self.cache.borrow_mut();
        let cached = cache.take(key);
        let weave_hit = cached.is_some();
        let products = match cached {
            Some(products) => {
                self.trace_hit(&products);
                products
            }
            None => match self.build_products(bodies) {
                Ok(products) => products,
                Err(e) => {
                    if obs.is_enabled() {
                        obs.span_attr(phase, "outcome", &format!("error: {e}"));
                    }
                    obs.end_span(phase, 0);
                    return Err(e.into());
                }
            },
        };
        let products = cache.put(key, products);
        let mut rendered = false;
        let artifact = products
            .artifacts
            .entry(backend)
            .or_insert_with(|| {
                rendered = true;
                let concerns: Vec<String> =
                    self.applied.iter().map(|a| a.cmt.concern().to_owned()).collect();
                let input = GenInput {
                    model: &self.model,
                    woven: &products.weave.program,
                    concerns: &concerns,
                    bodies,
                };
                let generator = self
                    .factory
                    .get(backend)
                    .expect("standard factory registers every Backend variant");
                generator.generate(&input)
            })
            .clone();
        let system = GeneratedSystem {
            functional_source: Arc::clone(&products.functional_source),
            aspect_sources: Arc::clone(&products.aspect_sources),
            weave: Arc::clone(&products.weave),
            backend,
            artifact,
        };
        count(&mut cache.weave, weave_hit);
        count(&mut cache.gen, !rendered);
        if obs.is_enabled() {
            // A hit re-weaves no class, a miss all of them.
            let total = system.woven().classes.len() as u64;
            let (counter, rewoven) = if weave_hit {
                ("weave.incremental.hit", 0)
            } else {
                ("weave.incremental.miss", total)
            };
            obs.incr(counter, 1);
            obs.incr("weave.incremental.rewoven", rewoven);
            obs.incr("weave.incremental.total", total);
            obs.incr(if rendered { "gen.cache.miss" } else { "gen.cache.hit" }, 1);
        }
        obs.end_span(phase, 0);
        Ok(system)
    }

    /// Generates and weaves the current state's products in full,
    /// recording each phase when tracing is on.
    fn build_products(&self, bodies: &BodyProvider) -> Result<StateProducts, WeaveError> {
        let obs = &self.obs;
        let fspan = obs.begin_span("codegen", "functional", 0);
        let functional = FunctionalGenerator::new().generate(&self.model, bodies);
        if obs.is_enabled() {
            obs.span_attr(fspan, "classes", &functional.classes.len().to_string());
        }
        obs.end_span(fspan, 0);
        let weaver = Weaver::new(self.aspects());
        let weave = weaver.weave(&functional)?;
        weaver.record_trace(&weave, obs);
        let rspan = obs.begin_span("codegen", "render:aspects", 0);
        let aspectj = AspectJBackend::new();
        let aspect_sources: Arc<[(String, String)]> = self
            .applied
            .iter()
            .map(|a| (a.aspect.name.clone(), aspectj.render(&a.aspect)))
            .collect();
        if obs.is_enabled() {
            obs.span_attr(rspan, "aspects", &aspect_sources.len().to_string());
        }
        obs.end_span(rspan, 0);
        Ok(StateProducts {
            functional_source: pretty_print(&functional).into(),
            aspect_sources,
            weave: Arc::new(weave),
            artifacts: BTreeMap::new(),
        })
    }

    /// Records the spans of a cold call for cached `products`, so a
    /// traced hit traces like the call that built them.
    fn trace_hit(&self, products: &StateProducts) {
        let obs = &self.obs;
        if !obs.is_enabled() {
            return;
        }
        // Weaving keeps one class per functional class.
        let classes = products.weave.program.classes.len();
        let fspan = obs.begin_span("codegen", "functional", 0);
        obs.span_attr(fspan, "classes", &classes.to_string());
        obs.end_span(fspan, 0);
        Weaver::new(self.aspects()).record_trace(&products.weave, obs);
        let rspan = obs.begin_span("codegen", "render:aspects", 0);
        obs.span_attr(rspan, "aspects", &products.aspect_sources.len().to_string());
        obs.end_span(rspan, 0);
    }

    /// The baseline the paper argues against: one monolithic generator
    /// consuming the most-specialized PSM, concern code inlined.
    pub fn generate_monolithic(&self, bodies: &BodyProvider) -> Program {
        MonolithicGenerator::new().generate(&self.model, bodies)
    }

    /// The per-concern "colors" report for the current model.
    pub fn colors(&self) -> ColorReport {
        ColorReport::for_model(&self.model)
    }

    /// Remaining planned concerns (workflow guidance).
    pub fn remaining_concerns(&self) -> Vec<&str> {
        self.workflow.remaining()
    }
}

/// The repository's one-shot fault points (`repo.commit`, `repo.undo`,
/// and a journalled repository's compensation append), so tests fail the
/// lifecycle's next write without a handle on its repository.
impl FaultHook for MdaLifecycle {
    fn fault_points(&self) -> Vec<&'static str> {
        self.repository().fault_points()
    }

    fn arm_fault(&mut self, point: &str) -> Result<(), MiddlewareError> {
        self.repo.arm_fault(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_concerns::{distribution, security, transactions};
    use comet_model::sample::banking_pim;
    use comet_transform::ParamValue;
    use comet_workflow::WorkflowModel;

    fn fig2_workflow() -> WorkflowModel {
        WorkflowModel::new("fig2")
            .step("distribution", false)
            .step("transactions", false)
            .step("security", false)
    }

    fn dist_si() -> ParamSet {
        ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with("operations", ParamValue::from(vec!["transfer".to_owned()]))
    }

    fn tx_si() -> ParamSet {
        ParamSet::new().with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
    }

    fn sec_si() -> ParamSet {
        ParamSet::new().with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]))
    }

    fn full_lifecycle() -> MdaLifecycle {
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        mda.apply_concern(&security::pair(), sec_si()).unwrap();
        mda
    }

    #[test]
    fn three_concern_pipeline_runs() {
        let mda = full_lifecycle();
        assert_eq!(mda.applied().len(), 3);
        assert!(mda.workflow().is_complete());
        assert!(mda.remaining_concerns().is_empty());
        // Repository: initial + three commits.
        assert_eq!(mda.repository().log().len(), 4);
        // Colors: distribution created elements; tx/sec only modified.
        let colors = mda.colors();
        assert!(colors.count("distribution") > 0);
        assert_eq!(colors.covered(), vec!["distribution"], "only creating concerns show as colors");
    }

    #[test]
    fn aspect_precedence_follows_application_order() {
        let mda = full_lifecycle();
        let names: Vec<String> = mda.aspects().iter().map(|a| a.name.clone()).collect();
        assert!(names[0].starts_with("distribution-aspect<"));
        assert!(names[1].starts_with("transactions-aspect<"));
        assert!(names[2].starts_with("security-aspect<"));
    }

    #[test]
    fn generate_weaves_all_aspects() {
        let mda = full_lifecycle();
        let system = mda.generate(&BodyProvider::default(), Backend::JavaFunctional).unwrap();
        assert_eq!(system.aspect_sources.len(), 3);
        assert!(system.functional_source.contains("class Bank"));
        // transfer was advised by all three concerns.
        let advising: Vec<&str> = system
            .weave_trace()
            .iter()
            .filter(|jp| jp.method == "transfer")
            .map(|jp| jp.aspect.as_str())
            .collect();
        assert_eq!(advising.len(), 3);
        assert!(comet_codegen::check_program(system.woven()).is_empty());
    }

    #[test]
    fn trace_concern_spans_follow_application_order() {
        let obs = comet_obs::Collector::enabled();
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        mda.set_collector(obs.clone());
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        mda.apply_concern(&security::pair(), sec_si()).unwrap();
        mda.generate(&BodyProvider::default(), Backend::JavaFunctional).unwrap();
        let trace = obs.take();
        // §3: CMT application order = aspect precedence. In the trace
        // that is the top-level span order.
        let roots: Vec<&str> = trace.roots().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            roots,
            ["concern:distribution", "concern:transactions", "concern:security", "generate"]
        );
        for root in trace.roots().into_iter().filter(|s| s.name.starts_with("concern:")) {
            let kids = trace.children(root.id);
            assert!(
                kids.iter().any(|c| c.cat == "transform"),
                "concern span {} nests its CMT application",
                root.name
            );
            assert_eq!(comet_obs::Trace::attr(&root.attrs, "outcome"), Some("ok"));
        }
        // The generate phase nests codegen and the weave pass.
        let generate = trace.roots().into_iter().find(|s| s.name == "generate").unwrap();
        let cats: Vec<&str> = trace.children(generate.id).iter().map(|s| s.cat.as_str()).collect();
        assert_eq!(cats, ["codegen", "weave", "codegen"]);
    }

    /// A span's subtree as `(depth, cat, name, attrs)` rows in open
    /// order, each span's events (`cat`, `name`, attrs) following it.
    fn subtree(trace: &comet_obs::Trace, root: &comet_obs::Span) -> Vec<String> {
        fn walk(
            trace: &comet_obs::Trace,
            span: &comet_obs::Span,
            depth: usize,
            out: &mut Vec<String>,
        ) {
            out.push(format!("{depth} span {}/{} {:?}", span.cat, span.name, span.attrs));
            for e in trace.events_of(span.id) {
                out.push(format!("{depth} event {}/{} {:?}", e.cat, e.name, e.attrs));
            }
            for child in trace.children(span.id) {
                walk(trace, child, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(trace, root, 0, &mut out);
        out
    }

    #[test]
    fn repeated_generate_hits_the_weave_cache_byte_identically() {
        let obs = comet_obs::Collector::enabled();
        let mut mda = full_lifecycle();
        mda.set_collector(obs.clone());
        let bodies = BodyProvider::default();
        let first = mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        let second = mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        assert_eq!(first.woven(), second.woven());
        assert_eq!(first.weave_trace(), second.weave_trace());
        let trace = obs.take();
        assert_eq!(trace.counters.get("weave.incremental.miss"), Some(&1));
        assert_eq!(trace.counters.get("weave.incremental.hit"), Some(&1));
        // The hit re-wove nothing; only the first (cold) weave worked.
        let total = trace.counters["weave.incremental.total"];
        assert_eq!(trace.counters["weave.incremental.rewoven"], total / 2);
        // The hit records the cold call's span tree: same spans, attrs,
        // events and order.
        let roots = trace.roots();
        let generates: Vec<_> = roots.iter().filter(|s| s.name == "generate").collect();
        assert_eq!(generates.len(), 2);
        let cold = subtree(&trace, generates[0]);
        assert!(cold.iter().any(|row| row.contains("weave.advice")), "{cold:#?}");
        assert_eq!(cold, subtree(&trace, generates[1]));
    }

    #[test]
    fn other_bodies_at_an_unchanged_state_are_not_served_the_memo() {
        use comet_codegen::{Block, Expr, Stmt};
        let mda = full_lifecycle();
        let plain = BodyProvider::default();
        let audited = BodyProvider::new().provide(
            "Bank::transfer",
            Block::of(vec![Stmt::Expr(Expr::intrinsic("audit.log", vec![Expr::str("transfer")]))]),
        );
        let first = mda.generate(&plain, Backend::JavaFunctional).unwrap();
        let other = mda.generate(&audited, Backend::JavaFunctional).unwrap();
        let expected = FunctionalGenerator::new().generate(mda.model(), &audited);
        assert_eq!(
            *other.functional_source,
            pretty_print(&expected),
            "the products of other bodies were served"
        );
        assert_ne!(first.functional_source, other.functional_source);
        assert_ne!(first.artifact, other.artifact);
        assert_eq!(*other.weave, Weaver::new(mda.aspects()).weave(&expected).unwrap());
        // Back to the first bodies: the same state again, same bytes.
        assert_eq!(mda.generate(&plain, Backend::JavaFunctional).unwrap(), first);
    }

    #[test]
    fn other_bodies_at_an_unchanged_state_reweave_in_full_traced() {
        use comet_codegen::{Block, Expr, Stmt};
        let plain = BodyProvider::default();
        let audited = BodyProvider::new().provide(
            "Bank::transfer",
            Block::of(vec![Stmt::Expr(Expr::intrinsic("audit.log", vec![Expr::str("transfer")]))]),
        );
        // One generate's counters and span tree on a traced lifecycle.
        let traced = |mda: &MdaLifecycle, bodies: &BodyProvider| {
            mda.generate(bodies, Backend::JavaFunctional).unwrap();
            let trace = mda.collector().take();
            let generate = trace.roots().into_iter().find(|s| s.name == "generate").unwrap();
            let tree = subtree(&trace, generate);
            (trace.counters, tree)
        };
        let mut mda = full_lifecycle();
        mda.set_collector(comet_obs::Collector::enabled());
        // A, B, A: each bodies fingerprint is its own state, so A and B
        // miss and re-weave in full, and the return to A is a hit.
        for (bodies, hit) in [(&plain, false), (&audited, false), (&plain, true)] {
            let (counters, tree) = traced(&mda, bodies);
            let (outcome, rewoven) = if hit { ("hit", 0) } else { ("miss", 1) };
            assert_eq!(counters.get(&format!("weave.incremental.{outcome}")), Some(&1));
            assert_eq!(counters.get(&format!("gen.cache.{outcome}")), Some(&1));
            let total = counters["weave.incremental.total"];
            assert!(total > 0);
            assert_eq!(counters["weave.incremental.rewoven"], total * rewoven);
            let mut fresh = full_lifecycle();
            fresh.set_collector(comet_obs::Collector::enabled());
            let (_, cold) = traced(&fresh, bodies);
            assert_eq!(tree, cold, "traces unlike a fresh lifecycle's cold generate");
        }
        assert_eq!(mda.weave_cache_stats(), (1, 2));
        assert_eq!(mda.gen_cache_stats(), (1, 2));
    }

    #[test]
    fn repeated_generate_hits_the_gen_cache_byte_identically() {
        let obs = comet_obs::Collector::enabled();
        let mut mda = full_lifecycle();
        mda.set_collector(obs.clone());
        let bodies = BodyProvider::default();
        let first = mda.generate(&bodies, Backend::RustSkeleton).unwrap();
        let second = mda.generate(&bodies, Backend::RustSkeleton).unwrap();
        assert_eq!(first.artifact, second.artifact, "hit must be byte-identical to cold render");
        assert_eq!(second.backend, Backend::RustSkeleton);
        assert_eq!(mda.gen_cache_stats(), (1, 1));
        let trace = obs.take();
        assert_eq!(trace.counters.get("gen.cache.miss"), Some(&1));
        assert_eq!(trace.counters.get("gen.cache.hit"), Some(&1));
        // A different backend at the same revision is its own entry.
        mda.generate(&bodies, Backend::Report).unwrap();
        assert_eq!(mda.gen_cache_stats(), (1, 2));
        assert_eq!(mda.generator_factory().len(), Backend::ALL.len());
    }

    #[test]
    fn undo_then_generate_re_hits_content_addressed_artifacts() {
        let bodies = BodyProvider::default();
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        let before = mda.generate(&bodies, Backend::JavaFunctional).unwrap().artifact;
        mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        mda.undo_last().unwrap();
        // The restored snapshot has the original content, so the entry
        // rendered before the undone step re-hits — byte-identically —
        // even though the revision counter restarted.
        let after = mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        assert_eq!(after.artifact, before);
        assert_eq!(mda.gen_cache_stats(), (1, 2));
    }

    #[test]
    fn incremental_generate_stays_equal_across_apply_and_undo() {
        // Drive the cache through its invalidation paths and check the
        // result against a fresh full weave every time.
        let bodies = BodyProvider::default();
        let oracle = |mda: &MdaLifecycle| {
            let functional = FunctionalGenerator::new().generate(mda.model(), &bodies);
            Weaver::new(mda.aspects()).weave(&functional).unwrap().program
        };
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap().woven(), &oracle(&mda));
        mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap().woven(), &oracle(&mda));
        mda.undo_last().unwrap();
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap().woven(), &oracle(&mda));
        mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        mda.apply_concern(&security::pair(), sec_si()).unwrap();
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap().woven(), &oracle(&mda));
        // And a repeat at an unchanged model is still the same bytes.
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap().woven(), &oracle(&mda));
    }

    #[test]
    fn the_memo_is_keyed_by_state_not_by_history() {
        let bodies = BodyProvider::default();
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        let first = mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        // A rolled-back apply leaves the state, and so its cache entry, as is.
        let bad_si =
            ParamSet::new().with("methods", ParamValue::from(vec!["Bank.launder".to_owned()]));
        assert!(mda.apply_concern(&transactions::pair(), bad_si).is_err());
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap(), first);
        assert_eq!(mda.weave_cache_stats(), (1, 1));
        // Undo and re-apply the same step with no generate between: the
        // cached state again.
        mda.undo_last().unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        assert_eq!(mda.generate(&bodies, Backend::JavaFunctional).unwrap(), first);
        assert_eq!(mda.weave_cache_stats(), (2, 1));
    }

    #[test]
    fn workflow_violation_rejected_and_model_untouched() {
        let workflow =
            WorkflowModel::new("w").step("distribution", false).step("security", false).constraint(
                comet_workflow::OrderConstraint::Before("distribution".into(), "security".into()),
            );
        let mut mda = MdaLifecycle::new(banking_pim(), workflow).unwrap();
        let before = mda.model().clone();
        let err = mda.apply_concern(&security::pair(), sec_si()).unwrap_err();
        assert!(matches!(err, LifecycleError::Workflow(_)));
        assert_eq!(mda.model(), &before);
        assert_eq!(mda.applied().len(), 0);
    }

    #[test]
    fn failed_transformation_leaves_no_trace() {
        let mut mda = MdaLifecycle::new(banking_pim(), fig2_workflow()).unwrap();
        let bad_si =
            ParamSet::new().with("methods", ParamValue::from(vec!["Bank.launder".to_owned()]));
        let before = mda.model().clone();
        assert!(mda.apply_concern(&transactions::pair(), bad_si).is_err());
        assert_eq!(mda.model(), &before);
        assert_eq!(mda.repository().log().len(), 1);
        assert!(mda.workflow().applied().is_empty());
    }

    #[test]
    fn undo_last_restores_everything() {
        let mut mda = full_lifecycle();
        mda.undo_last().unwrap();
        assert_eq!(mda.applied().len(), 2);
        assert_eq!(mda.aspects().len(), 2);
        assert_eq!(mda.workflow().applied().len(), 2);
        // Security marks are gone from the model.
        let bank = mda.model().find_class("Bank").unwrap();
        let transfer = mda.model().find_operation(bank, "transfer").unwrap();
        assert!(!mda.model().has_stereotype(transfer, "Secured").unwrap());
        assert!(mda.model().has_stereotype(transfer, "Transactional").unwrap());
        // Undo everything.
        mda.undo_last().unwrap();
        mda.undo_last().unwrap();
        assert!(matches!(mda.undo_last(), Err(LifecycleError::NothingToUndo)));
        assert_eq!(mda.model(), &banking_pim());
    }

    #[test]
    fn error_sources_chain_instead_of_flattening() {
        use std::error::Error;
        let err = LifecycleError::Transform(TransformError::PreconditionFailed {
            transformation: "AddTx".into(),
            condition: "self.isTransactional = false".into(),
        });
        // Display stays the flattened human line...
        assert!(err.to_string().starts_with("transformation: "));
        // ...but source() walks the typed chain.
        let inner = err.source().expect("Transform wraps a source");
        assert!(inner.is::<TransformError>());
        let inner = inner.downcast_ref::<TransformError>().unwrap();
        assert!(matches!(inner, TransformError::PreconditionFailed { .. }));
        assert!(LifecycleError::NothingToUndo.source().is_none());
    }

    #[test]
    fn monolithic_baseline_differs_structurally() {
        let mda = full_lifecycle();
        let bodies = BodyProvider::default();
        let mono = mda.generate_monolithic(&bodies);
        let system = mda.generate(&bodies, Backend::JavaFunctional).unwrap();
        assert_ne!(&mono, system.woven());
        // Both contain transactional machinery for Bank.transfer.
        let mono_src = pretty_print(&mono);
        let woven_src = pretty_print(system.woven());
        assert!(mono_src.contains("tx.begin"));
        assert!(woven_src.contains("tx.begin"));
    }
}
