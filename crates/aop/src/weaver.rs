//! The weaver: applies aspects to a program at the IR level.
//!
//! ## Weaving scheme (execution join points)
//!
//! For every method selected by at least one advice, the weaver reifies
//! the original body as a helper `name__functional` (the same move
//! AspectJ's compiler makes for `proceed`), then builds one layer per
//! matching aspect, **innermost = last aspect, outermost = first
//! aspect** — precedence follows the aspect list order, which the MDA
//! lifecycle derives from the order of the concrete model
//! transformations (the paper's precedence rule).
//!
//! Each layer is a helper method; the public method keeps its signature
//! and annotations and simply delegates to the outermost layer, so
//! callers are oblivious to weaving.
//!
//! ## Call join points
//!
//! `call(...)` pointcuts advise statement-position calls
//! (`x.m(...);`, `local r = x.m(...);`, `v = x.m(...);`) with `before`
//! and `after` advice. Calls to weaver-generated helpers (names
//! containing `__`) are never advised, so woven code is not re-advised.
//!
//! ## One mechanism: the per-class unit
//!
//! [`Weaver::weave`] runs `weave_classes`: per class, it builds the
//! class's pointcut-match tables (see `index.rs`, also for the
//! critical-pair argument that classes are independent units of work)
//! and weaves the class against them, cloning it once. The trace is
//! assembled phase-by-phase in class order, so output and trace are
//! byte-identical to the sequential reference implementation
//! [`Weaver::weave_naive`], which is retained as the differential
//! oracle for the property tests and as the "before" benchmark
//! baseline. The worker thread count follows the ambient rayon pool:
//! wrap the call in `ThreadPool::install` (as `comet-cli --threads`
//! does) to pin it.
//!
//! The weave itself records nothing. [`Weaver::record_trace`] derives
//! the weave's spans and events from a finished [`WeaveResult`], so a
//! caller that reuses a result traces it exactly as a fresh weave.

use crate::advice::{Advice, AdviceKind, Aspect};
use crate::index::{call_advice_candidates, index_class, MethodMatches};
use comet_codegen::marks::intrinsics::{CFLOW_ACTIVE, CFLOW_ENTER, CFLOW_EXIT};
use comet_codegen::{Block, ClassDecl, Expr, IrType, IrUnOp, LValue, MethodDecl, Program, Stmt};
use rayon::prelude::*;
use std::fmt;

/// Weaving failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeaveError {
    /// A `call(...)` pointcut was combined with an advice kind that is
    /// not supported at call shadows.
    UnsupportedCallAdvice {
        /// The offending aspect.
        aspect: String,
        /// The advice kind.
        kind: String,
    },
    /// A `cflow(...)` designator appeared in a position the weaver cannot
    /// residue-compile (under `!` or `||`, or nested in another cflow).
    UnsupportedCflow {
        /// The offending aspect.
        aspect: String,
        /// What exactly was wrong.
        detail: String,
    },
}

impl fmt::Display for WeaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeaveError::UnsupportedCallAdvice { aspect, kind } => write!(
                f,
                "aspect `{aspect}`: `{kind}` advice is not supported at call join points \
                 (only before/after)"
            ),
            WeaveError::UnsupportedCflow { aspect, detail } => {
                write!(f, "aspect `{aspect}`: unsupported cflow position: {detail}")
            }
        }
    }
}

impl std::error::Error for WeaveError {}

/// Where a woven join point lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shadow {
    /// Execution of `class.method`.
    Execution,
    /// A call inside `class.method`.
    Call {
        /// The callee method name.
        callee: String,
    },
}

/// Trace record: one advice applied at one join-point shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WovenJoinPoint {
    /// Declaring class of the shadow.
    pub class: String,
    /// Method containing (execution: being) the shadow.
    pub method: String,
    /// Aspect that contributed the advice.
    pub aspect: String,
    /// Advice kind.
    pub kind: AdviceKind,
    /// Shadow kind.
    pub shadow: Shadow,
}

/// Class count below which the per-class parallel weave is not worth
/// its dispatch overhead (the BENCH_weaver thread sweep shows the
/// 2-thread run *losing* to 1 thread on small inputs).
pub const PARALLEL_MIN_CLASSES: usize = 8;

/// Result of weaving: the transformed program plus the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WeaveResult {
    /// The woven program.
    pub program: Program,
    /// One record per advice application.
    pub trace: Vec<WovenJoinPoint>,
}

/// The weaver: an ordered list of aspects (order = precedence, earlier =
/// outer).
#[derive(Debug, Clone, Default)]
pub struct Weaver {
    aspects: Vec<Aspect>,
}

impl Weaver {
    /// Creates a weaver over the given aspects (earlier = outer).
    pub fn new(aspects: Vec<Aspect>) -> Self {
        Weaver { aspects }
    }

    /// The aspects, in precedence order.
    pub fn aspects(&self) -> &[Aspect] {
        &self.aspects
    }

    /// Weaves all aspects into a copy of `program` by running the
    /// per-class unit over every class (see module docs).
    ///
    /// # Errors
    /// Returns [`WeaveError`] when an aspect combines a `call(...)`
    /// pointcut with an unsupported advice kind, or places `cflow` in a
    /// position the weaver cannot residue-compile.
    pub fn weave(&self, program: &Program) -> Result<WeaveResult, WeaveError> {
        let instrumentation = self.validate_and_instrument()?;
        let aspects = effective_aspects(&self.aspects, instrumentation.as_ref());
        // Reassemble in class order with the naive weaver's global phase
        // order: all call records first, then all execution records.
        let mut out = Program::new(program.name.clone());
        let mut trace = Vec::new();
        let mut exec_traces = Vec::with_capacity(program.classes.len());
        for woven in weave_classes(&aspects, program) {
            out.classes.push(woven.woven);
            trace.extend(woven.calls);
            exec_traces.push(woven.execs);
        }
        trace.extend(exec_traces.into_iter().flatten());
        Ok(WeaveResult { program: out, trace })
    }

    /// Records the spans and events of a finished weave on `obs`: one
    /// `weave` pass span, one `class:<name>` child span per advised
    /// class, one `weave.advice` event per join point — the code-level
    /// link of the provenance chain. Derived from `result` alone, never
    /// from the path that produced it, so a reused result traces
    /// byte-identically to a fresh weave at any thread count. Records
    /// nothing when `obs` is disabled.
    pub fn record_trace(&self, result: &WeaveResult, obs: &comet_obs::Collector) {
        if !obs.is_enabled() {
            return;
        }
        let pass = obs.begin_span("weave", "weave", 0);
        obs.span_attr(pass, "aspects", &self.aspects.len().to_string());
        obs.span_attr(pass, "joinpoints", &result.trace.len().to_string());
        for class in &result.program.classes {
            let records: Vec<&WovenJoinPoint> =
                result.trace.iter().filter(|r| r.class == class.name).collect();
            if records.is_empty() {
                continue;
            }
            let span = obs.begin_span("weave", &format!("class:{}", class.name), 0);
            for r in records {
                let shadow = match &r.shadow {
                    Shadow::Execution => format!("execution({}.{})", r.class, r.method),
                    Shadow::Call { callee } => format!("call({callee})"),
                };
                obs.event(
                    "weave",
                    "weave.advice",
                    0,
                    vec![
                        ("aspect".to_owned(), r.aspect.clone()),
                        ("advice".to_owned(), r.kind.to_string()),
                        ("shadow".to_owned(), shadow),
                        ("class".to_owned(), r.class.clone()),
                        ("method".to_owned(), r.method.clone()),
                    ],
                );
            }
            obs.end_span(span, 0);
        }
        obs.end_span(pass, 0);
    }

    /// The sequential reference weaver: re-evaluates every pointcut at
    /// every shadow and clones the whole program up front.
    ///
    /// Kept deliberately: it is the differential oracle for
    /// [`Weaver::weave`] (the property suite asserts byte-identical
    /// output) and the "before" baseline in `e10_weaver` /
    /// `BENCH_weaver.json`. Not deprecated, but new code should call
    /// [`Weaver::weave`].
    ///
    /// # Errors
    /// Same conditions as [`Weaver::weave`].
    pub fn weave_naive(&self, program: &Program) -> Result<WeaveResult, WeaveError> {
        let instrumentation = self.validate_and_instrument()?;
        let aspects = effective_aspects(&self.aspects, instrumentation.as_ref());
        let mut woven = program.clone();
        let mut trace = Vec::new();
        // Calls first: execution weaving moves functional bodies into
        // `__`-suffixed helpers, which the call pass (correctly) skips as
        // containers, so call shadows must be found before that move.
        naive_weave_calls(&aspects, &mut woven, &mut trace);
        naive_weave_executions(&aspects, &mut woven, &mut trace);
        Ok(WeaveResult { program: woven, trace })
    }

    /// Validates advice kinds at call shadows and cflow positions, and
    /// synthesizes the cflow counter-instrumentation aspect when any
    /// `cflow(...)` conjunct is present (the AspectJ strategy:
    /// enter/exit counters around the cflow-defining join points, an
    /// `active` check guarding the advice bodies).
    fn validate_and_instrument(&self) -> Result<Option<Aspect>, WeaveError> {
        for aspect in &self.aspects {
            for advice in &aspect.advices {
                if advice.pointcut.selects_calls()
                    && !matches!(advice.kind, AdviceKind::Before | AdviceKind::After)
                {
                    return Err(WeaveError::UnsupportedCallAdvice {
                        aspect: aspect.name.clone(),
                        kind: advice.kind.to_string(),
                    });
                }
            }
        }
        let mut cflow_inners: Vec<crate::pointcut::Pointcut> = Vec::new();
        for aspect in &self.aspects {
            for advice in &aspect.advices {
                let conjuncts = advice.pointcut.cflow_conjuncts().map_err(|detail| {
                    WeaveError::UnsupportedCflow { aspect: aspect.name.clone(), detail }
                })?;
                for c in conjuncts {
                    if !cflow_inners.iter().any(|p| p == c) {
                        cflow_inners.push(c.clone());
                    }
                }
            }
        }
        if cflow_inners.is_empty() {
            return Ok(None);
        }
        let mut instr = Aspect::new("__cflow_instrumentation");
        for inner in &cflow_inners {
            instr.advices.push(Advice::new(
                AdviceKind::Around,
                inner.clone(),
                cflow_instrumentation_body(&cflow_key(inner)),
            ));
        }
        Ok(Some(instr))
    }
}

/// The effective aspect list in precedence order: the synthesized cflow
/// instrumentation (outermost) followed by the user aspects — borrowed,
/// so the common no-cflow case costs nothing (previously this path
/// cloned the entire weaver, aspect bodies and all).
fn effective_aspects<'a>(
    own: &'a [Aspect],
    instrumentation: Option<&'a Aspect>,
) -> Vec<&'a Aspect> {
    match instrumentation {
        Some(instr) => std::iter::once(instr).chain(own.iter()).collect(),
        None => own.iter().collect(),
    }
}

// ---------------------------------------------------------------------
// The per-class weaving unit
// ---------------------------------------------------------------------

/// One class woven by [`weave_classes`]: the woven declaration and its
/// call- and execution-phase trace records.
struct WovenClass {
    woven: ClassDecl,
    calls: Vec<WovenJoinPoint>,
    execs: Vec<WovenJoinPoint>,
}

/// The one weaving unit: weaves every class of `program`, in order.
/// Each reads only its class and the aspects, so they run on rayon
/// unless the pool has one worker or there are fewer than
/// [`PARALLEL_MIN_CLASSES`] of them.
fn weave_classes(aspects: &[&Aspect], program: &Program) -> Vec<WovenClass> {
    let call_advices = call_advice_candidates(aspects);
    let weave_one = |class: &ClassDecl| weave_class(aspects, &call_advices, class);
    if rayon::current_num_threads() == 1 || program.classes.len() < PARALLEL_MIN_CLASSES {
        program.classes.iter().map(weave_one).collect()
    } else {
        program.classes.par_iter().map(weave_one).collect()
    }
}

/// Weaves `class` against its freshly built match tables.
fn weave_class(
    aspects: &[&Aspect],
    call_advices: &[(usize, usize)],
    class: &ClassDecl,
) -> WovenClass {
    let matches = index_class(aspects, call_advices, class);
    let mut woven = class.clone();
    let aspect_names: Vec<&str> = aspects.iter().map(|a| a.name.as_str()).collect();

    // Call pass. Only methods with at least one matched call shadow are
    // rebuilt; everything else keeps its already-cloned body.
    let mut calls = Vec::new();
    for (mi, method) in class.methods.iter().enumerate() {
        let mm = &matches[mi];
        if !mm.has_call_matches {
            continue;
        }
        let mut new_stmts = Vec::new();
        for stmt in &method.body.stmts {
            rewrite_call_stmt(stmt, mm, aspects, class, method, &mut new_stmts, &mut calls);
        }
        woven.methods[mi].body = Block::of(new_stmts);
    }

    // Execution pass, after the call pass (same phase order as the
    // naive weaver: the functional helper must reify the call-woven
    // body).
    let mut execs = Vec::new();
    for (mi, method) in class.methods.iter().enumerate() {
        let mm = &matches[mi];
        if mm.exec_layers.is_empty() {
            continue;
        }
        let layers: Vec<(usize, Vec<&Advice>)> = mm
            .exec_layers
            .iter()
            .map(|(k, js)| (*k, js.iter().map(|&j| &aspects[*k].advices[j]).collect()))
            .collect();
        apply_execution_layers(&mut woven, &method.name, &layers, &aspect_names, &mut execs);
    }
    WovenClass { woven, calls, execs }
}

/// Emits `stmt` into `out`, wrapped with the advice the call table
/// matched for its callee. Structurally identical to the naive
/// [`naive_weave_call_stmt`], with the per-shadow pointcut evaluation
/// replaced by a table lookup.
fn rewrite_call_stmt(
    stmt: &Stmt,
    mm: &MethodMatches,
    aspects: &[&Aspect],
    class: &ClassDecl,
    method: &MethodDecl,
    out: &mut Vec<Stmt>,
    trace: &mut Vec<WovenJoinPoint>,
) {
    let callee = call_at_statement(stmt);
    let Some((callee_class, callee_name)) = callee else {
        match stmt {
            Stmt::If { cond, then_block, else_block } => {
                let mut tb = Vec::new();
                for s in &then_block.stmts {
                    rewrite_call_stmt(s, mm, aspects, class, method, &mut tb, trace);
                }
                let eb = else_block.as_ref().map(|b| {
                    let mut v = Vec::new();
                    for s in &b.stmts {
                        rewrite_call_stmt(s, mm, aspects, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_block: Block::of(tb),
                    else_block: eb,
                });
            }
            Stmt::While { cond, body } => {
                let mut v = Vec::new();
                for s in &body.stmts {
                    rewrite_call_stmt(s, mm, aspects, class, method, &mut v, trace);
                }
                out.push(Stmt::While { cond: cond.clone(), body: Block::of(v) });
            }
            Stmt::TryCatch { body, var, handler, finally } => {
                let mut b = Vec::new();
                for s in &body.stmts {
                    rewrite_call_stmt(s, mm, aspects, class, method, &mut b, trace);
                }
                let mut h = Vec::new();
                for s in &handler.stmts {
                    rewrite_call_stmt(s, mm, aspects, class, method, &mut h, trace);
                }
                let fin = finally.as_ref().map(|fb| {
                    let mut v = Vec::new();
                    for s in &fb.stmts {
                        rewrite_call_stmt(s, mm, aspects, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::TryCatch {
                    body: Block::of(b),
                    var: var.clone(),
                    handler: Block::of(h),
                    finally: fin,
                });
            }
            Stmt::Block(b) => {
                let mut v = Vec::new();
                for s in &b.stmts {
                    rewrite_call_stmt(s, mm, aspects, class, method, &mut v, trace);
                }
                out.push(Stmt::Block(Block::of(v)));
            }
            other => out.push(other.clone()),
        }
        return;
    };
    if callee_name.contains("__") {
        out.push(stmt.clone());
        return;
    }
    let key = (callee_class, callee_name);
    let matched = mm.calls.get(&key).map(Vec::as_slice).unwrap_or(&[]);
    let mut befores = Vec::new();
    let mut afters = Vec::new();
    for &(k, j) in matched {
        let advice = &aspects[k].advices[j];
        let record = WovenJoinPoint {
            class: class.name.clone(),
            method: method.name.clone(),
            aspect: aspects[k].name.clone(),
            kind: advice.kind,
            shadow: Shadow::Call { callee: key.1.clone() },
        };
        match advice.kind {
            AdviceKind::Before => {
                befores.extend(guarded_stmts(advice));
                trace.push(record);
            }
            AdviceKind::After => {
                afters.extend(guarded_stmts(advice));
                trace.push(record);
            }
            _ => {}
        }
    }
    if befores.is_empty() && afters.is_empty() {
        out.push(stmt.clone());
        return;
    }
    let jp = format!("{}.{}", key.0.clone().unwrap_or_else(|| "*".into()), key.1);
    out.push(Stmt::Block(Block::of(
        std::iter::once(Stmt::local("__jp", IrType::Str, Expr::str(jp)))
            .chain(befores)
            .chain(std::iter::once(stmt.clone()))
            .chain(afters)
            .collect(),
    )));
}

// ---------------------------------------------------------------------
// Shared execution-layer construction (naive and indexed paths)
// ---------------------------------------------------------------------

/// Applies the matched execution advice for `method_name` to `class`:
/// reifies the functional helper, builds the per-aspect layers
/// innermost-to-outermost, and redirects the public method. `layers`
/// must be non-empty, in aspect precedence order.
fn apply_execution_layers(
    class: &mut ClassDecl,
    method_name: &str,
    layers: &[(usize, Vec<&Advice>)],
    aspect_names: &[&str],
    trace: &mut Vec<WovenJoinPoint>,
) {
    let method_snapshot =
        class.find_method(method_name).expect("caller checked the method exists").clone();
    let jp_name = format!("{}.{}", class.name, method_name);
    let params = method_snapshot.params.clone();
    let ret = method_snapshot.ret.clone();
    let param_args: Vec<Expr> = params.iter().map(|p| Expr::var(&p.name)).collect();

    // 1. Reify the original body.
    let functional_name = format!("{method_name}__functional");
    let mut functional = method_snapshot.clone();
    functional.name = functional_name.clone();
    functional.annotations.clear();
    class.methods.push(functional);

    // 2. Build layers innermost (last aspect) to outermost (first).
    let mut inner_name = functional_name;
    for (k, advices) in layers.iter().rev() {
        let aspect_name = aspect_names[*k];
        // 2a. Around advice, chained so the first-declared around is
        // outermost within the aspect.
        for (j, advice) in advices
            .iter()
            .filter(|a| a.kind == AdviceKind::Around)
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            let helper_name = format!("{method_name}__around_{k}_{j}");
            let mut body = guarded_advice_body(advice);
            subst_proceed_block(&mut body, &inner_name, &param_args);
            inject_jp_local(&mut body, &jp_name);
            inject_args_local(&mut body, &param_args);
            let mut helper = MethodDecl::new(&helper_name);
            helper.params = params.clone();
            helper.ret = ret.clone();
            helper.body = body;
            class.methods.push(helper);
            inner_name = helper_name;
            trace.push(WovenJoinPoint {
                class: class.name.clone(),
                method: method_name.to_owned(),
                aspect: aspect_name.to_owned(),
                kind: AdviceKind::Around,
                shadow: Shadow::Execution,
            });
        }
        // 2b. Before/after wrapper for this aspect, outside its arounds.
        let befores: Vec<&&Advice> =
            advices.iter().filter(|a| a.kind == AdviceKind::Before).collect();
        let after_returnings: Vec<&&Advice> =
            advices.iter().filter(|a| a.kind == AdviceKind::AfterReturning).collect();
        let after_throwings: Vec<&&Advice> =
            advices.iter().filter(|a| a.kind == AdviceKind::AfterThrowing).collect();
        let afters: Vec<&&Advice> =
            advices.iter().filter(|a| a.kind == AdviceKind::After).collect();
        if befores.is_empty()
            && after_returnings.is_empty()
            && after_throwings.is_empty()
            && afters.is_empty()
        {
            continue;
        }
        let helper_name = format!("{method_name}__layer_{k}");
        let inner_call = Expr::call_this(inner_name.clone(), param_args.clone());
        let non_void = ret != IrType::Void;

        let mut ctx_block = Block::default();
        inject_jp_local(&mut ctx_block, &jp_name);
        inject_args_local(&mut ctx_block, &param_args);
        let mut stmts: Vec<Stmt> = ctx_block.stmts;
        for b in &befores {
            stmts.extend(guarded_stmts(b));
            trace.push(jp_record(class, method_name, aspect_name, AdviceKind::Before));
        }
        let mut try_body: Vec<Stmt> = Vec::new();
        if non_void {
            try_body.push(Stmt::local("__result", ret.clone(), inner_call));
        } else {
            try_body.push(Stmt::Expr(inner_call));
        }
        for a in &after_returnings {
            try_body.extend(guarded_stmts(a));
            trace.push(jp_record(class, method_name, aspect_name, AdviceKind::AfterReturning));
        }
        if non_void {
            try_body.push(Stmt::ret(Expr::var("__result")));
        } else {
            try_body.push(Stmt::Return(None));
        }
        let needs_catch = !after_throwings.is_empty();
        let needs_finally = !afters.is_empty();
        if needs_catch || needs_finally {
            let mut handler = Vec::new();
            for a in &after_throwings {
                handler.extend(guarded_stmts(a));
                trace.push(jp_record(class, method_name, aspect_name, AdviceKind::AfterThrowing));
            }
            handler.push(Stmt::Throw(Expr::var("__error")));
            let mut finally = Vec::new();
            for a in &afters {
                finally.extend(guarded_stmts(a));
                trace.push(jp_record(class, method_name, aspect_name, AdviceKind::After));
            }
            stmts.push(Stmt::TryCatch {
                body: Block::of(try_body),
                var: "__error".into(),
                handler: Block::of(handler),
                finally: if needs_finally { Some(Block::of(finally)) } else { None },
            });
        } else {
            stmts.extend(try_body);
        }

        let mut helper = MethodDecl::new(&helper_name);
        helper.params = params.clone();
        helper.ret = ret.clone();
        helper.body = Block::of(stmts);
        class.methods.push(helper);
        inner_name = helper_name;
    }

    // 3. The public method delegates to the outermost layer.
    let delegate_call = Expr::call_this(inner_name, param_args);
    let public = class.find_method_mut(method_name).expect("still present");
    public.body = if ret == IrType::Void {
        Block::of(vec![Stmt::Expr(delegate_call), Stmt::Return(None)])
    } else {
        Block::of(vec![Stmt::ret(delegate_call)])
    };
}

// ---------------------------------------------------------------------
// Naive reference implementation (differential oracle + "before" bench)
// ---------------------------------------------------------------------

fn naive_weave_executions(
    aspects: &[&Aspect],
    program: &mut Program,
    trace: &mut Vec<WovenJoinPoint>,
) {
    for class_idx in 0..program.classes.len() {
        let method_names: Vec<String> =
            program.classes[class_idx].methods.iter().map(|m| m.name.clone()).collect();
        for method_name in method_names {
            naive_weave_one_execution(
                aspects,
                &mut program.classes[class_idx],
                &method_name,
                trace,
            );
        }
    }
}

fn naive_weave_one_execution(
    aspects: &[&Aspect],
    class: &mut ClassDecl,
    method_name: &str,
    trace: &mut Vec<WovenJoinPoint>,
) {
    // Already-woven methods (their functional helper exists) are left
    // alone: weaving is idempotent per method.
    if class.find_method(&format!("{method_name}__functional")).is_some()
        || method_name.contains("__")
    {
        return;
    }
    // Gather matching advice per aspect, preserving aspect order —
    // evaluated from scratch for every method, which is exactly what the
    // match tables exist to avoid.
    let method_snapshot =
        class.find_method(method_name).expect("caller iterates real names").clone();
    let mut layers: Vec<(usize, Vec<&Advice>)> = Vec::new();
    for (k, aspect) in aspects.iter().enumerate() {
        let matching: Vec<&Advice> = aspect
            .advices
            .iter()
            .filter(|a| a.pointcut.matches_execution(class, &method_snapshot))
            .collect();
        if !matching.is_empty() {
            layers.push((k, matching));
        }
    }
    if layers.is_empty() {
        return;
    }
    let aspect_names: Vec<&str> = aspects.iter().map(|a| a.name.as_str()).collect();
    apply_execution_layers(class, method_name, &layers, &aspect_names, trace);
}

fn naive_weave_calls(aspects: &[&Aspect], program: &mut Program, trace: &mut Vec<WovenJoinPoint>) {
    for class_idx in 0..program.classes.len() {
        for method_idx in 0..program.classes[class_idx].methods.len() {
            let class_snapshot = program.classes[class_idx].clone();
            let method_snapshot = class_snapshot.methods[method_idx].clone();
            // Skip advice-generated helpers as *containers*: their
            // call statements are delegation plumbing.
            if method_snapshot.name.contains("__") {
                continue;
            }
            let mut new_stmts = Vec::new();
            for stmt in &method_snapshot.body.stmts {
                naive_weave_call_stmt(
                    aspects,
                    stmt,
                    &class_snapshot,
                    &method_snapshot,
                    &mut new_stmts,
                    trace,
                );
            }
            program.classes[class_idx].methods[method_idx].body = Block::of(new_stmts);
        }
    }
}

/// Emits `stmt` into `out`, surrounded by any matching call advice.
/// Call shadows are only recognized at statement position (the IR has
/// no statement-level expression evaluation order to exploit).
fn naive_weave_call_stmt(
    aspects: &[&Aspect],
    stmt: &Stmt,
    class: &ClassDecl,
    method: &MethodDecl,
    out: &mut Vec<Stmt>,
    trace: &mut Vec<WovenJoinPoint>,
) {
    let callee = call_at_statement(stmt);
    let Some((callee_class, callee_name)) = callee else {
        // Recurse into structured statements so nested shadows are
        // found.
        match stmt {
            Stmt::If { cond, then_block, else_block } => {
                let mut tb = Vec::new();
                for s in &then_block.stmts {
                    naive_weave_call_stmt(aspects, s, class, method, &mut tb, trace);
                }
                let eb = else_block.as_ref().map(|b| {
                    let mut v = Vec::new();
                    for s in &b.stmts {
                        naive_weave_call_stmt(aspects, s, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_block: Block::of(tb),
                    else_block: eb,
                });
            }
            Stmt::While { cond, body } => {
                let mut v = Vec::new();
                for s in &body.stmts {
                    naive_weave_call_stmt(aspects, s, class, method, &mut v, trace);
                }
                out.push(Stmt::While { cond: cond.clone(), body: Block::of(v) });
            }
            Stmt::TryCatch { body, var, handler, finally } => {
                let mut b = Vec::new();
                for s in &body.stmts {
                    naive_weave_call_stmt(aspects, s, class, method, &mut b, trace);
                }
                let mut h = Vec::new();
                for s in &handler.stmts {
                    naive_weave_call_stmt(aspects, s, class, method, &mut h, trace);
                }
                let fin = finally.as_ref().map(|fb| {
                    let mut v = Vec::new();
                    for s in &fb.stmts {
                        naive_weave_call_stmt(aspects, s, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::TryCatch {
                    body: Block::of(b),
                    var: var.clone(),
                    handler: Block::of(h),
                    finally: fin,
                });
            }
            Stmt::Block(b) => {
                let mut v = Vec::new();
                for s in &b.stmts {
                    naive_weave_call_stmt(aspects, s, class, method, &mut v, trace);
                }
                out.push(Stmt::Block(Block::of(v)));
            }
            other => out.push(other.clone()),
        }
        return;
    };
    if callee_name.contains("__") {
        out.push(stmt.clone());
        return;
    }
    let callee_class_ref = callee_class.as_deref();
    let mut befores = Vec::new();
    let mut afters = Vec::new();
    for aspect in aspects {
        for advice in &aspect.advices {
            if !advice.pointcut.selects_calls() {
                continue;
            }
            if advice.pointcut.matches_call(class, method, callee_class_ref, &callee_name) {
                let record = WovenJoinPoint {
                    class: class.name.clone(),
                    method: method.name.clone(),
                    aspect: aspect.name.clone(),
                    kind: advice.kind,
                    shadow: Shadow::Call { callee: callee_name.clone() },
                };
                match advice.kind {
                    AdviceKind::Before => {
                        befores.extend(guarded_stmts(advice));
                        trace.push(record);
                    }
                    AdviceKind::After => {
                        afters.extend(guarded_stmts(advice));
                        trace.push(record);
                    }
                    _ => {}
                }
            }
        }
    }
    if befores.is_empty() && afters.is_empty() {
        out.push(stmt.clone());
        return;
    }
    let jp = format!("{}.{}", callee_class.clone().unwrap_or_else(|| "*".into()), callee_name);
    out.push(Stmt::Block(Block::of(
        std::iter::once(Stmt::local("__jp", IrType::Str, Expr::str(jp)))
            .chain(befores)
            .chain(std::iter::once(stmt.clone()))
            .chain(afters)
            .collect(),
    )));
}

fn jp_record(
    class: &ClassDecl,
    method: &str,
    aspect_name: &str,
    kind: AdviceKind,
) -> WovenJoinPoint {
    WovenJoinPoint {
        class: class.name.clone(),
        method: method.to_owned(),
        aspect: aspect_name.to_owned(),
        kind,
        shadow: Shadow::Execution,
    }
}

/// Recognizes a statement-position call and returns
/// `(callee class if resolvable, callee method)`.
pub(crate) fn call_at_statement(stmt: &Stmt) -> Option<(Option<String>, String)> {
    let expr = match stmt {
        Stmt::Expr(e) => e,
        Stmt::Local { init: Some(e), .. } => e,
        Stmt::Assign { value, .. } => value,
        Stmt::Return(Some(e)) => e,
        _ => return None,
    };
    match expr {
        Expr::Call { recv, method, .. } => {
            let class = match recv.as_deref() {
                None | Some(Expr::This) => None, // self-call: class unknown here
                Some(Expr::New { class, .. }) => Some(class.clone()),
                _ => None,
            };
            Some((class, method.clone()))
        }
        _ => None,
    }
}

/// The runtime key identifying a cflow context: the inner pointcut's
/// canonical text.
fn cflow_key(inner: &crate::pointcut::Pointcut) -> String {
    inner.to_string()
}

/// Wraps an advice body in the runtime guards its `cflow` conjuncts
/// require: around advice bypasses straight to `proceed()` outside the
/// cflow; other kinds simply skip their statements.
fn guarded_advice_body(advice: &Advice) -> Block {
    let conjuncts = advice.pointcut.cflow_conjuncts().expect("validated before weaving started");
    let mut body = advice.body.clone();
    for inner in conjuncts {
        let active = Expr::intrinsic(CFLOW_ACTIVE, vec![Expr::str(cflow_key(inner))]);
        body = match advice.kind {
            AdviceKind::Around => {
                let mut stmts = vec![Stmt::If {
                    cond: Expr::Unary { op: IrUnOp::Not, operand: Box::new(active) },
                    then_block: Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
                    else_block: None,
                }];
                stmts.extend(body.stmts);
                Block::of(stmts)
            }
            _ => Block::of(vec![Stmt::If { cond: active, then_block: body, else_block: None }]),
        };
    }
    body
}

fn guarded_stmts(advice: &Advice) -> Vec<Stmt> {
    guarded_advice_body(advice).stmts
}

/// The synthetic around advice maintaining the cflow counter on the
/// cflow-defining join points: enter, proceed (exception-safe), exit.
fn cflow_instrumentation_body(key: &str) -> Block {
    Block::of(vec![
        Stmt::Expr(Expr::intrinsic(CFLOW_ENTER, vec![Expr::str(key)])),
        Stmt::Local { name: "__cf_r".into(), ty: IrType::Str, init: None },
        Stmt::TryCatch {
            body: Block::of(vec![Stmt::set_var("__cf_r", Expr::Proceed(vec![]))]),
            var: "__cf_e".into(),
            handler: Block::of(vec![
                Stmt::Expr(Expr::intrinsic(CFLOW_EXIT, vec![Expr::str(key)])),
                Stmt::Throw(Expr::var("__cf_e")),
            ]),
            finally: None,
        },
        Stmt::Expr(Expr::intrinsic(CFLOW_EXIT, vec![Expr::str(key)])),
        Stmt::ret(Expr::var("__cf_r")),
    ])
}

/// Injects the join-point context locals at the head of an
/// advice-derived body: `__jp` (`"Class.method"`), `__method` (the bare
/// method name) and `__args` (a list of the original arguments).
fn inject_jp_local(body: &mut Block, jp: &str) {
    let method = jp.rsplit('.').next().unwrap_or(jp);
    body.stmts.insert(0, Stmt::local("__jp", IrType::Str, Expr::str(jp)));
    body.stmts.insert(1, Stmt::local("__method", IrType::Str, Expr::str(method)));
}

/// Injects `local __args = [p1, p2, ...]` after the other context locals.
fn inject_args_local(body: &mut Block, param_args: &[Expr]) {
    body.stmts.insert(
        2,
        Stmt::Local {
            name: "__args".into(),
            ty: IrType::List(Box::new(IrType::Str)),
            init: Some(Expr::ListLit(param_args.to_vec())),
        },
    );
}

/// Replaces every `proceed(args)` in the block with a call to
/// `inner_name`; empty-arg `proceed()` forwards the original parameters.
fn subst_proceed_block(block: &mut Block, inner_name: &str, param_args: &[Expr]) {
    for stmt in &mut block.stmts {
        subst_proceed_stmt(stmt, inner_name, param_args);
    }
}

fn subst_proceed_stmt(stmt: &mut Stmt, inner: &str, params: &[Expr]) {
    match stmt {
        Stmt::Local { init, .. } => {
            if let Some(e) = init {
                subst_proceed_expr(e, inner, params);
            }
        }
        Stmt::Assign { target, value } => {
            if let LValue::Field { recv, .. } = target {
                subst_proceed_expr(recv, inner, params);
            }
            subst_proceed_expr(value, inner, params);
        }
        Stmt::Expr(e) | Stmt::Throw(e) => subst_proceed_expr(e, inner, params),
        Stmt::If { cond, then_block, else_block } => {
            subst_proceed_expr(cond, inner, params);
            subst_proceed_block(then_block, inner, params);
            if let Some(eb) = else_block {
                subst_proceed_block(eb, inner, params);
            }
        }
        Stmt::While { cond, body } => {
            subst_proceed_expr(cond, inner, params);
            subst_proceed_block(body, inner, params);
        }
        Stmt::Return(Some(e)) => subst_proceed_expr(e, inner, params),
        Stmt::Return(None) => {}
        Stmt::TryCatch { body, handler, finally, .. } => {
            subst_proceed_block(body, inner, params);
            subst_proceed_block(handler, inner, params);
            if let Some(fin) = finally {
                subst_proceed_block(fin, inner, params);
            }
        }
        Stmt::Block(b) => subst_proceed_block(b, inner, params),
    }
}

fn subst_proceed_expr(expr: &mut Expr, inner: &str, params: &[Expr]) {
    match expr {
        Expr::Proceed(args) => {
            let call_args = if args.is_empty() {
                params.to_vec()
            } else {
                let mut a = std::mem::take(args);
                for e in &mut a {
                    subst_proceed_expr(e, inner, params);
                }
                a
            };
            *expr = Expr::call_this(inner.to_owned(), call_args);
        }
        Expr::Field { recv, .. } => subst_proceed_expr(recv, inner, params),
        Expr::Call { recv, args, .. } => {
            if let Some(r) = recv {
                subst_proceed_expr(r, inner, params);
            }
            for a in args {
                subst_proceed_expr(a, inner, params);
            }
        }
        Expr::New { args, .. } | Expr::Intrinsic { args, .. } | Expr::ListLit(args) => {
            for a in args {
                subst_proceed_expr(a, inner, params);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            subst_proceed_expr(lhs, inner, params);
            subst_proceed_expr(rhs, inner, params);
        }
        Expr::Unary { operand, .. } => subst_proceed_expr(operand, inner, params),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointcut::parse_pointcut;
    use comet_codegen::{check_program, Param};

    fn sample_program() -> Program {
        let mut p = Program::new("app");
        let mut bank = ClassDecl::new("Bank");
        let mut transfer = MethodDecl::new("transfer");
        transfer.params.push(Param::new("amount", IrType::Int));
        transfer.ret = IrType::Bool;
        transfer.body = Block::of(vec![Stmt::ret(Expr::bool(true))]);
        bank.methods.push(transfer);
        let mut audit = MethodDecl::new("audit");
        audit.body = Block::of(vec![Stmt::Expr(Expr::call_this("helper", vec![]))]);
        bank.methods.push(audit);
        bank.methods.push(MethodDecl::new("helper"));
        p.classes.push(bank);
        p
    }

    fn log_stmt(tag: &str) -> Stmt {
        Stmt::Expr(Expr::intrinsic("log.emit", vec![Expr::str("info"), Expr::str(tag)]))
    }

    #[test]
    fn before_advice_wraps_execution() {
        let aspect = Aspect::new("logging").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(Bank.transfer)").unwrap(),
            Block::of(vec![log_stmt("before")]),
        ));
        let result = Weaver::new(vec![aspect]).weave(&sample_program()).unwrap();
        assert_eq!(result.trace.len(), 1);
        assert_eq!(result.trace[0].kind, AdviceKind::Before);
        let bank = result.program.find_class("Bank").unwrap();
        assert!(bank.find_method("transfer__functional").is_some());
        assert!(bank.find_method("transfer__layer_0").is_some());
        // Public signature unchanged.
        let public = bank.find_method("transfer").unwrap();
        assert_eq!(public.ret, IrType::Bool);
        assert_eq!(public.params.len(), 1);
        assert!(check_program(&result.program).is_empty());
    }

    #[test]
    fn no_matching_advice_leaves_program_untouched() {
        let aspect = Aspect::new("logging").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(Nothing.matches)").unwrap(),
            Block::of(vec![log_stmt("before")]),
        ));
        let p = sample_program();
        let result = Weaver::new(vec![aspect]).weave(&p).unwrap();
        assert_eq!(result.program, p);
        assert!(result.trace.is_empty());
    }

    #[test]
    fn around_advice_substitutes_proceed() {
        let aspect = Aspect::new("tx").with_advice(Advice::new(
            AdviceKind::Around,
            parse_pointcut("execution(Bank.transfer)").unwrap(),
            Block::of(vec![
                Stmt::Expr(Expr::intrinsic("tx.begin", vec![Expr::str("rc")])),
                Stmt::local("r", IrType::Bool, Expr::Proceed(vec![])),
                Stmt::Expr(Expr::intrinsic("tx.commit", vec![])),
                Stmt::ret(Expr::var("r")),
            ]),
        ));
        let result = Weaver::new(vec![aspect]).weave(&sample_program()).unwrap();
        let bank = result.program.find_class("Bank").unwrap();
        let around = bank.find_method("transfer__around_0_0").unwrap();
        // Proceed was replaced by a call to the functional helper with the
        // original parameter forwarded.
        let has_call = around.body.stmts.iter().any(|s| {
            matches!(
                s,
                Stmt::Local { init: Some(Expr::Call { method, args, .. }), .. }
                    if method == "transfer__functional"
                        && args == &vec![Expr::var("amount")]
            )
        });
        assert!(has_call, "{:?}", around.body);
        assert!(check_program(&result.program).is_empty());
    }

    #[test]
    fn precedence_first_aspect_is_outermost() {
        let outer = Aspect::new("outer").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(Bank.transfer)").unwrap(),
            Block::of(vec![log_stmt("outer")]),
        ));
        let inner = Aspect::new("inner").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(Bank.transfer)").unwrap(),
            Block::of(vec![log_stmt("inner")]),
        ));
        let result = Weaver::new(vec![outer, inner]).weave(&sample_program()).unwrap();
        let bank = result.program.find_class("Bank").unwrap();
        // The public method delegates to layer_0 (outer aspect), which
        // delegates to layer_1 (inner aspect).
        let public = bank.find_method("transfer").unwrap();
        let delegates_to = |m: &MethodDecl| -> Option<String> {
            m.body.stmts.iter().find_map(|s| match s {
                Stmt::Return(Some(Expr::Call { method, .. })) => Some(method.clone()),
                Stmt::Local { init: Some(Expr::Call { method, .. }), .. } => Some(method.clone()),
                Stmt::Expr(Expr::Call { method, .. }) => Some(method.clone()),
                _ => None,
            })
        };
        assert_eq!(delegates_to(public).unwrap(), "transfer__layer_0");
        let layer0 = bank.find_method("transfer__layer_0").unwrap();
        assert_eq!(delegates_to(layer0).unwrap(), "transfer__layer_1");
        let layer1 = bank.find_method("transfer__layer_1").unwrap();
        assert_eq!(delegates_to(layer1).unwrap(), "transfer__functional");
    }

    #[test]
    fn after_throwing_and_finally_structure() {
        let aspect = Aspect::new("x")
            .with_advice(Advice::new(
                AdviceKind::AfterThrowing,
                parse_pointcut("execution(Bank.transfer)").unwrap(),
                Block::of(vec![log_stmt("boom")]),
            ))
            .with_advice(Advice::new(
                AdviceKind::After,
                parse_pointcut("execution(Bank.transfer)").unwrap(),
                Block::of(vec![log_stmt("finally")]),
            ));
        let result = Weaver::new(vec![aspect]).weave(&sample_program()).unwrap();
        let bank = result.program.find_class("Bank").unwrap();
        let layer = bank.find_method("transfer__layer_0").unwrap();
        let has_try = layer.body.stmts.iter().any(|s| {
            matches!(s, Stmt::TryCatch { handler, finally, .. }
                if !handler.stmts.is_empty() && finally.is_some())
        });
        assert!(has_try);
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn call_advice_wraps_statement_calls() {
        let aspect = Aspect::new("client-log")
            .with_advice(Advice::new(
                AdviceKind::Before,
                parse_pointcut("call(*.helper)").unwrap(),
                Block::of(vec![log_stmt("pre-call")]),
            ))
            .with_advice(Advice::new(
                AdviceKind::After,
                parse_pointcut("call(*.helper)").unwrap(),
                Block::of(vec![log_stmt("post-call")]),
            ));
        let result = Weaver::new(vec![aspect]).weave(&sample_program()).unwrap();
        let audit = result.program.find_method("Bank", "audit").unwrap();
        // The call statement became a block: [__jp, before, call, after].
        match &audit.body.stmts[0] {
            Stmt::Block(b) => assert_eq!(b.stmts.len(), 4),
            other => panic!("expected block, got {other:?}"),
        }
        assert_eq!(result.trace.len(), 2);
        assert!(matches!(&result.trace[0].shadow, Shadow::Call { callee } if callee == "helper"));
    }

    #[test]
    fn around_at_call_shadow_is_rejected() {
        let aspect = Aspect::new("bad").with_advice(Advice::new(
            AdviceKind::Around,
            parse_pointcut("call(*.helper)").unwrap(),
            Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
        ));
        let err = Weaver::new(vec![aspect]).weave(&sample_program()).unwrap_err();
        assert!(matches!(err, WeaveError::UnsupportedCallAdvice { .. }));
        assert!(err.to_string().contains("around"));
    }

    #[test]
    fn weaving_twice_does_not_re_advise_helpers() {
        let aspect = Aspect::new("logging").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(Bank.transfer)").unwrap(),
            Block::of(vec![log_stmt("before")]),
        ));
        let weaver = Weaver::new(vec![aspect]);
        let once = weaver.weave(&sample_program()).unwrap();
        let twice = weaver.weave(&once.program).unwrap();
        // The public method matches again (it kept its name) but is
        // detected as already woven, so the second weave is a no-op.
        assert_eq!(once.trace.len(), 1);
        assert!(twice.trace.is_empty());
        assert_eq!(twice.program, once.program);
        assert!(check_program(&twice.program).is_empty());
    }

    #[test]
    fn void_method_weaving() {
        let mut p = Program::new("app");
        let mut c = ClassDecl::new("A");
        let mut m = MethodDecl::new("fire");
        m.body = Block::of(vec![Stmt::Expr(Expr::intrinsic(
            "log.emit",
            vec![Expr::str("info"), Expr::str("core")],
        ))]);
        c.methods.push(m);
        p.classes.push(c);
        let aspect = Aspect::new("x").with_advice(Advice::new(
            AdviceKind::AfterReturning,
            parse_pointcut("execution(A.fire)").unwrap(),
            Block::of(vec![log_stmt("done")]),
        ));
        let result = Weaver::new(vec![aspect]).weave(&p).unwrap();
        let layer = result.program.find_method("A", "fire__layer_0").unwrap();
        // Void: no __result local, call then advice then plain return.
        assert!(layer.body.stmts.iter().all(|s| !matches!(
            s,
            Stmt::Local { name, .. } if name == "__result"
        )));
        assert!(check_program(&result.program).is_empty());
    }

    /// A mixed-shadow program exercising every advice kind, calls in
    /// nested statements, cflow, and multiple classes.
    fn mixed_program() -> Program {
        let mut p = sample_program();
        let mut teller = ClassDecl::new("Teller");
        let mut serve = MethodDecl::new("serve");
        serve.params.push(Param::new("n", IrType::Int));
        serve.body = Block::of(vec![
            Stmt::Expr(Expr::call_this("audit", vec![])),
            Stmt::While {
                cond: Expr::bool(true),
                body: Block::of(vec![Stmt::Expr(Expr::call_this("audit", vec![]))]),
            },
            Stmt::If {
                cond: Expr::bool(false),
                then_block: Block::of(vec![Stmt::Expr(Expr::call_this("transfer", vec![]))]),
                else_block: Some(Block::of(vec![Stmt::Return(None)])),
            },
        ]);
        teller.methods.push(serve);
        p.classes.push(teller);
        p
    }

    fn mixed_aspects() -> Vec<Aspect> {
        vec![
            Aspect::new("log")
                .with_advice(Advice::new(
                    AdviceKind::Before,
                    parse_pointcut("execution(*.*)").unwrap(),
                    Block::of(vec![log_stmt("b")]),
                ))
                .with_advice(Advice::new(
                    AdviceKind::After,
                    parse_pointcut("call(*.audit)").unwrap(),
                    Block::of(vec![log_stmt("post")]),
                )),
            Aspect::new("tx").with_advice(Advice::new(
                AdviceKind::Around,
                parse_pointcut("execution(Bank.transfer) && cflow(execution(Teller.serve))")
                    .unwrap(),
                Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
            )),
            Aspect::new("audit").with_advice(Advice::new(
                AdviceKind::AfterReturning,
                parse_pointcut("execution(Bank.*) && args(1)").unwrap(),
                Block::of(vec![log_stmt("ret")]),
            )),
        ]
    }

    /// A weave recorded on `obs`, the way the lifecycle traces one.
    fn traced_weave(weaver: &Weaver, p: &Program, obs: &comet_obs::Collector) -> WeaveResult {
        let result = weaver.weave(p).unwrap();
        weaver.record_trace(&result, obs);
        result
    }

    #[test]
    fn record_trace_records_one_event_per_join_point() {
        let weaver = Weaver::new(mixed_aspects());
        let p = mixed_program();
        let obs = comet_obs::Collector::enabled();
        let traced = traced_weave(&weaver, &p, &obs);
        let plain = weaver.weave(&p).unwrap();
        assert_eq!(traced, plain, "tracing must not perturb the weave");
        let trace = obs.take();
        let advice_events: Vec<&comet_obs::Event> =
            trace.events.iter().filter(|e| e.name == "weave.advice").collect();
        assert_eq!(advice_events.len(), plain.trace.len());
        // Every event sits inside a class span under the weave pass.
        let pass = &trace.spans[0];
        assert_eq!(pass.name, "weave");
        assert_eq!(
            comet_obs::Trace::attr(&pass.attrs, "joinpoints"),
            Some(plain.trace.len().to_string().as_str())
        );
        for e in &advice_events {
            let class_span = &trace.spans[e.span.unwrap() as usize];
            assert!(class_span.name.starts_with("class:"), "{class_span:?}");
            assert_eq!(class_span.parent, Some(pass.id));
        }
        // Determinism across runs and thread counts.
        let retrace = |threads: usize| {
            let obs = comet_obs::Collector::enabled();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| traced_weave(&weaver, &p, &obs));
            obs.take()
        };
        assert_eq!(retrace(1), retrace(4));
    }

    #[test]
    fn weave_and_traced_weave_equal_naive_across_the_parallel_cutoff() {
        let weaver = Weaver::new(mixed_aspects());
        let mut p = mixed_program();
        for i in 0..PARALLEL_MIN_CLASSES {
            let mut copy = p.classes[i % 2].clone();
            copy.name = format!("{}{i}", copy.name);
            p.classes.push(copy);
        }
        let reference = weaver.weave_naive(&p).unwrap();
        // One thread takes the sequential side, two and four the rayon side.
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let full = pool.install(|| weaver.weave(&p)).unwrap();
            let obs = comet_obs::Collector::enabled();
            let traced = pool.install(|| traced_weave(&weaver, &p, &obs));
            assert_eq!(full, reference, "weave diverged at {threads} threads");
            assert_eq!(traced, reference, "traced weave diverged at {threads} threads");
        }
    }

    #[test]
    fn indexed_weave_equals_naive_on_mixed_program() {
        let weaver = Weaver::new(mixed_aspects());
        let p = mixed_program();
        let indexed = weaver.weave(&p).unwrap();
        let naive = weaver.weave_naive(&p).unwrap();
        assert_eq!(indexed.program, naive.program);
        assert_eq!(indexed.trace, naive.trace);
        assert!(check_program(&indexed.program).is_empty());
    }

    #[test]
    fn indexed_weave_equals_naive_under_pinned_thread_counts() {
        let weaver = Weaver::new(mixed_aspects());
        let p = mixed_program();
        let reference = weaver.weave_naive(&p).unwrap();
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let woven = pool.install(|| weaver.weave(&p)).unwrap();
            assert_eq!(woven, reference, "diverged at {threads} threads");
        }
    }
}
