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
//! assembled phase by phase in class order: all call records, then all
//! execution records. The unit tests pin output and trace byte for byte
//! against a sequential reference weaver kept in test code
//! (`weaver/naive.rs`, checked by `weaver/properties.rs`). The worker
//! thread count follows the ambient rayon pool: wrap the call in
//! `ThreadPool::install` (as `comet-cli --threads` does) to pin it.
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
        // Reassemble in class order with one global phase order: all
        // call records first, then all execution records.
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

    // Execution pass, after the call pass: the functional helper must
    // reify the call-woven body.
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
/// matched for its callee. Call shadows are only recognized at
/// statement position (the IR has no statement-level expression
/// evaluation order to exploit); structured statements are recursed
/// into so nested shadows are found.
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
// Execution-layer construction
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
mod naive;
#[cfg(test)]
mod properties;

#[cfg(test)]
mod tests;
