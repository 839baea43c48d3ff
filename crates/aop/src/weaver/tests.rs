//! Unit tests for the weaver: advice shapes, precedence, call shadows,
//! tracing, and agreement with the reference weaver in `naive.rs`.

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
            parse_pointcut("execution(Bank.transfer) && cflow(execution(Teller.serve))").unwrap(),
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
