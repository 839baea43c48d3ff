//! Differential property tests for the weaver: the indexed, per-class
//! parallel [`Weaver::weave`] must produce byte-identical programs and
//! traces to the sequential full-scan reference in `naive.rs`, for
//! arbitrary programs and arbitrary aspect lists in arbitrary
//! precedence orders. This is the empirical check backing the
//! critical-pair independence argument in `index.rs`.

use crate::{parse_pointcut, Advice, AdviceKind, Aspect, Weaver};
use comet_codegen::{Block, ClassDecl, Expr, IrType, MethodDecl, Param, Program, Stmt};
use proptest::prelude::*;

const CLASSES: [&str; 4] = ["C0", "C1", "C2", "C3"];
const METHODS: [&str; 4] = ["m0", "m1", "m2", "m3"];

/// Execution pointcuts covering literals, wildcards, name patterns,
/// conjunction with args, disjunction, and a cflow conjunct (which
/// makes the weaver synthesize its instrumentation aspect).
const EXEC_PCS: [&str; 8] = [
    "execution(C0.m0)",
    "execution(C1.*)",
    "execution(*.m1)",
    "execution(*.*)",
    "execution(C*.m*)",
    "execution(*.*) && args(1)",
    "execution(C2.m2) || execution(C3.m3)",
    "execution(*.m0) && cflow(execution(C1.m1))",
];

/// Call pointcuts; only before/after advice is legal at call shadows.
const CALL_PCS: [&str; 4] = ["call(*.m0)", "call(*.m2)", "call(C1.m1)", "call(*.*)"];

const EXEC_KINDS: [AdviceKind; 5] = [
    AdviceKind::Before,
    AdviceKind::After,
    AdviceKind::Around,
    AdviceKind::AfterReturning,
    AdviceKind::AfterThrowing,
];

fn log_stmt(tag: &str) -> Stmt {
    Stmt::Expr(Expr::intrinsic("log.emit", vec![Expr::str("info"), Expr::str(tag)]))
}

/// One statement of a generated method body: `shape` picks the
/// statement form, `callee` the target of any embedded call.
fn build_stmt(shape: u8, callee: u8) -> Stmt {
    let callee = METHODS[callee as usize % METHODS.len()];
    let call = Expr::call_this(callee.to_owned(), vec![]);
    match shape % 6 {
        0 => Stmt::Expr(call),
        1 => Stmt::local("tmp", IrType::Int, call),
        2 => Stmt::If {
            cond: Expr::bool(true),
            then_block: Block::of(vec![Stmt::Expr(call)]),
            else_block: Some(Block::of(vec![log_stmt("else")])),
        },
        3 => Stmt::While { cond: Expr::bool(false), body: Block::of(vec![Stmt::Expr(call)]) },
        4 => Stmt::Block(Block::of(vec![log_stmt("nested"), Stmt::Expr(call)])),
        _ => log_stmt("plain"),
    }
}

/// `(has_param, body statement seeds)` per method slot.
type MethodSpec = (bool, Vec<(u8, u8)>);

fn build_program(spec: &[Vec<MethodSpec>]) -> Program {
    let mut p = Program::new("prop");
    for (ci, methods) in spec.iter().enumerate() {
        let mut class = ClassDecl::new(CLASSES[ci % CLASSES.len()]);
        for (mi, (has_param, stmts)) in methods.iter().enumerate() {
            let mut m = MethodDecl::new(METHODS[mi % METHODS.len()]);
            if *has_param {
                m.params.push(Param::new("x", IrType::Int));
                m.ret = IrType::Int;
            }
            m.body = Block::of(stmts.iter().map(|&(s, c)| build_stmt(s, c)).collect());
            class.methods.push(m);
        }
        p.classes.push(class);
    }
    p
}

/// `(name seed, advices as (is_call, kind seed, pointcut seed))`.
type AspectSpec = Vec<(bool, u8, u8)>;

fn build_aspects(spec: &[AspectSpec]) -> Vec<Aspect> {
    spec.iter()
        .enumerate()
        .map(|(i, advices)| {
            let mut aspect = Aspect::new(format!("asp{i}"));
            for &(is_call, kind, pc) in advices {
                let (kind, pointcut) = if is_call {
                    let kind = if kind % 2 == 0 { AdviceKind::Before } else { AdviceKind::After };
                    (kind, CALL_PCS[pc as usize % CALL_PCS.len()])
                } else {
                    (
                        EXEC_KINDS[kind as usize % EXEC_KINDS.len()],
                        EXEC_PCS[pc as usize % EXEC_PCS.len()],
                    )
                };
                let body = if kind == AdviceKind::Around {
                    Block::of(vec![log_stmt("around"), Stmt::ret(Expr::Proceed(vec![]))])
                } else {
                    Block::of(vec![log_stmt("advice")])
                };
                aspect = aspect.with_advice(Advice::new(
                    kind,
                    parse_pointcut(pointcut).expect("pool pointcuts parse"),
                    body,
                ));
            }
            aspect
        })
        .collect()
}

fn arb_method() -> impl Strategy<Value = MethodSpec> {
    (any::<bool>(), prop::collection::vec((any::<u8>(), any::<u8>()), 0..5))
}

fn arb_program_spec() -> impl Strategy<Value = Vec<Vec<MethodSpec>>> {
    prop::collection::vec(prop::collection::vec(arb_method(), 1..4), 1..5)
}

fn arb_aspect_spec() -> impl Strategy<Value = Vec<AspectSpec>> {
    prop::collection::vec(
        prop::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 1..4),
        0..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core differential property: indexed parallel weave ≡ naive
    /// sequential weave, program and trace, for arbitrary programs and
    /// arbitrary aspect orders.
    #[test]
    fn indexed_parallel_weave_matches_naive(
        pspec in arb_program_spec(),
        aspec in arb_aspect_spec(),
    ) {
        let program = build_program(&pspec);
        let weaver = Weaver::new(build_aspects(&aspec));
        let indexed = weaver.weave(&program).expect("pool aspects are weavable");
        let naive = weaver.weave_naive(&program).expect("pool aspects are weavable");
        prop_assert_eq!(&indexed.program, &naive.program);
        prop_assert_eq!(&indexed.trace, &naive.trace);
    }

    /// Reversing the aspect list is still deterministic: both paths see
    /// the same (different) precedence order and stay identical.
    #[test]
    fn aspect_order_reversal_keeps_paths_identical(
        pspec in arb_program_spec(),
        aspec in arb_aspect_spec(),
    ) {
        let program = build_program(&pspec);
        let mut aspects = build_aspects(&aspec);
        aspects.reverse();
        let weaver = Weaver::new(aspects);
        let indexed = weaver.weave(&program).expect("weavable");
        let naive = weaver.weave_naive(&program).expect("weavable");
        prop_assert_eq!(&indexed.program, &naive.program);
        prop_assert_eq!(&indexed.trace, &naive.trace);
    }

    /// Woven programs are full of `__` helper methods and synthesized
    /// blocks — re-weaving one stresses the helper-exclusion rules, and
    /// the two paths must still agree statement-for-statement.
    #[test]
    fn paths_agree_on_already_woven_input(
        pspec in arb_program_spec(),
        aspec in arb_aspect_spec(),
    ) {
        let program = build_program(&pspec);
        let weaver = Weaver::new(build_aspects(&aspec));
        let once = weaver.weave(&program).expect("weavable");
        let twice = weaver.weave(&once.program).expect("weavable");
        let twice_naive = weaver.weave_naive(&once.program).expect("weavable");
        prop_assert_eq!(&twice.program, &twice_naive.program);
        prop_assert_eq!(&twice.trace, &twice_naive.trace);
    }
}
