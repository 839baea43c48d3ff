//! Differential property tests for [`IncrementalWeaver`]: against the
//! full [`Weaver::weave`] oracle, the spliced result must be
//! byte-identical — program and trace — for arbitrary edit sequences
//! and, crucially, for **arbitrary dirty-set claims**, including lies
//! (claiming a changed class clean). Correctness rests on the per-class
//! input-equality guard, not on the caller's dirty set being precise;
//! the dirty set only bounds how much work a *truthful* caller pays.

use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect, IncrementalWeaver, Weaver};
use comet_codegen::{Block, ClassDecl, Expr, IrType, MethodDecl, Param, Program, Stmt};
use proptest::prelude::*;
use std::collections::BTreeSet;

const CLASSES: [&str; 4] = ["C0", "C1", "C2", "C3"];
const METHODS: [&str; 4] = ["m0", "m1", "m2", "m3"];

const EXEC_PCS: [&str; 6] = [
    "execution(C0.m0)",
    "execution(C1.*)",
    "execution(*.m1)",
    "execution(*.*)",
    "execution(C*.m*)",
    "execution(*.*) && args(1)",
];

const CALL_PCS: [&str; 3] = ["call(*.m0)", "call(C1.m1)", "call(*.*)"];

fn log_stmt(tag: &str) -> Stmt {
    Stmt::Expr(Expr::intrinsic("log.emit", vec![Expr::str("info"), Expr::str(tag)]))
}

fn build_stmt(shape: u8, callee: u8) -> Stmt {
    let callee = METHODS[callee as usize % METHODS.len()];
    let call = Expr::call_this(callee.to_owned(), vec![]);
    match shape % 4 {
        0 => Stmt::Expr(call),
        1 => Stmt::local("tmp", IrType::Int, call),
        2 => Stmt::While { cond: Expr::bool(false), body: Block::of(vec![Stmt::Expr(call)]) },
        _ => log_stmt("plain"),
    }
}

/// Per class: methods as `(has_param, statements as (shape, callee))`.
type ClassSpec = Vec<(bool, Vec<(u8, u8)>)>;

fn build_program(spec: &[ClassSpec]) -> Program {
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

fn build_aspects(spec: &[Vec<(bool, u8, u8)>]) -> Vec<Aspect> {
    spec.iter()
        .enumerate()
        .map(|(i, advices)| {
            let mut aspect = Aspect::new(format!("asp{i}"));
            for &(is_call, kind, pc) in advices {
                let (kind, pointcut) = if is_call {
                    let kind = if kind % 2 == 0 { AdviceKind::Before } else { AdviceKind::After };
                    (kind, CALL_PCS[pc as usize % CALL_PCS.len()])
                } else {
                    let kinds = [AdviceKind::Before, AdviceKind::After, AdviceKind::AfterReturning];
                    (kinds[kind as usize % kinds.len()], EXEC_PCS[pc as usize % EXEC_PCS.len()])
                };
                aspect = aspect.with_advice(Advice::new(
                    kind,
                    parse_pointcut(pointcut).expect("pool pointcuts parse"),
                    Block::of(vec![log_stmt("advice")]),
                ));
            }
            aspect
        })
        .collect()
}

/// One program edit; seeds select targets modulo current size so every
/// sequence is applicable. Returns the names of the classes it touched.
#[derive(Debug, Clone)]
enum Edit {
    AddStmt(u8, u8, u8, u8),
    AddMethod(u8, u8),
    AddClass(u8),
    RemoveClass(u8),
    Nothing,
}

fn apply_edit(program: &mut Program, edit: &Edit) -> Vec<String> {
    match edit {
        Edit::AddStmt(c, m, shape, callee) => {
            if program.classes.is_empty() {
                return Vec::new();
            }
            let ci = *c as usize % program.classes.len();
            let class = &mut program.classes[ci];
            if class.methods.is_empty() {
                return Vec::new();
            }
            let mi = *m as usize % class.methods.len();
            class.methods[mi].body.stmts.push(build_stmt(*shape, *callee));
            vec![class.name.clone()]
        }
        Edit::AddMethod(c, m) => {
            if program.classes.is_empty() {
                return Vec::new();
            }
            let ci = *c as usize % program.classes.len();
            let class = &mut program.classes[ci];
            let mut method = MethodDecl::new(METHODS[*m as usize % METHODS.len()]);
            method.body = Block::of(vec![log_stmt("fresh")]);
            class.methods.push(method);
            vec![class.name.clone()]
        }
        Edit::AddClass(seed) => {
            let mut class = ClassDecl::new(format!("N{seed}"));
            let mut method = MethodDecl::new(METHODS[*seed as usize % METHODS.len()]);
            method.body = Block::of(vec![log_stmt("new-class")]);
            class.methods.push(method);
            let name = class.name.clone();
            program.classes.push(class);
            vec![name]
        }
        Edit::RemoveClass(c) => {
            if program.classes.len() <= 1 {
                return Vec::new();
            }
            let ci = *c as usize % program.classes.len();
            vec![program.classes.remove(ci).name]
        }
        Edit::Nothing => Vec::new(),
    }
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(c, m, s, k)| Edit::AddStmt(c, m, s, k)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(c, m, s, k)| Edit::AddStmt(c, m, s, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, m)| Edit::AddMethod(c, m)),
        any::<u8>().prop_map(Edit::AddClass),
        any::<u8>().prop_map(Edit::RemoveClass),
        Just(Edit::Nothing),
    ]
}

/// How the caller reports the dirty set to the incremental weaver.
/// `Lie` claims nothing changed — the equality guard must compensate.
#[derive(Debug, Clone)]
enum Claim {
    Exact,
    Unknown,
    Padded(u8),
    Lie,
}

fn arb_claim() -> impl Strategy<Value = Claim> {
    prop_oneof![
        Just(Claim::Exact),
        Just(Claim::Exact),
        Just(Claim::Unknown),
        any::<u8>().prop_map(Claim::Padded),
        any::<u8>().prop_map(Claim::Padded),
        Just(Claim::Lie),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole differential property: after every edit, the
    /// incremental weave equals the full weave byte-for-byte no matter
    /// how the dirty set was reported.
    #[test]
    fn incremental_weave_matches_full_weave_under_arbitrary_claims(
        pspec in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), prop::collection::vec((any::<u8>(), any::<u8>()), 0..4)),
                1..4,
            ),
            1..5,
        ),
        aspec in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 1..3),
            0..4,
        ),
        edits in prop::collection::vec((arb_edit(), arb_claim()), 1..10),
    ) {
        let mut program = build_program(&pspec);
        let aspects = build_aspects(&aspec);
        let full = Weaver::new(aspects.clone());
        let mut incremental = IncrementalWeaver::new(Weaver::new(aspects));
        let mut revision = 0u64;
        let off = comet_obs::Collector::disabled();

        // Prime the cache with the base program.
        let oracle = full.weave(&program).expect("pool aspects are weavable");
        let (got, _) = incremental.weave_at(revision, &program, None, &off).expect("weavable");
        prop_assert_eq!(&*got, &oracle, "priming weave diverged");

        for (edit, claim) in &edits {
            let touched = apply_edit(&mut program, edit);
            if !touched.is_empty() {
                revision += 1;
            }
            let dirty: Option<BTreeSet<String>> = match claim {
                Claim::Exact => Some(touched.iter().cloned().collect()),
                Claim::Unknown => None,
                Claim::Padded(seed) => {
                    let mut set: BTreeSet<String> = touched.iter().cloned().collect();
                    set.insert(CLASSES[*seed as usize % CLASSES.len()].to_owned());
                    Some(set)
                }
                Claim::Lie => Some(BTreeSet::new()),
            };
            let oracle = full.weave(&program).expect("pool aspects are weavable");
            let (got, stats) =
                incremental.weave_at(revision, &program, dirty.as_ref(), &off).expect("weavable");
            prop_assert_eq!(&got.program, &oracle.program, "programs diverged after {:?}", edit);
            prop_assert_eq!(&got.trace, &oracle.trace, "traces diverged after {:?}", edit);
            prop_assert!(stats.rewoven <= stats.total);
            if touched.is_empty() {
                // No edit, same revision and input: must be a full hit.
                prop_assert!(stats.hit, "unchanged program missed the cache");
                prop_assert_eq!(stats.rewoven, 0, "unchanged program re-wove classes");
            }
        }
    }
}
