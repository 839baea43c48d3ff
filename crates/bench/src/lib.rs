//! # comet-bench — the experiment benchmarks
//!
//! Every number the reproduction reports comes from one of the
//! `bench_*_json` bins, each writing one committed `BENCH_*.json`
//! through the shared [`harness`]. This library holds that harness and
//! the workload builders the bins share: the executable banking system
//! (PIM + functional bodies, from [`comet::chaos`]), standard parameter
//! sets, and synthetic scaling models.

use comet_codegen::{Block, Expr, IrBinOp, Stmt};
use comet_interp::{Interp, Value};
use comet_transform::{ParamSet, ParamValue};

pub mod harness;

pub use comet::chaos::{banking_bodies, dist_si, executable_banking_pim, tx_si};
pub use comet_model::sample::synthetic;

/// Standard security `Si` for the banking workload.
pub fn sec_si() -> ParamSet {
    ParamSet::new().with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]))
}

/// The fault-tolerance `Si` the overhead bins weave: `Bank.transfer`,
/// retried as idempotent.
pub fn ft_si() -> ParamSet {
    ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("idempotent", ParamValue::from(vec!["Bank.transfer".to_owned()]))
}

/// The banking PIM refined by `concerns` (each one of distribution,
/// transactions and fault tolerance, with its standard `Si`), its
/// functional program, and the concrete aspects in application order.
pub fn refined_banking(concerns: &[&str]) -> (comet_codegen::Program, Vec<comet_aop::Aspect>) {
    let mut model = executable_banking_pim();
    let aspects = concerns
        .iter()
        .map(|&name| {
            let si = match name {
                "distribution" => dist_si(),
                "transactions" => tx_si(),
                _ => ft_si(),
            };
            let pair = comet_concerns::by_name(name).expect("standard concern");
            let (cmt, ca) = pair.specialize(si).expect("valid Si");
            cmt.apply(&mut model).expect("preconditions hold");
            ca
        })
        .collect();
    (comet_codegen::FunctionalGenerator::new().generate(&model, &banking_bodies()), aspects)
}

/// [`refined_banking`] woven and instantiated: the interpreter on the
/// client node, the remote bank and the two accounts.
pub fn woven_banking(concerns: &[&str]) -> (Interp, Value, Value, Value) {
    let (functional, aspects) = refined_banking(concerns);
    let woven = comet_aop::Weaver::new(aspects).weave(&functional).expect("weaves").program;
    let mut interp = Interp::new(woven);
    interp.add_node("client");
    interp.add_node("server");
    let bank = interp.create_on("Bank", "server").expect("generated");
    let a1 = interp.create_on("Account", "server").expect("generated");
    let a2 = interp.create_on("Account", "server").expect("generated");
    interp.set_field(&a1, "number", Value::from("A-1")).expect("field");
    interp.set_field(&a2, "number", Value::from("A-2")).expect("field");
    interp.set_field(&bank, "a1", a1.clone()).expect("field");
    interp.set_field(&bank, "a2", a2.clone()).expect("field");
    interp.call(bank.clone(), "registerRemote", vec![]).expect("distribution applied");
    interp.middleware_mut().bus.set_current_node("client").expect("node exists");
    (interp, bank, a1, a2)
}

/// One run of the fault-free transfer workload ([`comet::chaos::workload`],
/// which never transfers 13, the amount the functional body crashes
/// on): resets both balances to [`comet::chaos::INITIAL_BALANCES`],
/// then makes `transfers` calls.
pub fn run_transfers(interp: &mut Interp, bank: &Value, a1: &Value, a2: &Value, transfers: u32) {
    use comet::chaos::{workload, INITIAL_BALANCES};
    interp.set_field(a1, "balance", Value::Int(INITIAL_BALANCES.0)).expect("field");
    interp.set_field(a2, "balance", Value::Int(INITIAL_BALANCES.1)).expect("field");
    for i in 0..transfers {
        let (from, to, amount) = workload(i);
        let args = vec![Value::from(from), Value::from(to), Value::Int(amount)];
        std::hint::black_box(interp.call(bank.clone(), "transfer", args).expect("fault-free call"));
    }
}

/// Instantiates the banking object graph; returns `(interp, bank)` ready
/// for `transfer` calls (alice logged in, executing on the server node).
pub fn ready_interp(program: comet_codegen::Program) -> (Interp, Value) {
    let mut interp = Interp::new(program);
    interp.add_node("client");
    interp.add_node("server");
    interp.add_principal("alice", &["teller"]);
    let bank = interp.create_on("Bank", "server").expect("Bank generated");
    let a1 = interp.create_on("Account", "server").expect("Account generated");
    let a2 = interp.create_on("Account", "server").expect("Account generated");
    interp.set_field(&a1, "number", Value::from("A-1")).expect("field");
    interp.set_field(&a1, "balance", Value::Int(1_000_000_000)).expect("field");
    interp.set_field(&a2, "number", Value::from("A-2")).expect("field");
    interp.set_field(&a2, "balance", Value::Int(0)).expect("field");
    interp.set_field(&bank, "a1", a1).expect("field");
    interp.set_field(&bank, "a2", a2).expect("field");
    if interp.program().find_method("Bank", "registerRemote").is_some() {
        interp.call(bank.clone(), "registerRemote", vec![]).expect("registration");
    }
    interp.middleware_mut().bus.set_current_node("server").expect("node exists");
    interp.login("alice").expect("principal exists");
    interp.set_step_budget(u64::MAX);
    (interp, bank)
}

/// The E10 weaver scaling workload: `classes` classes of
/// `methods_per_class` methods, each with a realistically sized body —
/// a stretch of local arithmetic and branching around call shadows
/// (plain, in a conditional, and in a loop) — so both the execution and
/// the call passes do real work and snapshot clones cost what they
/// would on production IR.
pub fn weaver_program(classes: usize, methods_per_class: usize) -> comet_codegen::Program {
    use comet_codegen::{ClassDecl, IrType, MethodDecl, Param, Program};
    let mut p = Program::new("scale");
    for c in 0..classes {
        let mut class = ClassDecl::new(format!("C{c}"));
        for m in 0..methods_per_class {
            let mut method = MethodDecl::new(format!("m{m}"));
            method.params.push(Param::new("x", IrType::Int));
            method.ret = IrType::Int;
            let callee = |i: usize| {
                Stmt::Expr(Expr::call_this(
                    format!("m{}", (m + i) % methods_per_class),
                    vec![Expr::var("x")],
                ))
            };
            let mut stmts = vec![Stmt::local("acc", IrType::Int, Expr::var("x"))];
            for k in 0..8i64 {
                stmts.push(Stmt::set_var(
                    "acc",
                    Expr::binary(IrBinOp::Add, Expr::var("acc"), Expr::int(k)),
                ));
                stmts.push(Stmt::If {
                    cond: Expr::binary(IrBinOp::Lt, Expr::var("acc"), Expr::int(1000 + k)),
                    then_block: Block::of(vec![Stmt::set_var(
                        "acc",
                        Expr::binary(IrBinOp::Sub, Expr::var("acc"), Expr::int(1)),
                    )]),
                    else_block: Some(Block::of(vec![Stmt::set_var("acc", Expr::int(k))])),
                });
            }
            stmts.extend([
                callee(1),
                Stmt::If {
                    cond: Expr::bool(true),
                    then_block: Block::of(vec![callee(2)]),
                    else_block: None,
                },
                Stmt::While { cond: Expr::bool(false), body: Block::of(vec![callee(3)]) },
                Stmt::ret(Expr::var("acc")),
            ]);
            method.body = Block::of(stmts);
            class.methods.push(method);
        }
        p.classes.push(class);
    }
    p
}

/// The E10 aspect set: a mix of execution advice (before / around /
/// after-returning) and call advice, half targeted at name patterns,
/// half universal — `n` aspects in precedence order.
pub fn weaver_aspects(n: usize) -> Vec<comet_aop::Aspect> {
    use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect};
    let log = |tag: &str| {
        Block::of(vec![Stmt::Expr(Expr::intrinsic(
            "log.emit",
            vec![Expr::str("info"), Expr::str(tag)],
        ))])
    };
    (0..n)
        .map(|i| {
            let mut aspect = Aspect::new(format!("a{i}"));
            aspect = match i % 4 {
                0 => aspect.with_advice(Advice::new(
                    AdviceKind::Before,
                    parse_pointcut("execution(*.*)").expect("valid"),
                    log("before-all"),
                )),
                1 => aspect.with_advice(Advice::new(
                    AdviceKind::Around,
                    parse_pointcut("execution(C*.m0)").expect("valid"),
                    Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
                )),
                2 => aspect.with_advice(Advice::new(
                    AdviceKind::Before,
                    parse_pointcut("call(*.m1)").expect("valid"),
                    log("before-call"),
                )),
                _ => aspect.with_advice(Advice::new(
                    AdviceKind::AfterReturning,
                    parse_pointcut("execution(*.m2) || execution(*.m3)").expect("valid"),
                    log("after-ret"),
                )),
            };
            aspect
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_run() {
        use comet_interp::Value;
        let program = comet_codegen::FunctionalGenerator::new()
            .generate(&executable_banking_pim(), &banking_bodies());
        let (mut interp, bank) = ready_interp(program);
        let ok = interp
            .call(bank, "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(5)])
            .unwrap();
        assert_eq!(ok, Value::Bool(true));
    }
}
