//! Quickstart: the paper's Fig. 1 pipeline on one concern.
//!
//! One parameter set `Si` specializes a generic model transformation
//! *and* its paired generic aspect; the concrete transformation refines
//! the model, the concrete aspect is woven into the generated code, and
//! the resulting program runs on the simulated middleware.
//!
//! Run with: `cargo run --example quickstart`

use comet::MdaLifecycle;
use comet_codegen::{Block, BodyProvider, Expr, IrBinOp, Stmt};
use comet_concerns::transactions;
use comet_interp::{Interp, Value};
use comet_model::sample::banking_pim;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The PIM: the functional banking model, no concern anywhere.
    let pim = banking_pim();
    println!("PIM `{}` with {} elements", pim.name(), pim.len());

    // 2. The refinement step: specialize the transactions concern with
    //    the application-specific Si and apply it.
    let workflow = WorkflowModel::new("quickstart").step("transactions", false);
    let mut mda = MdaLifecycle::new(pim, workflow)?;
    let si = ParamSet::new()
        .with("methods", ParamValue::from(vec!["Account.withdraw".to_owned()]))
        .with("isolation", ParamValue::from("serializable"));
    let step = mda.apply_concern(&transactions::pair(), si)?;
    println!("applied {}", step.cmt.full_name());
    println!("paired aspect {}", step.aspect.name);

    // 3. Code generation: functional generator + aspect generator, then
    //    weaving (the paper's alternative to a monolithic generator).
    let withdraw_body = Block::of(vec![
        // this.balance = this.balance - amount; fail when overdrawn
        Stmt::set_this_field(
            "balance",
            Expr::binary(IrBinOp::Sub, Expr::this_field("balance"), Expr::var("amount")),
        ),
        Stmt::If {
            cond: Expr::binary(IrBinOp::Lt, Expr::this_field("balance"), Expr::int(0)),
            then_block: Block::of(vec![Stmt::Throw(Expr::str("overdrawn"))]),
            else_block: None,
        },
        Stmt::ret(Expr::bool(true)),
    ]);
    let bodies = BodyProvider::new().provide("Account::withdraw", withdraw_body);
    let system = mda.generate(&bodies, comet::Backend::JavaFunctional)?;
    println!("\n--- generated aspect artifact ---");
    println!("{}", system.aspect_sources[0].1);

    // 4. Execution: the woven program on the simulated middleware.
    let mut interp = Interp::new(system.woven().clone());
    let account = interp.create("Account")?;
    interp.set_field(&account, "balance", Value::Int(100))?;

    // A successful withdrawal commits.
    let ok = interp.call(account.clone(), "withdraw", vec![Value::Int(30)])?;
    println!("withdraw(30) -> {ok}, balance = {}", interp.field(&account, "balance")?);

    // An overdraft throws inside the transaction; the aspect rolls the
    // balance back — transactional behaviour the functional code never
    // mentioned.
    let err = interp
        .call(account.clone(), "withdraw", vec![Value::Int(500)])
        .expect_err("overdraft must fail");
    println!("withdraw(500) -> {err}");
    println!("balance after rollback = {}", interp.field(&account, "balance")?);
    assert_eq!(interp.field(&account, "balance")?, Value::Int(70));

    let tx = interp.middleware().tx.stats();
    println!(
        "\ntransactions: begun={} committed={} rolled_back={}",
        tx.begun, tx.committed, tx.rolled_back
    );
    Ok(())
}
