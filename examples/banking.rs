//! The paper's running example (Fig. 2): a banking system refined along
//! three middleware-service concern dimensions — **C1 distribution, C2
//! transactions, C3 security** — each a generic transformation `T_i`
//! specialized with application parameters and paired with an
//! auto-generated aspect `A_i<p_i1, ...>`. The woven system then runs on
//! the simulated middleware, where all three concerns are *observable*:
//! remote calls cross the bus, a mid-transfer crash rolls balances back,
//! and an unauthorized principal is denied.
//!
//! Run with: `cargo run --example banking`

use comet::MdaLifecycle;
use comet_codegen::{Block, BodyProvider, Expr, FunctionalGenerator, IrBinOp, IrType, Stmt};
use comet_concerns::{distribution, security, transactions};
use comet_interp::{Interp, Value};
use comet_model::{Model, ModelBuilder, Primitive, TypeRef};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::{OrderConstraint, WorkflowModel};

/// A banking PIM whose `Bank` holds two `Account` references so the
/// functional `transfer` body has real state to act on.
fn pim() -> Model {
    let mut model = ModelBuilder::new("bank")
        .class("Account", |c| {
            c.attribute("number", Primitive::Str)?.attribute("balance", Primitive::Int)
        })
        .expect("valid model")
        .build();
    let account = model.find_class("Account").expect("just added");
    let root = model.root();
    let bank = model.add_class(root, "Bank").expect("valid");
    model.add_attribute(bank, "a1", TypeRef::Element(account)).expect("valid");
    model.add_attribute(bank, "a2", TypeRef::Element(account)).expect("valid");
    let transfer = model.add_operation(bank, "transfer").expect("valid");
    for p in ["from", "to"] {
        model.add_parameter(transfer, p, Primitive::Str.into()).expect("valid");
    }
    model.add_parameter(transfer, "amount", Primitive::Int.into()).expect("valid");
    model.set_return_type(transfer, Primitive::Bool.into()).expect("valid");
    let get_balance = model.add_operation(bank, "getBalance").expect("valid");
    model.add_parameter(get_balance, "number", Primitive::Str.into()).expect("valid");
    model.set_return_type(get_balance, Primitive::Int.into()).expect("valid");
    model
}

/// Picks `this.a1` or `this.a2` by account number into local `var`.
fn select_account(var: &str, number_param: &str) -> Vec<Stmt> {
    vec![
        Stmt::local(var, IrType::Object("Account".into()), Expr::this_field("a1")),
        Stmt::If {
            cond: Expr::binary(
                IrBinOp::Ne,
                Expr::Field { recv: Box::new(Expr::var(var)), name: "number".into() },
                Expr::var(number_param),
            ),
            then_block: Block::of(vec![Stmt::set_var(var, Expr::this_field("a2"))]),
            else_block: None,
        },
    ]
}

/// The hand-written functional bodies (the MDA "protected regions").
/// Note: not a word about distribution, transactions or security.
fn bodies() -> BodyProvider {
    let mut transfer = Vec::new();
    transfer.extend(select_account("src", "from"));
    transfer.extend(select_account("dst", "to"));
    transfer.extend([
        Stmt::If {
            cond: Expr::binary(
                IrBinOp::Lt,
                Expr::Field { recv: Box::new(Expr::var("src")), name: "balance".into() },
                Expr::var("amount"),
            ),
            then_block: Block::of(vec![Stmt::Throw(Expr::str("insufficient funds"))]),
            else_block: None,
        },
        // Debit first...
        Stmt::Assign {
            target: comet_codegen::LValue::Field { recv: Expr::var("src"), name: "balance".into() },
            value: Expr::binary(
                IrBinOp::Sub,
                Expr::Field { recv: Box::new(Expr::var("src")), name: "balance".into() },
                Expr::var("amount"),
            ),
        },
        // ... crash between debit and credit when amount == 13 — the
        // failure the transactions concern must contain.
        Stmt::If {
            cond: Expr::binary(IrBinOp::Eq, Expr::var("amount"), Expr::int(13)),
            then_block: Block::of(vec![Stmt::Throw(Expr::str("simulated crash after debit"))]),
            else_block: None,
        },
        Stmt::Assign {
            target: comet_codegen::LValue::Field { recv: Expr::var("dst"), name: "balance".into() },
            value: Expr::binary(
                IrBinOp::Add,
                Expr::Field { recv: Box::new(Expr::var("dst")), name: "balance".into() },
                Expr::var("amount"),
            ),
        },
        Stmt::ret(Expr::bool(true)),
    ]);

    let mut get_balance = select_account("acc", "number");
    get_balance
        .push(Stmt::ret(Expr::Field { recv: Box::new(Expr::var("acc")), name: "balance".into() }));

    BodyProvider::new()
        .provide("Bank::transfer", Block::of(transfer))
        .provide("Bank::getBalance", Block::of(get_balance))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- model level: T1, T2, T3 specialized and applied in order ----
    let workflow = WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false)
        .constraint(OrderConstraint::Before("distribution".into(), "security".into()));
    let mut mda = MdaLifecycle::new(pim(), workflow)?;

    let t1 = ParamSet::new()
        .with("server_class", ParamValue::from("Bank"))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(vec!["transfer".to_owned(), "getBalance".to_owned()]));
    let t2 = ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("isolation", ParamValue::from("serializable"));
    let t3 = ParamSet::new()
        .with("protected", ParamValue::from(vec!["Bank.transfer:teller".to_owned()]));

    for (pair, si) in
        [(distribution::pair(), t1), (transactions::pair(), t2), (security::pair(), t3)]
    {
        let step = mda.apply_concern(&pair, si)?;
        println!("T: {}", step.cmt.full_name());
        println!("A: {}", step.aspect.name);
    }
    println!("\ncolors report:\n{}", mda.colors());

    // ----- code level: functional codegen + aspect weaving -------------
    let system = mda.generate(&bodies(), comet::Backend::JavaFunctional)?;
    let functional = FunctionalGenerator::new().generate(mda.model(), &bodies());
    println!(
        "functional: {} stmts | woven: {} stmts | advice applications: {}",
        functional.statement_count(),
        system.woven().statement_count(),
        system.weave_trace().len()
    );

    // ----- execution on the simulated middleware -----------------------
    let mut interp = Interp::new(system.woven().clone());
    interp.add_node("client");
    interp.add_node("server");
    interp.add_principal("alice", &["teller"]);
    interp.add_principal("bob", &["customer"]);

    let bank = interp.create_on("Bank", "server")?;
    let a1 = interp.create_on("Account", "server")?;
    let a2 = interp.create_on("Account", "server")?;
    interp.set_field(&a1, "number", Value::from("A-1"))?;
    interp.set_field(&a1, "balance", Value::Int(1_000))?;
    interp.set_field(&a2, "number", Value::from("A-2"))?;
    interp.set_field(&a2, "balance", Value::Int(50))?;
    interp.set_field(&bank, "a1", a1.clone())?;
    interp.set_field(&bank, "a2", a2.clone())?;
    interp.call(bank.clone(), "registerRemote", vec![])?;

    // All client activity happens on the client node; the distribution
    // aspect routes it through the bus.
    interp.middleware_mut().bus.set_current_node("client")?;

    println!("\n== alice (teller) transfers 200 from A-1 to A-2, remotely ==");
    interp.login("alice")?;
    let ok = interp.call(
        bank.clone(),
        "transfer",
        vec![Value::from("A-1"), Value::from("A-2"), Value::Int(200)],
    )?;
    println!(
        "  -> {ok}; balances now A-1={} A-2={}",
        interp.field(&a1, "balance")?,
        interp.field(&a2, "balance")?
    );

    println!("== alice transfers the cursed amount 13: crash mid-transfer ==");
    let err = interp
        .call(
            bank.clone(),
            "transfer",
            vec![Value::from("A-1"), Value::from("A-2"), Value::Int(13)],
        )
        .expect_err("the simulated crash must surface");
    println!("  -> {err}");
    println!(
        "  -> balances after rollback: A-1={} A-2={} (unchanged)",
        interp.field(&a1, "balance")?,
        interp.field(&a2, "balance")?
    );
    assert_eq!(interp.field(&a1, "balance")?, Value::Int(800));
    assert_eq!(interp.field(&a2, "balance")?, Value::Int(250));

    println!("== bob (customer) tries to transfer: denied by the security aspect ==");
    interp.logout();
    interp.login("bob")?;
    let err = interp
        .call(bank.clone(), "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(1)])
        .expect_err("bob lacks the teller role");
    println!("  -> {err}");

    let bus = interp.middleware().bus.stats();
    let tx = interp.middleware().tx.stats();
    let denials = interp.middleware().security.denials();
    println!(
        "\nmiddleware evidence: {} messages ({} bytes, mean {:.0}us), \
         tx committed={} rolled_back={}, security denials={}",
        bus.delivered,
        bus.bytes,
        bus.mean_latency_us(),
        tx.committed,
        tx.rolled_back,
        denials
    );
    assert!(bus.delivered >= 6, "three remote calls, two messages each");
    assert_eq!(tx.rolled_back, 2, "crash rollback + denial rollback");
    assert_eq!(denials, 1);
    Ok(())
}
