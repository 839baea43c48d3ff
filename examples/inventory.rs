//! Persistence + context-sensitive logging: an inventory service whose
//! entities are saved to the simulated document store after every
//! mutator, with audit logging that fires **only within the control flow
//! of `Warehouse.checkout`** — a `cflow(...)` pointcut, the dynamic
//! residue feature AspectJ is known for, composed with a concern pair
//! from the standard library.
//!
//! Run with: `cargo run --example inventory`

use comet::MdaLifecycle;
use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect, Weaver};
use comet_codegen::{Block, BodyProvider, Expr, FunctionalGenerator, IrBinOp, Stmt};
use comet_concerns::persistence;
use comet_interp::{Interp, Value};
use comet_model::{Model, ModelBuilder, Primitive, TypeRef};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;

fn pim() -> Model {
    let mut model = ModelBuilder::new("inventory")
        .class("Item", |c| {
            c.attribute("sku", Primitive::Str)?
                .attribute("stock", Primitive::Int)?
                .operation("adjust", |o| o.parameter("delta", Primitive::Int))
        })
        .expect("valid model")
        .build();
    let item = model.find_class("Item").expect("just added");
    let root = model.root();
    let warehouse = model.add_class(root, "Warehouse").expect("valid");
    model.add_attribute(warehouse, "item", TypeRef::Element(item)).expect("valid");
    let checkout = model.add_operation(warehouse, "checkout").expect("valid");
    model.add_parameter(checkout, "n", Primitive::Int.into()).expect("valid");
    model.set_return_type(checkout, Primitive::Bool.into()).expect("valid");
    let restock = model.add_operation(warehouse, "restock").expect("valid");
    model.add_parameter(restock, "n", Primitive::Int.into()).expect("valid");
    model
}

fn bodies() -> BodyProvider {
    let item_stock =
        || Expr::Field { recv: Box::new(Expr::this_field("item")), name: "stock".into() };
    // checkout(n): refuse when out of stock, otherwise adjust(-n).
    let checkout = Block::of(vec![
        Stmt::If {
            cond: Expr::binary(IrBinOp::Lt, item_stock(), Expr::var("n")),
            then_block: Block::of(vec![Stmt::ret(Expr::bool(false))]),
            else_block: None,
        },
        Stmt::Expr(Expr::call(
            Expr::this_field("item"),
            "adjust",
            vec![Expr::binary(IrBinOp::Mul, Expr::int(-1), Expr::var("n"))],
        )),
        Stmt::ret(Expr::bool(true)),
    ]);
    let restock = Block::of(vec![Stmt::Expr(Expr::call(
        Expr::this_field("item"),
        "adjust",
        vec![Expr::var("n")],
    ))]);
    let adjust = Block::of(vec![Stmt::set_this_field(
        "stock",
        Expr::binary(IrBinOp::Add, Expr::this_field("stock"), Expr::var("delta")),
    )]);
    BodyProvider::new()
        .provide("Warehouse::checkout", checkout)
        .provide("Warehouse::restock", restock)
        .provide("Item::adjust", adjust)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Model level: the persistence concern through the lifecycle.
    let workflow = WorkflowModel::new("inventory").step("persistence", false);
    let mut mda = MdaLifecycle::new(pim(), workflow)?;
    let step = mda.apply_concern(
        &persistence::pair(),
        ParamSet::new()
            .with("class", ParamValue::from("Item"))
            .with("key_attr", ParamValue::from("sku"))
            .with("mutators", ParamValue::from(vec!["adjust".to_owned()]))
            .with("collection", ParamValue::from("items")),
    )?;
    println!("applied {}", step.cmt.full_name());

    // Code level: the lifecycle-generated aspects PLUS a hand-written
    // audit aspect restricted to the checkout control flow.
    let functional = FunctionalGenerator::new().generate(mda.model(), &bodies());
    let audit = Aspect::new("checkout-audit").with_advice(Advice::new(
        AdviceKind::Before,
        parse_pointcut("execution(Item.adjust) && cflow(execution(Warehouse.checkout))")?,
        Block::of(vec![Stmt::Expr(Expr::intrinsic(
            "log.emit",
            vec![
                Expr::str("audit"),
                Expr::binary(
                    IrBinOp::Add,
                    Expr::str("stock change in checkout: "),
                    Expr::var("__jp"),
                ),
            ],
        ))]),
    ));
    let mut aspects = mda.aspects();
    aspects.push(audit);
    let woven = Weaver::new(aspects).weave(&functional)?.program;

    // Execution.
    let mut interp = Interp::new(woven);
    let item = interp.create("Item")?;
    interp.set_field(&item, "sku", Value::from("SKU-1"))?;
    let warehouse = interp.create("Warehouse")?;
    interp.set_field(&warehouse, "item", item.clone())?;

    interp.call(warehouse.clone(), "restock", vec![Value::Int(10)])?;
    println!(
        "after restock(10): stock={}, audit records={}",
        interp.field(&item, "stock")?,
        interp.middleware().log.count_level("audit")
    );

    let ok = interp.call(warehouse.clone(), "checkout", vec![Value::Int(4)])?;
    println!(
        "checkout(4) -> {ok}; stock={}, audit records={}",
        interp.field(&item, "stock")?,
        interp.middleware().log.count_level("audit")
    );

    let sold_out = interp.call(warehouse, "checkout", vec![Value::Int(99)])?;
    println!("checkout(99) -> {sold_out} (refused, no audit, no save)");

    // Persistence evidence: every adjust saved a snapshot.
    let store = interp.middleware().store.stats();
    println!("store: {} saves, keys = {:?}", store.saves, interp.middleware().store.keys());

    // Restock was NOT audited (outside the checkout cflow); checkout was.
    assert_eq!(interp.middleware().log.count_level("audit"), 1);
    assert_eq!(store.saves, 2, "restock + successful checkout");
    assert_eq!(interp.field(&item, "stock")?, Value::Int(6));
    Ok(())
}
