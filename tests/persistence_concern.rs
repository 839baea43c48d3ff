//! End-to-end test of the persistence concern: mutators save snapshots
//! into the document store, `reload` restores them, and the monolithic
//! baseline produces equivalent store contents.

mod common;

use comet::MdaLifecycle;
use comet_codegen::{Block, BodyProvider, Expr, FunctionalGenerator, IrBinOp, Stmt};
use comet_concerns::persistence;
use comet_interp::{Interp, Value};
use comet_model::{ModelBuilder, Primitive};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;

fn pim() -> comet_model::Model {
    ModelBuilder::new("inventory")
        .class("Item", |c| {
            c.attribute("sku", Primitive::Str)?
                .attribute("stock", Primitive::Int)?
                .operation("receive", |o| o.parameter("n", Primitive::Int))?
                .operation("shipOut", |o| o.parameter("n", Primitive::Int))
        })
        .expect("valid model")
        .build()
}

fn bodies() -> BodyProvider {
    let adjust = |sign: i64| {
        Block::of(vec![Stmt::set_this_field(
            "stock",
            Expr::binary(
                IrBinOp::Add,
                Expr::this_field("stock"),
                Expr::binary(IrBinOp::Mul, Expr::int(sign), Expr::var("n")),
            ),
        )])
    };
    BodyProvider::new().provide("Item::receive", adjust(1)).provide("Item::shipOut", adjust(-1))
}

fn si() -> ParamSet {
    ParamSet::new()
        .with("class", ParamValue::from("Item"))
        .with("key_attr", ParamValue::from("sku"))
        .with("mutators", ParamValue::from(vec!["receive".to_owned(), "shipOut".to_owned()]))
        .with("collection", ParamValue::from("items"))
}

fn lifecycle() -> MdaLifecycle {
    let workflow = WorkflowModel::new("persist").step("persistence", false);
    let mut mda = MdaLifecycle::new(pim(), workflow).unwrap();
    mda.apply_concern(&persistence::pair(), si()).unwrap();
    mda
}

fn drive(program: comet_codegen::Program) -> Interp {
    let mut interp = Interp::new(program);
    let item = interp.create("Item").unwrap();
    interp.set_field(&item, "sku", Value::from("SKU-7")).unwrap();
    interp.call(item.clone(), "receive", vec![Value::Int(10)]).unwrap();
    interp.call(item.clone(), "shipOut", vec![Value::Int(3)]).unwrap();
    // Clobber the live object, then reload from the store.
    interp.set_field(&item, "stock", Value::Int(-999)).unwrap();
    interp.call(item.clone(), "reload", vec![]).unwrap();
    assert_eq!(interp.field(&item, "stock").unwrap(), Value::Int(7));
    interp
}

#[test]
fn woven_persistence_saves_and_reloads() {
    let system = lifecycle().generate(&bodies(), comet::Backend::JavaFunctional).unwrap();
    let interp = drive(system.woven().clone());
    let stats = interp.middleware().store.stats();
    assert_eq!(stats.saves, 2, "one save per mutator call");
    assert_eq!(stats.loads, 1);
    assert_eq!(interp.middleware().store.keys(), vec!["items/SKU-7"]);
}

#[test]
fn monolithic_baseline_is_equivalent() {
    let mda = lifecycle();
    let mono = mda.generate_monolithic(&bodies());
    let interp = drive(mono);
    let stats = interp.middleware().store.stats();
    assert_eq!(stats.saves, 2);
    assert_eq!(stats.loads, 1);
    assert_eq!(interp.middleware().store.keys(), vec!["items/SKU-7"]);
}

#[test]
fn functional_program_knows_nothing_about_the_store() {
    let mda = lifecycle();
    let system = mda.generate(&bodies(), comet::Backend::JavaFunctional).unwrap();
    assert!(!system.functional_source.contains("store."));
    let mut interp = Interp::new(FunctionalGenerator::new().generate(mda.model(), &bodies()));
    let item = interp.create("Item").unwrap();
    interp.set_field(&item, "sku", Value::from("SKU-7")).unwrap();
    interp.call(item.clone(), "receive", vec![Value::Int(10)]).unwrap();
    assert!(interp.middleware().store.is_empty());
    // reload exists (model op) but is advice-free: a no-op default body.
    interp.call(item.clone(), "reload", vec![]).unwrap();
    assert_eq!(interp.field(&item, "stock").unwrap(), Value::Int(10));
}

#[test]
fn reload_miss_returns_cleanly() {
    let system = lifecycle().generate(&bodies(), comet::Backend::JavaFunctional).unwrap();
    let mut interp = Interp::new(system.woven().clone());
    let item = interp.create("Item").unwrap();
    interp.set_field(&item, "sku", Value::from("NEVER-SAVED")).unwrap();
    interp.set_field(&item, "stock", Value::Int(5)).unwrap();
    interp.call(item.clone(), "reload", vec![]).unwrap();
    // Nothing in the store: the object is untouched.
    assert_eq!(interp.field(&item, "stock").unwrap(), Value::Int(5));
    assert_eq!(interp.middleware().store.stats().misses, 1);
}

#[test]
fn transactional_rollback_undoes_a_reload() {
    // store.load writes go through the transaction log: a rollback after
    // reload restores the pre-reload state.
    let system = lifecycle().generate(&bodies(), comet::Backend::JavaFunctional).unwrap();
    let mut interp = Interp::new(system.woven().clone());
    let item = interp.create("Item").unwrap();
    interp.set_field(&item, "sku", Value::from("SKU-9")).unwrap();
    interp.call(item.clone(), "receive", vec![Value::Int(4)]).unwrap(); // saved
    interp.set_field(&item, "stock", Value::Int(100)).unwrap();
    // Manually drive a transaction around reload.
    interp.middleware_mut().tx.begin("rc").unwrap();
    interp.call(item.clone(), "reload", vec![]).unwrap();
    assert_eq!(interp.field(&item, "stock").unwrap(), Value::Int(4));
    let tx = interp.middleware().tx.current().unwrap();
    let undo = interp.middleware_mut().tx.rollback(tx).unwrap();
    for entry in undo {
        interp.set_field(&Value::Obj(entry.object), &entry.field, entry.old).unwrap();
    }
    assert_eq!(interp.field(&item, "stock").unwrap(), Value::Int(100));
}
