//! E2 (Fig. 2): the three-concern pipeline — T1/A1 distribution,
//! T2/A2 transactions, T3/A3 security — and the paper's precedence rule:
//! *"The order in which specialized/concrete aspects will be applied at
//! code level (their precedence) is dictated by the order in which the
//! specialized/concrete model transformations were applied at model
//! level."*

mod common;

use comet::MdaLifecycle;
use comet_aop::Weaver;
use comet_codegen::FunctionalGenerator;
use comet_concerns::{distribution, security, transactions};
use comet_interp::{Interp, Value};
use comet_workflow::WorkflowModel;
use common::{banking_bodies, dist_si, executable_banking_pim, sec_si, setup_bank, tx_si};

fn fig2_workflow() -> WorkflowModel {
    WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false)
}

fn full_lifecycle() -> MdaLifecycle {
    let mut mda = MdaLifecycle::new(executable_banking_pim(), fig2_workflow()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    mda.apply_concern(&security::pair(), sec_si()).unwrap();
    mda
}

#[test]
fn aspect_list_order_equals_transformation_order() {
    let mda = full_lifecycle();
    let aspects = mda.aspects();
    assert_eq!(aspects.len(), 3);
    assert!(aspects[0].name.starts_with("distribution-aspect<"));
    assert!(aspects[1].name.starts_with("transactions-aspect<"));
    assert!(aspects[2].name.starts_with("security-aspect<"));
}

#[test]
fn weave_nesting_follows_precedence() {
    let mda = full_lifecycle();
    let system = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();
    let bank = system.woven().find_class("Bank").unwrap();
    // Layer/around helper suffixes encode the aspect index: aspect 0
    // (distribution) must be the outermost wrapper of `transfer`.
    let public = bank.find_method("transfer").unwrap();
    let delegate = format!("{:?}", public.body);
    assert!(
        delegate.contains("transfer__around_0_0"),
        "public method delegates into the distribution (index 0) layer first: {delegate}"
    );
    // The functional body sits at the innermost position.
    assert!(bank.find_method("transfer__functional").is_some());
    // All three aspects advised transfer.
    let advisors: Vec<&str> = system
        .weave_trace()
        .iter()
        .filter(|t| t.method == "transfer")
        .map(|t| t.aspect.as_str())
        .collect();
    assert_eq!(advisors.len(), 3);
}

#[test]
fn end_to_end_behaviour_of_the_three_concerns() {
    let mda = full_lifecycle();
    let system = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();
    let mut interp = Interp::new(system.woven().clone());
    let (bank, a1, a2) = setup_bank(&mut interp);
    interp.call(bank.clone(), "registerRemote", vec![]).unwrap();
    interp.middleware_mut().bus.set_current_node("client").unwrap();

    // C3 security: unauthorized principal denied.
    interp.login("bob").unwrap();
    assert!(interp
        .call(
            bank.clone(),
            "transfer",
            vec![Value::from("A-1"), Value::from("A-2"), Value::Int(10)]
        )
        .is_err());
    interp.logout();

    // C1 distribution + C2 transactions: remote call commits.
    interp.login("alice").unwrap();
    let ok = interp
        .call(
            bank.clone(),
            "transfer",
            vec![Value::from("A-1"), Value::from("A-2"), Value::Int(100)],
        )
        .unwrap();
    assert_eq!(ok, Value::Bool(true));
    assert_eq!(interp.field(&a1, "balance").unwrap(), Value::Int(900));
    assert_eq!(interp.field(&a2, "balance").unwrap(), Value::Int(150));
    assert!(interp.middleware().bus.stats().delivered >= 2, "went over the wire");
    assert_eq!(interp.middleware().tx.stats().committed, 1);
    assert_eq!(interp.middleware().security.denials(), 1);
    assert_eq!(interp.middleware().bus.current_node(), "client");
}

#[test]
fn permuting_precedence_changes_observable_behaviour() {
    // [security, transactions] vs [transactions, security]: when the
    // security check is OUTSIDE the transaction, a denial happens before
    // any transaction starts; when it is INSIDE, the denial aborts a
    // transaction that already began. The trace distinguishes the two —
    // precedence is semantically load-bearing, which is why the paper
    // pins it to the transformation order.
    let run = |aspect_order_sec_first: bool| -> (u64, u64) {
        let mut mda = MdaLifecycle::new(executable_banking_pim(), fig2_workflow()).unwrap();
        mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
        if aspect_order_sec_first {
            mda.apply_concern(&security::pair(), sec_si()).unwrap();
            mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
        } else {
            mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
            mda.apply_concern(&security::pair(), sec_si()).unwrap();
        }
        let system = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();
        let mut interp = Interp::new(system.woven().clone());
        let (bank, _, _) = setup_bank(&mut interp);
        // Execute on the hosting node so the distribution layer proceeds
        // locally and the tx/security interplay is isolated.
        interp.middleware_mut().bus.set_current_node("server").unwrap();
        interp.login("bob").unwrap(); // will be denied
        let _ = interp.call(
            bank,
            "transfer",
            vec![Value::from("A-1"), Value::from("A-2"), Value::Int(10)],
        );
        let stats = interp.middleware().tx.stats();
        (stats.begun, stats.rolled_back)
    };
    let (begun_sec_outside, rb_sec_outside) = run(true);
    let (begun_sec_inside, rb_sec_inside) = run(false);
    // Security outside the transaction: denial prevents the begin.
    assert_eq!((begun_sec_outside, rb_sec_outside), (0, 0));
    // Security inside: a transaction began and had to be rolled back.
    assert_eq!((begun_sec_inside, rb_sec_inside), (1, 1));
}

#[test]
fn runtime_call_trace_shows_the_nesting() {
    // Observe precedence at *run time*: the interpreter's call trace of
    // one transfer shows the layers entered in aspect order, innermost
    // last.
    let mda = full_lifecycle();
    let system = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();
    let mut interp = Interp::new(system.woven().clone());
    let (bank, _, _) = setup_bank(&mut interp);
    interp.middleware_mut().bus.set_current_node("server").unwrap();
    interp.login("alice").unwrap();
    interp.enable_call_trace();
    interp
        .call(bank, "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(10)])
        .unwrap();
    let trace = interp.take_call_trace();
    let position = |needle: &str| {
        trace
            .iter()
            .position(|line| line.contains(needle))
            .unwrap_or_else(|| panic!("`{needle}` not in trace {trace:?}"))
    };
    let public = position(" Bank.transfer");
    let dist = position("Bank.transfer__around_0_0"); // aspect 0: distribution
    let tx = position("Bank.transfer__around_1_0"); // aspect 1: transactions
    let sec = position("Bank.transfer__layer_2"); // aspect 2: security
    let functional = position("Bank.transfer__functional");
    assert!(public < dist && dist < tx && tx < sec && sec < functional);
    // Depths strictly increase along the chain.
    let depth = |idx: usize| -> usize {
        trace[idx].split_whitespace().next().and_then(|d| d.parse().ok()).expect("depth prefix")
    };
    assert!(depth(public) < depth(dist));
    assert!(depth(dist) < depth(tx));
    assert!(depth(tx) < depth(sec));
    assert!(depth(sec) < depth(functional));
}

#[test]
fn the_weaver_honours_a_manually_permuted_aspect_list() {
    // Same aspects, reversed list, directly on the weaver: the nesting
    // flips, confirming precedence comes from list order alone.
    let mda = full_lifecycle();
    let system_fwd = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();
    let mut aspects = mda.aspects();
    aspects.reverse();
    let functional = FunctionalGenerator::new().generate(mda.model(), &banking_bodies());
    let reversed = Weaver::new(aspects).weave(&functional).unwrap();
    let bank = reversed.program.find_class("Bank").unwrap();
    let public = bank.find_method("transfer").unwrap();
    let delegate = format!("{:?}", public.body);
    // Security is now index 0 — outermost.
    assert!(
        delegate.contains("transfer__layer_0"),
        "reversed order puts the security layer outermost: {delegate}"
    );
    assert_ne!(&reversed.program, system_fwd.woven());
}
