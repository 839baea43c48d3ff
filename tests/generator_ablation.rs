//! E5: the paper's generator architecture — a code generator for the
//! *functional* model plus aspect generators — against the monolithic
//! baseline that consumes the most-specialized PSM and inlines concern
//! code. Both must be behaviourally equivalent; they must differ in
//! modularity (scattering/tangling) and in incremental-regeneration
//! cost.

mod common;

use comet::MdaLifecycle;
use comet_aop::concern_metrics;
use comet_codegen::FunctionalGenerator;
use comet_concerns::{distribution, security, transactions};
use comet_interp::{Interp, InterpError, Value};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use common::{banking_bodies, dist_si, executable_banking_pim, sec_si, setup_bank, tx_si};

fn lifecycle() -> MdaLifecycle {
    let workflow = WorkflowModel::new("e5")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    // For observational equivalence the application order must mirror the
    // baseline's HARD-CODED inlining order (security outermost, then
    // distribution, transactions innermost) — which is itself the paper's
    // point: a monolithic generator cannot follow the developer's
    // intended precedence, while the proposal derives it from the
    // transformation order (see tests/fig2_precedence.rs).
    mda.apply_concern(&security::pair(), sec_si()).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    mda
}

/// Runs the standard scenario and returns the observable outcome tuple.
fn observe(program: comet_codegen::Program) -> (Value, Value, Result<Value, String>, usize, u64) {
    let mut interp = Interp::new(program);
    let (bank, a1, a2) = setup_bank(&mut interp);
    interp.call(bank.clone(), "registerRemote", vec![]).unwrap_or(Value::Null);
    interp.middleware_mut().bus.set_current_node("client").unwrap();
    interp.login("alice").unwrap();
    interp
        .call(
            bank.clone(),
            "transfer",
            vec![Value::from("A-1"), Value::from("A-2"), Value::Int(200)],
        )
        .unwrap();
    let _ = interp.call(
        bank.clone(),
        "transfer",
        vec![Value::from("A-1"), Value::from("A-2"), Value::Int(13)],
    );
    interp.logout();
    interp.login("bob").unwrap();
    let denied = interp
        .call(bank.clone(), "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(1)])
        .map_err(|e| match e {
            InterpError::Thrown(v) => v.to_string(),
            other => other.to_string(),
        });
    (
        interp.field(&a1, "balance").unwrap(),
        interp.field(&a2, "balance").unwrap(),
        denied,
        interp.middleware().security.denials(),
        interp.middleware().tx.stats().rolled_back,
    )
}

#[test]
fn both_generators_produce_observationally_equivalent_systems() {
    let mda = lifecycle();
    let bodies = banking_bodies();
    let woven = mda.generate(&bodies, comet::Backend::JavaFunctional).unwrap().woven().clone();
    let mono = mda.generate_monolithic(&bodies);

    let (a1_w, a2_w, denied_w, denials_w, rb_w) = observe(woven);
    let (a1_m, a2_m, denied_m, denials_m, rb_m) = observe(mono);
    assert_eq!((&a1_w, &a2_w), (&a1_m, &a2_m), "balances agree");
    assert_eq!(a1_w, Value::Int(800));
    assert_eq!(a2_w, Value::Int(250));
    assert!(denied_w.is_err() && denied_m.is_err());
    assert_eq!(denials_w, denials_m);
    assert_eq!(rb_w, rb_m, "rollback counts agree");
}

#[test]
fn woven_system_localizes_concern_code_baseline_tangles_it() {
    let mda = lifecycle();
    let bodies = banking_bodies();
    let system = mda.generate(&bodies, comet::Backend::JavaFunctional).unwrap();
    let mono = mda.generate_monolithic(&bodies);
    let prefixes = &["tx", "sec", "net", "log"];

    // The functional program contains no concern code at all.
    let functional = FunctionalGenerator::new().generate(mda.model(), &bodies);
    let functional_metrics = concern_metrics(&functional, prefixes);
    let total: usize = functional_metrics.concerns.values().map(|m| m.statements).sum();
    assert_eq!(total, 0, "functional program is concern-free");

    // Both full systems contain concern code; in the baseline it lives
    // tangled in the business methods, in the woven system it lives in
    // weaver-generated layers, leaving every `__functional` body clean.
    let mono_metrics = concern_metrics(&mono, prefixes);
    let woven_metrics = concern_metrics(system.woven(), prefixes);
    assert!(mono_metrics.concerns["tx"].statements > 0);
    assert!(woven_metrics.concerns["tx"].statements > 0);
    let woven_bank = system.woven().find_class("Bank").unwrap();
    let functional_body = &woven_bank.find_method("transfer__functional").unwrap().body;
    let mut probe = comet_codegen::Program::new("probe");
    let mut c = comet_codegen::ClassDecl::new("P");
    let mut m = comet_codegen::MethodDecl::new("m");
    m.body = functional_body.clone();
    c.methods.push(m);
    probe.classes.push(c);
    let probe_metrics = concern_metrics(&probe, prefixes);
    assert!(
        probe_metrics.concerns.values().all(|v| v.statements == 0),
        "the functional body survives weaving concern-free"
    );
}

#[test]
fn changing_one_concern_parameter_regenerates_only_that_aspect() {
    // The paper's incrementality argument: with the monolithic
    // generator, changing the isolation level regenerates (changes) the
    // business classes; with the proposal, the functional program is
    // byte-identical and only the transactions aspect differs.
    let bodies = banking_bodies();
    let build = |isolation: &str| {
        let workflow = WorkflowModel::new("e5").step("transactions", false);
        let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
        mda.apply_concern(
            &transactions::pair(),
            ParamSet::new()
                .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
                .with("isolation", ParamValue::from(isolation)),
        )
        .unwrap();
        let system = mda.generate(&bodies, comet::Backend::JavaFunctional).unwrap();
        let functional = FunctionalGenerator::new().generate(mda.model(), &bodies);
        let mono = mda.generate_monolithic(&bodies);
        (system, functional, mono)
    };
    let (sys_rc, functional_rc, mono_rc) = build("read-committed");
    let (sys_ser, functional_ser, mono_ser) = build("serializable");

    // Functional artifact identical across the parameter change.
    assert_eq!(functional_rc, functional_ser);
    assert_eq!(sys_rc.functional_source, sys_ser.functional_source);
    // Only the aspect artifact changed.
    assert_ne!(sys_rc.aspect_sources, sys_ser.aspect_sources);
    // The monolithic output changed wholesale.
    assert_ne!(mono_rc, mono_ser);
}

#[test]
fn baseline_marks_are_the_same_marks_the_aspects_consume() {
    // Vocabulary honesty check: the PSM feeding the baseline is the PSM
    // whose marks the concern pairs wrote.
    let mda = lifecycle();
    let bank = mda.model().find_class("Bank").unwrap();
    assert!(mda.model().has_stereotype(bank, comet_codegen::marks::STEREO_REMOTE).unwrap());
    let transfer = mda.model().find_operation(bank, "transfer").unwrap();
    assert!(mda
        .model()
        .has_stereotype(transfer, comet_codegen::marks::STEREO_TRANSACTIONAL)
        .unwrap());
    assert!(mda.model().has_stereotype(transfer, comet_codegen::marks::STEREO_SECURED).unwrap());
}
