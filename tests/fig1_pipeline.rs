//! E1 (Fig. 1): the generic→concrete pipeline on one concern dimension.
//!
//! Verifies the figure's structural claims: a GMT is specialized by `Si`
//! into a CMT that acts upon the model elements of concern space *i*;
//! the 1–1 associated GA is specialized by the **same** `Si` into a CA
//! that implements the concern at code level; and the CMT/CA names carry
//! the `T<p1, p2, ...>` parameter signature of the paper's Fig. 2.

mod common;

use comet::MdaLifecycle;
use comet_codegen::FunctionalGenerator;
use comet_concerns::transactions;
use comet_interp::{Interp, Value};
use comet_workflow::WorkflowModel;
use common::{banking_bodies, executable_banking_pim, setup_bank, tx_si};

#[test]
fn same_si_specializes_transformation_and_aspect() {
    let pair = transactions::pair();
    let (cmt, ca) = pair.specialize(tx_si()).unwrap();
    // Identical effective parameter signatures on both artifacts.
    let sig = cmt.params().angle_signature();
    assert!(cmt.full_name().ends_with(&sig));
    assert!(ca.name.ends_with(&sig));
    assert!(sig.contains("methods=[Bank.transfer]"));
    assert!(sig.contains("isolation=serializable"));
    // Defaults were filled once and shared.
    assert!(sig.contains("propagation=required"));
}

#[test]
fn cmt_acts_on_the_concern_space_only() {
    let mut model = executable_banking_pim();
    let before = model.clone();
    let (cmt, _) = transactions::pair().specialize(tx_si()).unwrap();
    let report = cmt.apply(&mut model).unwrap();
    // Exactly one element (the transfer operation) was touched.
    assert_eq!(report.created.len(), 0);
    assert_eq!(report.removed.len(), 0);
    assert_eq!(report.modified.len(), 1);
    let bank = model.find_class("Bank").unwrap();
    let transfer = model.find_operation(bank, "transfer").unwrap();
    assert_eq!(report.modified[0], transfer);
    // Everything outside the concern space is untouched.
    let diff = comet_model::ModelDelta::between(&before, &model);
    assert_eq!(diff.modified, vec![transfer]);
    assert!(diff.created.is_empty() && diff.removed.is_empty());
}

#[test]
fn ca_implements_the_concern_at_code_level() {
    let workflow = WorkflowModel::new("e1").step("transactions", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    let system = mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).unwrap();

    // The functional program knows nothing about transactions.
    let functional_src = system.functional_source.clone();
    assert!(!functional_src.contains("tx.begin"));
    // The woven program does, via the CA.
    let woven_src = comet_codegen::pretty_print(system.woven());
    assert!(woven_src.contains("tx.begin"));

    // And the behaviour is observable: the crash at amount 13 rolls the
    // debit back.
    let mut interp = Interp::new(system.woven().clone());
    let (bank, a1, a2) = setup_bank(&mut interp);
    let err = interp
        .call(bank, "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(13)])
        .unwrap_err();
    assert!(err.to_string().contains("simulated crash"));
    assert_eq!(interp.field(&a1, "balance").unwrap(), Value::Int(1_000));
    assert_eq!(interp.field(&a2, "balance").unwrap(), Value::Int(50));
    assert_eq!(interp.middleware().tx.stats().rolled_back, 1);
}

#[test]
fn without_the_aspect_the_same_crash_corrupts_state() {
    // Control group for the test above: functional program, no weaving.
    let workflow = WorkflowModel::new("e1").step("transactions", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    let mut interp =
        Interp::new(FunctionalGenerator::new().generate(mda.model(), &banking_bodies()));
    let (bank, a1, a2) = setup_bank(&mut interp);
    let _ =
        interp.call(bank, "transfer", vec![Value::from("A-1"), Value::from("A-2"), Value::Int(13)]);
    // Debited but never credited: 13 units destroyed.
    assert_eq!(interp.field(&a1, "balance").unwrap(), Value::Int(987));
    assert_eq!(interp.field(&a2, "balance").unwrap(), Value::Int(50));
}

#[test]
fn invalid_si_is_rejected_before_anything_happens() {
    let pair = transactions::pair();
    // Missing the required `methods` parameter.
    assert!(pair.specialize(comet_transform::ParamSet::new()).is_err());
    // Unknown parameter.
    assert!(pair
        .specialize(
            comet_transform::ParamSet::new()
                .with("methods", comet_transform::ParamValue::from(vec![]))
                .with("warp", comet_transform::ParamValue::from("9"))
        )
        .is_err());
}
