//! Differential tests for the transformation engine:
//! [`ConcreteTransformation::apply`] (journal rollback, journal-derived
//! report) against [`reference_apply`], a clone-and-sweep reference
//! built here on the public API. For arbitrary sequences of bodies and
//! conditions — including failing ones — both must produce the same
//! outcome, the same report, and the same model after every step.

use comet_model::sample::banking_pim;
use comet_model::{Model, ModelDelta, Primitive};
use comet_ocl::{evaluate_bool, Context};
use comet_transform::{
    specialize, ConcreteTransformation, ParamSet, TransformError, TransformationBuilder,
};
use proptest::prelude::*;

/// Conditions whose verdicts depend on the model state the earlier
/// steps left, so a sequence sees them flip between steps.
const CONDITIONS: [&str; 8] = [
    "Class.allInstances()->notEmpty()",
    "Class.allInstances()->exists(c | c.name = 'Bank')",
    "Class.allInstances()->forAll(c | c.operations->size() <= 9)",
    "Operation.allInstances()->size() >= 0",
    "Attribute.allInstances()->size() <= 30",
    "Class.allInstances()->exists(c | c.hasStereotype('Marked'))",
    "Class.allInstances()->size() <= 6",
    "Constraint.allInstances()->isEmpty()",
];

/// One interpreted body instruction. Indices select targets modulo the
/// current class list, so every generated program is runnable.
#[derive(Debug, Clone)]
enum BodyOp {
    AddClass(String),
    AddOperation(u8, String),
    AddAttribute(u8, String),
    Stereotype(u8, String),
    Rename(u8, String),
    Remove(u8),
}

/// How the body/conditions should terminate.
#[derive(Debug, Clone)]
enum Outcome {
    Succeed,
    FailCustom,
    FailPostcondition,
    FailPrecondition,
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        "[A-Z][a-z]{2,6}".prop_map(BodyOp::AddClass),
        (any::<u8>(), "[a-z]{2,6}").prop_map(|(c, s)| BodyOp::AddOperation(c, s)),
        (any::<u8>(), "[a-z]{2,6}").prop_map(|(c, s)| BodyOp::AddAttribute(c, s)),
        (any::<u8>(), prop_oneof![Just("Marked".to_owned()), "[A-Z][a-z]{2,6}".boxed()])
            .prop_map(|(c, s)| BodyOp::Stereotype(c, s)),
        (any::<u8>(), "[A-Z][a-z]{2,6}").prop_map(|(c, s)| BodyOp::Rename(c, s)),
        any::<u8>().prop_map(BodyOp::Remove),
    ]
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Succeed),
        Just(Outcome::Succeed),
        Just(Outcome::Succeed),
        Just(Outcome::FailCustom),
        Just(Outcome::FailPostcondition),
        Just(Outcome::FailPrecondition),
    ]
}

fn run_body(model: &mut Model, ops: &[BodyOp]) -> Result<(), TransformError> {
    for op in ops {
        let classes = model.classes();
        let pick = |idx: u8| {
            if classes.is_empty() {
                None
            } else {
                Some(classes[idx as usize % classes.len()])
            }
        };
        match op {
            BodyOp::AddClass(name) => {
                let root = model.root();
                let _ = model.add_class(root, name);
            }
            BodyOp::AddOperation(c, name) => {
                if let Some(cl) = pick(*c) {
                    let _ = model.add_operation(cl, name);
                }
            }
            BodyOp::AddAttribute(c, name) => {
                if let Some(cl) = pick(*c) {
                    let _ = model.add_attribute(cl, name, Primitive::Int.into());
                }
            }
            BodyOp::Stereotype(c, s) => {
                if let Some(cl) = pick(*c) {
                    model.apply_stereotype(cl, s)?;
                }
            }
            BodyOp::Rename(c, s) => {
                if let Some(cl) = pick(*c) {
                    model.element_mut(cl)?.core_mut().name = s.clone();
                }
            }
            BodyOp::Remove(c) => {
                if let Some(cl) = pick(*c) {
                    let _ = model.remove_element(cl)?;
                }
            }
        }
    }
    Ok(())
}

/// `(body ops, outcome, precondition seeds, postcondition seeds)`; the
/// seeds pick from [`CONDITIONS`].
type StepSpec = (Vec<BodyOp>, Outcome, Vec<u8>, Vec<u8>);

/// The step's body: its ops, then the injected failure if it has one.
fn run_step(model: &mut Model, (ops, outcome, ..): &StepSpec) -> Result<(), TransformError> {
    run_body(model, ops)?;
    if matches!(outcome, Outcome::FailCustom) {
        return Err(TransformError::Custom("injected body failure".into()));
    }
    Ok(())
}

fn build_cmt(step: &StepSpec) -> ConcreteTransformation {
    let (_, outcome, pres, posts) = step;
    let owned = step.clone();
    let mut builder = TransformationBuilder::new("prop-body", "prop-concern")
        .body(move |model, _params| run_step(model, &owned));
    for seed in pres {
        builder = builder.precondition(CONDITIONS[*seed as usize % CONDITIONS.len()]);
    }
    for seed in posts {
        builder = builder.postcondition(CONDITIONS[*seed as usize % CONDITIONS.len()]);
    }
    match outcome {
        Outcome::FailPostcondition => builder = builder.postcondition("false"),
        Outcome::FailPrecondition => builder = builder.precondition("false"),
        _ => {}
    }
    specialize(builder.build(), ParamSet::new()).expect("empty schema validates")
}

/// Checks `conditions` on `model` the way `apply` reports them.
fn check(
    cmt: &ConcreteTransformation,
    model: &Model,
    conditions: Vec<String>,
    pre: bool,
) -> Result<(), TransformError> {
    for condition in conditions {
        let transformation = cmt.full_name();
        match evaluate_bool(&condition, &Context::for_model(model)) {
            Ok(true) => {}
            Ok(false) if pre => {
                return Err(TransformError::PreconditionFailed { transformation, condition })
            }
            Ok(false) => {
                return Err(TransformError::PostconditionFailed { transformation, condition })
            }
            Err(source) => return Err(TransformError::Condition { condition, source }),
        }
    }
    Ok(())
}

/// The reference engine: checks the preconditions, runs `body` on a
/// clone, colours the ids it created, sweeps the report with
/// [`ModelDelta::between`], validates, checks the postconditions, and
/// keeps the clone only if all of that passed.
fn reference_apply(
    cmt: &ConcreteTransformation,
    model: &mut Model,
    body: impl FnOnce(&mut Model) -> Result<(), TransformError>,
) -> Result<ModelDelta, TransformError> {
    check(cmt, model, cmt.preconditions(), true)?;
    let mut out = model.clone();
    body(&mut out)?;
    let delta = ModelDelta::between(model, &out);
    for &id in &delta.created {
        out.mark_concern(id, cmt.concern())?;
    }
    out.validate().map_err(TransformError::WellFormedness)?;
    check(cmt, &out, cmt.postconditions(), false)?;
    *model = out;
    Ok(delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn journaled_apply_equals_cloned_apply(
        steps in prop::collection::vec(
            (
                prop::collection::vec(arb_body_op(), 0..20),
                arb_outcome(),
                prop::collection::vec(any::<u8>(), 0..3),
                prop::collection::vec(any::<u8>(), 0..3),
            ),
            1..8,
        ),
    ) {
        let mut journaled = banking_pim();
        let mut reference = banking_pim();
        for (i, step) in steps.iter().enumerate() {
            let before = journaled.clone();
            let cmt = build_cmt(step);
            let r1 = cmt.apply(&mut journaled);
            let r2 = reference_apply(&cmt, &mut reference, |m| run_step(m, step));
            match (&r1, &r2) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "reports diverged at step {}", i),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(
                        a.to_string(), b.to_string(),
                        "failures diverged at step {}", i
                    );
                    prop_assert_eq!(
                        &journaled, &before,
                        "journal rollback left residue at step {}", i
                    );
                }
                _ => prop_assert!(false, "engines disagreed at step {i}: {r1:?} vs {r2:?}"),
            }
            prop_assert_eq!(&journaled, &reference, "models diverged at step {}", i);
            prop_assert!(!journaled.journal_active(), "apply leaked an open journal");
        }
    }
}

#[test]
fn journaled_apply_reports_and_colors_like_the_oracle() {
    fn body(model: &mut Model) -> Result<(), TransformError> {
        let root = model.root();
        let created = model.add_class(root, "AuditLog")?;
        model.add_operation(created, "append")?;
        let bank = model.find_class("Bank").expect("bank exists");
        model.apply_stereotype(bank, "Audited")?;
        let customer = model.find_class("Customer").expect("customer exists");
        model.remove_element(customer)?;
        Ok(())
    }
    let gmt = TransformationBuilder::new("mixed", "audit").body(|model, _| body(model)).build();
    let cmt = specialize(gmt, ParamSet::new()).unwrap();
    let mut a = banking_pim();
    let mut b = banking_pim();
    let ra = cmt.apply(&mut a).unwrap();
    let rb = reference_apply(&cmt, &mut b, body).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(a, b);
    assert_eq!(ra.created.len(), 2, "class + operation created");
    assert!(!ra.removed.is_empty(), "customer cascade recorded");
    // Created elements are concern-colored in both engines.
    let log = a.find_class("AuditLog").unwrap();
    assert_eq!(a.concern_of(log), Some("audit"));
}

#[test]
fn failed_apply_preserves_id_watermark() {
    // After a rollback the next allocation must reuse the rolled-back
    // ids — otherwise repeated failed attempts leak id space and the
    // journal path would diverge from the reference's clone.
    let failing = specialize(
        TransformationBuilder::new("boom", "c")
            .body(|model, _| {
                let root = model.root();
                model.add_class(root, "Doomed")?;
                Err(TransformError::Custom("bang".into()))
            })
            .build(),
        ParamSet::new(),
    )
    .unwrap();
    let adding = specialize(
        TransformationBuilder::new("add", "c")
            .body(|model, _| {
                let root = model.root();
                model.add_class(root, "Kept")?;
                Ok(())
            })
            .build(),
        ParamSet::new(),
    )
    .unwrap();
    let mut with_failure = banking_pim();
    assert!(failing.apply(&mut with_failure).is_err());
    let report_after_failure = adding.apply(&mut with_failure).unwrap();

    let mut pristine = banking_pim();
    let report_pristine = adding.apply(&mut pristine).unwrap();
    assert_eq!(report_after_failure, report_pristine);
    assert_eq!(with_failure, pristine);
}
