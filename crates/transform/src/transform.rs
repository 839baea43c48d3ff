//! Specialization, and the application engine with pre/postcondition
//! checking and automatic concern coloring.

use crate::builder::GenericTransformation;
use crate::params::{ParamError, ParamSet};
use comet_model::{Model, ModelDelta};
use comet_obs::Collector;
use comet_ocl::{evaluate_bool, Context, OclError};
use std::fmt;
use std::sync::Arc;

/// Failures of specialization or application.
#[derive(Debug)]
pub enum TransformError {
    /// Parameter validation failed.
    Param(ParamError),
    /// A precondition evaluated to false.
    PreconditionFailed {
        /// The transformation.
        transformation: String,
        /// The failing OCL expression.
        condition: String,
    },
    /// A postcondition evaluated to false (model was rolled back).
    PostconditionFailed {
        /// The transformation.
        transformation: String,
        /// The failing OCL expression.
        condition: String,
    },
    /// A condition failed to parse or evaluate.
    Condition {
        /// The OCL expression.
        condition: String,
        /// The underlying OCL error.
        source: OclError,
    },
    /// The output model is not well-formed (model was rolled back).
    WellFormedness(Vec<comet_model::Violation>),
    /// A model mutation failed.
    Model(comet_model::ModelError),
    /// Domain-specific failure from the transformation body.
    Custom(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Param(e) => write!(f, "parameter error: {e}"),
            TransformError::PreconditionFailed { transformation, condition } => {
                write!(f, "precondition of `{transformation}` failed: {condition}")
            }
            TransformError::PostconditionFailed { transformation, condition } => {
                write!(f, "postcondition of `{transformation}` failed: {condition}")
            }
            TransformError::Condition { condition, source } => {
                write!(f, "condition `{condition}` could not be evaluated: {source}")
            }
            TransformError::WellFormedness(v) => {
                write!(f, "transformed model is ill-formed ({} violation(s))", v.len())
            }
            TransformError::Model(e) => write!(f, "model error: {e}"),
            TransformError::Custom(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<ParamError> for TransformError {
    fn from(e: ParamError) -> Self {
        TransformError::Param(e)
    }
}

impl From<comet_model::ModelError> for TransformError {
    fn from(e: comet_model::ModelError) -> Self {
        TransformError::Model(e)
    }
}

/// A concrete model transformation CMT_Ci: a GMT closed over a validated
/// parameter set.
#[derive(Clone)]
pub struct ConcreteTransformation {
    gmt: Arc<GenericTransformation>,
    params: ParamSet,
}

impl fmt::Debug for ConcreteTransformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConcreteTransformation({})", self.full_name())
    }
}

/// Specializes a generic transformation with `Si`, validating the
/// parameters against the schema (defaults filled in).
///
/// # Errors
/// Propagates [`ParamError`] from schema validation.
pub fn specialize(
    gmt: Arc<GenericTransformation>,
    params: ParamSet,
) -> Result<ConcreteTransformation, ParamError> {
    let effective = gmt.parameter_schema().validate(&params)?;
    Ok(ConcreteTransformation { gmt, params: effective })
}

impl ConcreteTransformation {
    /// The underlying generic transformation.
    pub fn generic(&self) -> &Arc<GenericTransformation> {
        &self.gmt
    }

    /// The effective (validated, default-filled) parameter set — the
    /// `Si` that also specializes the paired aspect.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// The concern dimension.
    pub fn concern(&self) -> &str {
        self.gmt.concern()
    }

    /// `name<p1=v1, ...>`, the paper's `Ti<pi1, pi2, ...>` notation.
    pub fn full_name(&self) -> String {
        format!("{}{}", self.gmt.name(), self.params.angle_signature())
    }

    /// The specialized preconditions.
    pub fn preconditions(&self) -> Vec<String> {
        self.gmt.preconditions(&self.params)
    }

    /// The specialized postconditions.
    pub fn postconditions(&self) -> Vec<String> {
        self.gmt.postconditions(&self.params)
    }

    /// Applies the transformation atomically:
    ///
    /// 1. checks every specialized precondition on the input model;
    /// 2. opens a change-journal segment and runs the body;
    /// 3. colors every created element with the concern;
    /// 4. re-validates well-formedness and checks every specialized
    ///    postcondition — on any failure the journal segment is rolled
    ///    back, restoring the model to its input state in O(delta).
    ///
    /// The [`ModelDelta`] is derived from the committed journal
    /// segment, not from a before/after sweep of the whole arena.
    ///
    /// # Errors
    /// See [`TransformError`]; the model is unchanged on every error.
    pub fn apply(&self, model: &mut Model) -> Result<ModelDelta, TransformError> {
        self.check_conditions(model, self.preconditions(), /* pre: */ true)?;
        model.begin_journal();
        let result = self.apply_body_journaled(model);
        match result {
            Ok(()) => Ok(model.commit_journal().expect("journal opened above").0),
            Err(e) => {
                model.rollback_journal();
                Err(e)
            }
        }
    }

    /// [`ConcreteTransformation::apply`] wrapped in a trace span: the
    /// application runs under an `apply:<full_name>` span tagged with
    /// the concern, the CMT name and the specialization `Si`, and on
    /// success every journal-delta entry becomes a
    /// `model.created|modified|removed` event naming the element — the
    /// model-level end of the provenance chain. Outcome (including the
    /// error, if any) is recorded as a span attribute. With a disabled
    /// collector this is exactly `apply` plus one branch.
    ///
    /// # Errors
    /// See [`ConcreteTransformation::apply`].
    pub fn apply_traced(
        &self,
        model: &mut Model,
        obs: &Collector,
    ) -> Result<ModelDelta, TransformError> {
        if !obs.is_enabled() {
            return self.apply(model);
        }
        let span = obs.begin_span("transform", &format!("apply:{}", self.full_name()), 0);
        obs.span_attr(span, "concern", self.concern());
        obs.span_attr(span, "cmt", &self.full_name());
        obs.span_attr(span, "si", &self.params.angle_signature());
        let result = self.apply(model);
        match &result {
            Ok(report) => {
                obs.span_attr(span, "outcome", "ok");
                for (action, ids) in [
                    ("model.created", &report.created),
                    ("model.modified", &report.modified),
                    ("model.removed", &report.removed),
                ] {
                    for id in ids {
                        let mut attrs = vec![("id".to_owned(), id.to_string())];
                        if let Ok(e) = model.element(*id) {
                            attrs.push(("element".to_owned(), e.name().to_owned()));
                            attrs.push(("kind".to_owned(), e.kind().kind_name().to_owned()));
                        }
                        obs.event("transform", action, 0, attrs);
                    }
                }
            }
            Err(e) => obs.span_attr(span, "outcome", &format!("error: {e}")),
        }
        obs.end_span(span, 0);
        result
    }

    fn check_conditions(
        &self,
        model: &Model,
        conditions: Vec<String>,
        pre: bool,
    ) -> Result<(), TransformError> {
        for condition in conditions {
            let ctx = Context::for_model(model);
            match evaluate_bool(&condition, &ctx) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(if pre {
                        TransformError::PreconditionFailed {
                            transformation: self.full_name(),
                            condition,
                        }
                    } else {
                        TransformError::PostconditionFailed {
                            transformation: self.full_name(),
                            condition,
                        }
                    })
                }
                Err(e) => return Err(TransformError::Condition { condition, source: e }),
            }
        }
        Ok(())
    }

    /// Body + coloring + postcondition phase of the journaled engine.
    /// Runs entirely inside the caller's journal segment; the caller
    /// commits or rolls back.
    fn apply_body_journaled(&self, model: &mut Model) -> Result<(), TransformError> {
        self.gmt.transform(model, &self.params)?;
        // Color created elements straight off the journal — no snapshot
        // diff needed to know what the body created.
        for id in model.journal_created() {
            model.mark_concern(id, self.gmt.concern())?;
        }
        if let Err(violations) = model.validate() {
            return Err(TransformError::WellFormedness(violations));
        }
        self.check_conditions(model, self.postconditions(), /* pre: */ false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TransformationBuilder;
    use crate::params::{ParamSchema, ParamValue};
    use comet_model::sample::banking_pim;

    fn add_class_gmt() -> Arc<GenericTransformation> {
        TransformationBuilder::new("add-class", "testing")
            .schema(ParamSchema::new().string("name", true, None))
            .precondition("Class.allInstances()->notEmpty()")
            .postcondition("Class.allInstances()->exists(c | c.concern = 'testing')")
            .body(|model, params| {
                let name = params.str("name")?.to_owned();
                let root = model.root();
                model.add_class(root, &name)?;
                Ok(())
            })
            .build()
    }

    #[test]
    fn specialize_validates_and_names() {
        let gmt = add_class_gmt();
        let cmt =
            specialize(Arc::clone(&gmt), ParamSet::new().with("name", ParamValue::from("Proxy")))
                .unwrap();
        assert_eq!(cmt.full_name(), "add-class<name=Proxy>");
        assert_eq!(cmt.concern(), "testing");
        assert_eq!(cmt.generic().name(), "add-class");
        assert!(matches!(specialize(gmt, ParamSet::new()), Err(ParamError::Missing(_))));
    }

    #[test]
    fn apply_creates_colors_and_reports() {
        let cmt =
            specialize(add_class_gmt(), ParamSet::new().with("name", ParamValue::from("Proxy")))
                .unwrap();
        let mut m = banking_pim();
        let report = cmt.apply(&mut m).unwrap();
        assert_eq!(report.created.len(), 1);
        assert_eq!(report.touched(), 1);
        let proxy = m.find_class("Proxy").unwrap();
        assert_eq!(m.concern_of(proxy), Some("testing"));
    }

    #[test]
    fn precondition_failure_blocks_application() {
        let gmt = TransformationBuilder::new("t", "c")
            .precondition("Class.allInstances()->exists(c | c.name = 'Ghost')")
            .body(|_, _| Ok(()))
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let mut m = banking_pim();
        let snapshot = m.clone();
        let err = cmt.apply(&mut m).unwrap_err();
        assert!(matches!(err, TransformError::PreconditionFailed { .. }));
        assert_eq!(m, snapshot);
    }

    #[test]
    fn postcondition_failure_rolls_back() {
        let gmt = TransformationBuilder::new("t", "c")
            .postcondition("false")
            .body(|model, _| {
                let root = model.root();
                model.add_class(root, "Garbage")?;
                Ok(())
            })
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let mut m = banking_pim();
        let snapshot = m.clone();
        let err = cmt.apply(&mut m).unwrap_err();
        assert!(matches!(err, TransformError::PostconditionFailed { .. }));
        assert_eq!(m, snapshot, "model must be restored");
    }

    #[test]
    fn body_error_rolls_back() {
        let gmt = TransformationBuilder::new("t", "c")
            .body(|model, _| {
                let root = model.root();
                model.add_class(root, "Partial")?;
                Err(TransformError::Custom("bang".into()))
            })
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let mut m = banking_pim();
        let snapshot = m.clone();
        assert!(cmt.apply(&mut m).is_err());
        assert_eq!(m, snapshot);
    }

    #[test]
    fn malformed_condition_reported() {
        let gmt = TransformationBuilder::new("t", "c")
            .precondition("this is not ocl ((")
            .body(|_, _| Ok(()))
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let mut m = banking_pim();
        let err = cmt.apply(&mut m).unwrap_err();
        assert!(matches!(err, TransformError::Condition { .. }));
        assert!(err.to_string().contains("could not be evaluated"));
    }

    #[test]
    fn modified_elements_reported() {
        let gmt = TransformationBuilder::new("t", "c")
            .body(|model, _| {
                let bank = model.find_class("Bank").expect("bank exists");
                model.apply_stereotype(bank, "Touched")?;
                Ok(())
            })
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let mut m = banking_pim();
        let report = cmt.apply(&mut m).unwrap();
        assert_eq!(report.created.len(), 0);
        assert_eq!(report.modified.len(), 1);
    }

    #[test]
    fn apply_traced_spans_and_delta_events() {
        let cmt =
            specialize(add_class_gmt(), ParamSet::new().with("name", ParamValue::from("Proxy")))
                .unwrap();
        let obs = comet_obs::Collector::enabled();
        let mut m = banking_pim();
        cmt.apply_traced(&mut m, &obs).unwrap();
        let trace = obs.take();
        assert_eq!(trace.spans.len(), 1);
        let span = &trace.spans[0];
        assert_eq!(span.name, "apply:add-class<name=Proxy>");
        assert_eq!(comet_obs::Trace::attr(&span.attrs, "concern"), Some("testing"));
        assert_eq!(comet_obs::Trace::attr(&span.attrs, "si"), Some("<name=Proxy>"));
        assert_eq!(comet_obs::Trace::attr(&span.attrs, "outcome"), Some("ok"));
        let created: Vec<&comet_obs::Event> =
            trace.events.iter().filter(|e| e.name == "model.created").collect();
        assert_eq!(created.len(), 1);
        assert_eq!(comet_obs::Trace::attr(&created[0].attrs, "element"), Some("Proxy"));
        assert_eq!(comet_obs::Trace::attr(&created[0].attrs, "kind"), Some("Class"));
        assert_eq!(created[0].span, Some(span.id));
    }

    #[test]
    fn apply_traced_records_failure_and_rolls_back() {
        let gmt = TransformationBuilder::new("t", "c")
            .postcondition("false")
            .body(|model, _| {
                let root = model.root();
                model.add_class(root, "Garbage")?;
                Ok(())
            })
            .build();
        let cmt = specialize(gmt, ParamSet::new()).unwrap();
        let obs = comet_obs::Collector::enabled();
        let mut m = banking_pim();
        let snapshot = m.clone();
        assert!(cmt.apply_traced(&mut m, &obs).is_err());
        assert_eq!(m, snapshot);
        let trace = obs.take();
        let outcome = comet_obs::Trace::attr(&trace.spans[0].attrs, "outcome").unwrap();
        assert!(outcome.starts_with("error:"), "{outcome}");
        assert!(trace.events.is_empty(), "no delta events on rollback");
    }

    #[test]
    fn apply_traced_disabled_matches_apply() {
        let cmt =
            specialize(add_class_gmt(), ParamSet::new().with("name", ParamValue::from("Proxy")))
                .unwrap();
        let obs = comet_obs::Collector::disabled();
        let (mut a, mut b) = (banking_pim(), banking_pim());
        let traced = cmt.apply_traced(&mut a, &obs).unwrap();
        let plain = cmt.apply(&mut b).unwrap();
        assert_eq!(traced, plain);
        assert_eq!(a, b);
        assert!(obs.take().is_empty());
    }
}
