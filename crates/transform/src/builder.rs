//! The generic transformation GMT_Ci and its closure-based builder.

use crate::params::{ParamSchema, ParamSet};
use crate::transform::TransformError;
use comet_model::Model;
use std::sync::Arc;

type Body = dyn Fn(&mut Model, &ParamSet) -> Result<(), TransformError> + Send + Sync;
type CondFn = dyn Fn(&ParamSet) -> Vec<String> + Send + Sync;

/// Builds a [`GenericTransformation`] from closures.
pub struct TransformationBuilder {
    name: String,
    concern: String,
    schema: ParamSchema,
    pre: Vec<String>,
    post: Vec<String>,
    pre_fn: Option<Box<CondFn>>,
    post_fn: Option<Box<CondFn>>,
    body: Option<Box<Body>>,
}

impl TransformationBuilder {
    /// Starts a builder for a transformation refining `concern`.
    pub fn new(name: &str, concern: &str) -> Self {
        TransformationBuilder {
            name: name.to_owned(),
            concern: concern.to_owned(),
            schema: ParamSchema::new(),
            pre: Vec::new(),
            post: Vec::new(),
            pre_fn: None,
            post_fn: None,
            body: None,
        }
    }

    /// Sets the parameter schema.
    pub fn schema(mut self, schema: ParamSchema) -> Self {
        self.schema = schema;
        self
    }

    /// Adds a fixed (parameter-independent) precondition.
    pub fn precondition(mut self, ocl: &str) -> Self {
        self.pre.push(ocl.to_owned());
        self
    }

    /// Adds a fixed (parameter-independent) postcondition.
    pub fn postcondition(mut self, ocl: &str) -> Self {
        self.post.push(ocl.to_owned());
        self
    }

    /// Sets a function generating *specialized* preconditions from the
    /// parameter set (appended to the fixed ones).
    pub fn preconditions_fn(
        mut self,
        f: impl Fn(&ParamSet) -> Vec<String> + Send + Sync + 'static,
    ) -> Self {
        self.pre_fn = Some(Box::new(f));
        self
    }

    /// Sets a function generating *specialized* postconditions.
    pub fn postconditions_fn(
        mut self,
        f: impl Fn(&ParamSet) -> Vec<String> + Send + Sync + 'static,
    ) -> Self {
        self.post_fn = Some(Box::new(f));
        self
    }

    /// Sets the transformation body.
    pub fn body(
        mut self,
        f: impl Fn(&mut Model, &ParamSet) -> Result<(), TransformError> + Send + Sync + 'static,
    ) -> Self {
        self.body = Some(Box::new(f));
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    /// Panics when no body was provided — a transformation without a body
    /// is a programming error, caught at construction.
    pub fn build(self) -> Arc<GenericTransformation> {
        Arc::new(GenericTransformation {
            name: self.name,
            concern: self.concern,
            schema: self.schema,
            pre: self.pre,
            post: self.post,
            pre_fn: self.pre_fn,
            post_fn: self.post_fn,
            body: self.body.expect("TransformationBuilder requires a body"),
        })
    }
}

/// A generic model transformation GMT_Ci: one concern dimension, a typed
/// parameter schema, and parameter-specialized OCL conditions. Built by
/// [`TransformationBuilder`]; its body must be a deterministic function
/// of `(model, params)`.
pub struct GenericTransformation {
    name: String,
    concern: String,
    schema: ParamSchema,
    pre: Vec<String>,
    post: Vec<String>,
    pre_fn: Option<Box<CondFn>>,
    post_fn: Option<Box<CondFn>>,
    body: Box<Body>,
}

impl GenericTransformation {
    /// Transformation name, e.g. `"distribution"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The concern dimension this transformation refines.
    pub fn concern(&self) -> &str {
        &self.concern
    }

    /// The parameter schema (the declared `P_ik` slots).
    pub fn parameter_schema(&self) -> &ParamSchema {
        &self.schema
    }

    /// OCL preconditions, specialized by `params`: the fixed ones, then
    /// the generated ones. All must hold on the input model.
    pub(crate) fn preconditions(&self, params: &ParamSet) -> Vec<String> {
        let mut out = self.pre.clone();
        if let Some(f) = &self.pre_fn {
            out.extend(f(params));
        }
        out
    }

    /// OCL postconditions, specialized by `params`. All must hold on the
    /// output model.
    pub(crate) fn postconditions(&self, params: &ParamSet) -> Vec<String> {
        let mut out = self.post.clone();
        if let Some(f) = &self.post_fn {
            out.extend(f(params));
        }
        out
    }

    /// Runs the body. The engine calls it between the condition checks
    /// and concern-colors the elements it creates.
    ///
    /// # Errors
    /// Domain failures as [`TransformError::Custom`], or model errors.
    pub(crate) fn transform(
        &self,
        model: &mut Model,
        params: &ParamSet,
    ) -> Result<(), TransformError> {
        (self.body)(model, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamValue;
    use crate::transform::specialize;
    use comet_model::sample::banking_pim;

    #[test]
    fn specialized_conditions_from_params() {
        let gmt = TransformationBuilder::new("t", "c")
            .schema(ParamSchema::new().string("class", true, None))
            .precondition("true")
            .preconditions_fn(|p| {
                vec![format!(
                    "Class.allInstances()->exists(c | c.name = '{}')",
                    p.str("class").unwrap_or("?")
                )]
            })
            .postconditions_fn(|p| {
                vec![format!(
                    "Class.allInstances()->any(c | c.name = '{}').hasStereotype('X')",
                    p.str("class").unwrap_or("?")
                )]
            })
            .body(|model, p| {
                let class = model
                    .find_class(p.str("class")?)
                    .ok_or_else(|| TransformError::Custom("no such class".into()))?;
                model.apply_stereotype(class, "X")?;
                Ok(())
            })
            .build();

        let ok =
            specialize(Arc::clone(&gmt), ParamSet::new().with("class", ParamValue::from("Bank")))
                .unwrap();
        assert_eq!(ok.preconditions().len(), 2);
        assert!(ok.preconditions()[1].contains("'Bank'"));
        let mut m = banking_pim();
        ok.apply(&mut m).unwrap();

        // Specialized precondition fails for a class that is absent.
        let missing =
            specialize(gmt, ParamSet::new().with("class", ParamValue::from("Ghost"))).unwrap();
        let mut m2 = banking_pim();
        assert!(missing.apply(&mut m2).is_err());
    }

    #[test]
    #[should_panic(expected = "requires a body")]
    fn build_without_body_panics() {
        let _ = TransformationBuilder::new("t", "c").build();
    }
}
