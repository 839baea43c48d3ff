//! Generic aspects (GA_Ci) and their specialization into concrete
//! aspects (CA_Ci).

use comet_aop::{Advice, Aspect};
use comet_transform::{ParamError, ParamSchema, ParamSet};
use std::fmt;
use std::sync::Arc;

/// Aspect-generation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum AspectGenError {
    /// Parameter validation failed.
    Param(ParamError),
    /// A pointcut template rendered into an unparsable pointcut.
    Pointcut(String),
    /// Domain-specific failure.
    Custom(String),
}

impl fmt::Display for AspectGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AspectGenError::Param(e) => write!(f, "parameter error: {e}"),
            AspectGenError::Pointcut(m) => write!(f, "pointcut template error: {m}"),
            AspectGenError::Custom(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for AspectGenError {}

impl From<ParamError> for AspectGenError {
    fn from(e: ParamError) -> Self {
        AspectGenError::Param(e)
    }
}

type AdviceFn = dyn Fn(&ParamSet) -> Result<Vec<Advice>, AspectGenError> + Send + Sync;

/// Closure-based [`GenericAspect`] builder.
///
/// ```
/// use comet_aop::{Advice, AdviceKind, parse_pointcut};
/// use comet_aspectgen::AspectBuilder;
/// use comet_codegen::Block;
/// use comet_transform::{ParamSchema, ParamSet, ParamValue};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ga = AspectBuilder::new("logging-aspect", "logging")
///     .schema(ParamSchema::new().string("class", true, None))
///     .advice_fn(|params| {
///         let class = params.str("class")?;
///         let pc = parse_pointcut(&format!("execution({class}.*)"))
///             .map_err(|e| comet_aspectgen::AspectGenError::Pointcut(e.to_string()))?;
///         Ok(vec![Advice::new(AdviceKind::Before, pc, Block::default())])
///     })
///     .build();
/// let ca = ga.specialize(&ParamSet::new().with("class", ParamValue::from("Bank")))?;
/// assert_eq!(ca.advices.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct AspectBuilder {
    name: String,
    concern: String,
    schema: ParamSchema,
    advice_fn: Option<Box<AdviceFn>>,
}

impl AspectBuilder {
    /// Starts a builder.
    pub fn new(name: &str, concern: &str) -> Self {
        AspectBuilder {
            name: name.to_owned(),
            concern: concern.to_owned(),
            schema: ParamSchema::new(),
            advice_fn: None,
        }
    }

    /// Sets the parameter schema.
    pub fn schema(mut self, schema: ParamSchema) -> Self {
        self.schema = schema;
        self
    }

    /// Sets the advice-template function.
    pub fn advice_fn(
        mut self,
        f: impl Fn(&ParamSet) -> Result<Vec<Advice>, AspectGenError> + Send + Sync + 'static,
    ) -> Self {
        self.advice_fn = Some(Box::new(f));
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    /// Panics when no advice function was provided.
    pub fn build(self) -> Arc<GenericAspect> {
        Arc::new(GenericAspect {
            name: self.name,
            concern: self.concern,
            schema: self.schema,
            advice_fn: self.advice_fn.expect("AspectBuilder requires an advice function"),
        })
    }
}

/// A generic aspect GA_Ci: an aspect template specialized by the same
/// parameter set `Si` as the paired generic model transformation. Built
/// by [`AspectBuilder`].
pub struct GenericAspect {
    name: String,
    concern: String,
    schema: ParamSchema,
    advice_fn: Box<AdviceFn>,
}

impl GenericAspect {
    /// Aspect name, e.g. `"transactions-aspect"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The concern dimension the aspect implements at code level.
    pub fn concern(&self) -> &str {
        &self.concern
    }

    /// The parameter schema; must accept the same `Si` as the paired
    /// transformation ([`crate::ConcernPair`] enforces this at
    /// specialization time by validating once and passing the effective
    /// set to both sides).
    pub fn parameter_schema(&self) -> &ParamSchema {
        &self.schema
    }

    /// Produces the concrete aspect CA_Ci for the given (already
    /// validated) parameters.
    ///
    /// # Errors
    /// Returns [`AspectGenError`] when the parameters cannot be turned
    /// into advice (e.g. a pointcut template renders invalid).
    pub fn specialize(&self, params: &ParamSet) -> Result<Aspect, AspectGenError> {
        let advices = (self.advice_fn)(params)?;
        let mut aspect = Aspect::new(format!("{}{}", self.name, params.angle_signature()));
        aspect.advices = advices;
        Ok(aspect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_aop::{parse_pointcut, AdviceKind};
    use comet_codegen::Block;
    use comet_transform::ParamValue;

    fn ga() -> Arc<GenericAspect> {
        AspectBuilder::new("tx-aspect", "transactions")
            .schema(ParamSchema::new().str_list("methods", true))
            .advice_fn(|params| {
                let mut advices = Vec::new();
                for m in params.str_list("methods")? {
                    let (class, method) = m
                        .split_once('.')
                        .ok_or_else(|| AspectGenError::Custom(format!("bad method `{m}`")))?;
                    let pc = parse_pointcut(&format!("execution({class}.{method})"))
                        .map_err(|e| AspectGenError::Pointcut(e.to_string()))?;
                    advices.push(Advice::new(AdviceKind::Around, pc, Block::default()));
                }
                Ok(advices)
            })
            .build()
    }

    #[test]
    fn specialization_renders_pointcuts_from_params() {
        let ga = ga();
        assert_eq!(ga.concern(), "transactions");
        let si = ParamSet::new().with(
            "methods",
            ParamValue::from(vec!["Bank.transfer".to_owned(), "Account.withdraw".to_owned()]),
        );
        let effective = ga.parameter_schema().validate(&si).unwrap();
        let ca = ga.specialize(&effective).unwrap();
        assert_eq!(ca.advices.len(), 2);
        assert!(ca.name.starts_with("tx-aspect<"));
        assert!(ca.name.contains("Bank.transfer"));
    }

    #[test]
    fn bad_params_reported() {
        let ga = ga();
        let si = ParamSet::new().with("methods", ParamValue::from(vec!["nodot".to_owned()]));
        let effective = ga.parameter_schema().validate(&si).unwrap();
        assert!(matches!(ga.specialize(&effective), Err(AspectGenError::Custom(_))));
    }
}
