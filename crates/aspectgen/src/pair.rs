//! The 1–1 association between a generic model transformation and its
//! generic aspect — the structure of the paper's Fig. 1.

use crate::generic::{AspectGenError, GenericAspect};
use comet_aop::Aspect;
use comet_transform::{
    specialize as specialize_gmt, ConcreteTransformation, GenericTransformation, ParamSet,
};
use std::fmt;
use std::sync::Arc;

/// A concern module: GMT_Ci paired with GA_Ci.
///
/// One parameter set `Si` specializes *both* sides — this shared
/// specialization is what lets a generic aspect acquire the
/// application-specific knowledge it needs (Kienzle & Guerraoui's
/// semantic-coupling objection, answered).
#[derive(Clone)]
pub struct ConcernPair {
    gmt: Arc<GenericTransformation>,
    ga: Arc<GenericAspect>,
}

impl fmt::Debug for ConcernPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConcernPair({} ⇄ {})", self.gmt.name(), self.ga.name())
    }
}

impl ConcernPair {
    /// Pairs a transformation with its aspect.
    ///
    /// # Panics
    /// Panics when the two sides disagree on the concern name — the
    /// pairing is 1–1 per concern dimension by construction.
    pub fn new(gmt: Arc<GenericTransformation>, ga: Arc<GenericAspect>) -> Self {
        assert_eq!(
            gmt.concern(),
            ga.concern(),
            "a ConcernPair must pair a transformation and an aspect of the same concern"
        );
        ConcernPair { gmt, ga }
    }

    /// The concern dimension.
    pub fn concern(&self) -> &str {
        self.gmt.concern()
    }

    /// The generic transformation side.
    pub fn transformation(&self) -> &Arc<GenericTransformation> {
        &self.gmt
    }

    /// The generic aspect side.
    pub fn aspect(&self) -> &Arc<GenericAspect> {
        &self.ga
    }

    /// Specializes both sides with **one** parameter set `Si`:
    /// validates `Si` against the transformation schema (filling
    /// defaults) and hands the same effective set to the aspect
    /// template. Returns `(CMT_Ci, CA_Ci)`.
    ///
    /// # Errors
    /// Propagates parameter validation and aspect-template failures.
    pub fn specialize(
        &self,
        si: ParamSet,
    ) -> Result<(ConcreteTransformation, Aspect), AspectGenError> {
        let cmt = specialize_gmt(Arc::clone(&self.gmt), si)?;
        // The effective (default-filled) Si from the transformation side
        // is exactly what the aspect receives: one Si, two artifacts.
        let ca = self.ga.specialize(cmt.params())?;
        Ok((cmt, ca))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::AspectBuilder;
    use comet_aop::{parse_pointcut, Advice, AdviceKind};
    use comet_codegen::Block;
    use comet_transform::{ParamSchema, ParamValue, TransformationBuilder};

    fn pair() -> ConcernPair {
        let schema =
            || ParamSchema::new().string("class", true, None).choice("mode", &["a", "b"], "a");
        let gmt = TransformationBuilder::new("mark", "security")
            .schema(schema())
            .body(|model, params| {
                let class = model
                    .find_class(params.str("class")?)
                    .ok_or_else(|| comet_transform::TransformError::Custom("missing".into()))?;
                model.apply_stereotype(class, "Secured")?;
                Ok(())
            })
            .build();
        let ga = AspectBuilder::new("guard", "security")
            .schema(schema())
            .advice_fn(|params| {
                let class = params.str("class")?;
                let mode = params.str("mode")?;
                let pc = parse_pointcut(&format!("execution({class}.*)"))
                    .map_err(|e| AspectGenError::Pointcut(e.to_string()))?;
                let mut a = Advice::new(AdviceKind::Before, pc, Block::default());
                // Mode feeds the advice in real concerns; here we only
                // check it arrived.
                assert!(!mode.is_empty());
                Ok(vec![a.clone()]).map(|v| {
                    a = v[0].clone();
                    v
                })
            })
            .build();
        ConcernPair::new(gmt, ga)
    }

    #[test]
    fn one_si_specializes_both_sides() {
        let p = pair();
        assert_eq!(p.concern(), "security");
        let si = ParamSet::new().with("class", ParamValue::from("Bank"));
        let (cmt, ca) = p.specialize(si).unwrap();
        // Both carry the same effective Si, defaults included.
        assert_eq!(cmt.full_name(), "mark<class=Bank, mode=a>");
        assert_eq!(ca.name, "guard<class=Bank, mode=a>");
        assert_eq!(cmt.params().str("mode").unwrap(), "a");
        assert_eq!(p.transformation().name(), "mark");
        assert_eq!(p.aspect().name(), "guard");
    }

    #[test]
    fn invalid_si_rejected_once_for_both() {
        let p = pair();
        let err = p.specialize(ParamSet::new()).unwrap_err();
        assert!(matches!(err, AspectGenError::Param(_)));
    }

    #[test]
    #[should_panic(expected = "same concern")]
    fn mismatched_concerns_panic() {
        let gmt = TransformationBuilder::new("t", "a").body(|_, _| Ok(())).build();
        let ga = AspectBuilder::new("g", "b").advice_fn(|_| Ok(vec![])).build();
        let _ = ConcernPair::new(gmt, ga);
    }
}
