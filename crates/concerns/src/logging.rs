//! Extension concern: **logging/monitoring** — the "communication"
//! flavour of the paper's middleware-services list, implemented as call
//! tracing.
//!
//! * `Si` slots: `targets` (patterns `Class.method`, `*` allowed in
//!   either position) and `level`.
//! * CMT_log: marks every operation matching a target «Logged» with the
//!   level tagged value.
//! * CA_log: per target, `before` (enter) and `afterReturning` (exit)
//!   advice emitting log records that carry the weaver-injected `__jp`.

use crate::util::{pc_err, split_method};
use comet_aop::{parse_pointcut, Advice, AdviceKind, NamePattern};
use comet_aspectgen::{AspectBuilder, AspectGenError, ConcernPair};
use comet_codegen::marks::{intrinsics, STEREO_LOGGED, TAG_LOG_LEVEL};
use comet_codegen::{Block, Expr, IrBinOp, Stmt};
use comet_transform::{ParamSchema, TransformError, TransformationBuilder};

/// The concern name.
pub const CONCERN: &str = "logging";

fn schema() -> ParamSchema {
    ParamSchema::new().str_list("targets", true).choice(
        "level",
        &["info", "debug", "trace"],
        "info",
    )
}

/// Builds the logging [`ConcernPair`].
pub fn pair() -> ConcernPair {
    let gmt = TransformationBuilder::new("logging", CONCERN)
        .schema(schema())
        .body(|model, params| {
            let level = params.str("level")?.to_owned();
            // The body adds no class and renames none, so one read of
            // the classes (in id order) serves every target.
            let classes = model
                .classes()
                .into_iter()
                .map(|class| Ok((class, model.element(class)?.name().to_owned())))
                .collect::<Result<Vec<_>, TransformError>>()?;
            let mut matched_any = false;
            for target in params.str_list("targets")? {
                let (class_pat, method_pat) =
                    split_method(target).map_err(TransformError::Custom)?;
                let class_pattern = NamePattern::new(class_pat);
                let method_pattern = NamePattern::new(method_pat);
                for (class, class_name) in &classes {
                    if !class_pattern.matches(class_name) {
                        continue;
                    }
                    for op in model.operations_of(*class) {
                        if method_pattern.matches(model.element(op)?.name()) {
                            model.apply_stereotype(op, STEREO_LOGGED)?;
                            model.set_tag(op, TAG_LOG_LEVEL, level.as_str())?;
                            matched_any = true;
                        }
                    }
                }
            }
            if !matched_any {
                return Err(TransformError::Custom(
                    "no operation matched any logging target".into(),
                ));
            }
            Ok(())
        })
        .postcondition(&format!(
            "Operation.allInstances()->exists(o | o.hasStereotype('{STEREO_LOGGED}'))"
        ))
        .build();

    let ga = AspectBuilder::new("logging-aspect", CONCERN)
        .schema(schema())
        .advice_fn(|params| {
            let level = params.str("level")?.to_owned();
            let mut advices = Vec::new();
            for target in params.str_list("targets")? {
                let (class_pat, method_pat) =
                    split_method(target).map_err(AspectGenError::Custom)?;
                let pc = parse_pointcut(&format!("execution({class_pat}.{method_pat})"))
                    .map_err(pc_err)?;
                advices.push(Advice::new(
                    AdviceKind::Before,
                    pc.clone(),
                    emit_body(&level, "enter "),
                ));
                advices.push(Advice::new(
                    AdviceKind::AfterReturning,
                    pc,
                    emit_body(&level, "exit "),
                ));
            }
            Ok(advices)
        })
        .build();

    ConcernPair::new(gmt, ga)
}

fn emit_body(level: &str, prefix: &str) -> Block {
    Block::of(vec![Stmt::Expr(Expr::intrinsic(
        intrinsics::LOG_EMIT,
        vec![Expr::str(level), Expr::binary(IrBinOp::Add, Expr::str(prefix), Expr::var("__jp"))],
    ))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::banking_pim;
    use comet_transform::{ParamSet, ParamValue};

    #[test]
    fn wildcard_targets_mark_matching_operations() {
        let si = ParamSet::new()
            .with("targets", ParamValue::from(vec!["Bank.*".to_owned()]))
            .with("level", ParamValue::from("debug"));
        let (cmt, ca) = pair().specialize(si).unwrap();
        let mut m = banking_pim();
        cmt.apply(&mut m).unwrap();
        let bank = m.find_class("Bank").unwrap();
        for op in m.operations_of(bank) {
            assert!(m.element(op).unwrap().core().has_stereotype(STEREO_LOGGED));
            assert_eq!(
                m.element(op).unwrap().core().tag(TAG_LOG_LEVEL).unwrap().as_str(),
                Some("debug")
            );
        }
        // Other classes untouched.
        let account = m.find_class("Account").unwrap();
        for op in m.operations_of(account) {
            assert!(!m.element(op).unwrap().core().has_stereotype(STEREO_LOGGED));
        }
        assert_eq!(ca.advices.len(), 2);
        assert_eq!(ca.advices[0].kind, AdviceKind::Before);
        assert_eq!(ca.advices[1].kind, AdviceKind::AfterReturning);
    }

    #[test]
    fn no_match_is_an_error_and_rolls_back() {
        let si = ParamSet::new().with("targets", ParamValue::from(vec!["Ghost.*".to_owned()]));
        let (cmt, _) = pair().specialize(si).unwrap();
        let mut m = banking_pim();
        let snapshot = m.clone();
        assert!(cmt.apply(&mut m).is_err());
        assert_eq!(m, snapshot);
    }

    #[test]
    fn bad_target_rejected() {
        // The aspect template rejects the malformed entry during the
        // shared specialization, so neither artifact is produced.
        let si = ParamSet::new().with("targets", ParamValue::from(vec!["nodot".to_owned()]));
        assert!(pair().specialize(si.clone()).is_err());
        // The transformation side independently rejects it at apply time.
        let cmt = comet_transform::specialize(std::sync::Arc::clone(pair().transformation()), si)
            .unwrap();
        let mut m = banking_pim();
        assert!(cmt.apply(&mut m).is_err());
    }
}
