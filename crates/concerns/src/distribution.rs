//! Concern **C1: distribution** (paper, Fig. 2).
//!
//! * `Si` slots: `server_class` (the class to expose remotely), `node`
//!   (the logical node it is deployed on), `registry` (the naming-service
//!   name; defaults to the class name), `operations` (the remotely
//!   callable operations — application-specific knowledge), `protocol`.
//! * CMT_dist: marks the class «Remote» with node/registry tagged values,
//!   adds a `registerRemote` operation, and creates a model-level
//!   `<Class>Proxy` class mirroring the remote operations (the structural
//!   artifact a CORBA/RMI stub generator would emit), wired with a
//!   dependency to the server class.
//! * CA_dist: an `around` advice per remote operation that executes
//!   locally when already on the right node and otherwise forwards via
//!   `net.call_list(node, registry, __method, __args)`; plus an `around`
//!   on `registerRemote` binding the object in the naming service.

use crate::util::{method_exists_ocl, pc_err, split_method};
use comet_aop::{parse_pointcut, Advice, AdviceKind};
use comet_aspectgen::{AspectBuilder, AspectGenError, ConcernPair};
use comet_codegen::marks::{intrinsics, STEREO_REMOTE, TAG_DIST_NODE, TAG_DIST_REGISTRY};
use comet_codegen::{Block, Expr, Stmt};
use comet_transform::{ParamSchema, ParamSet, TransformError, TransformationBuilder};

/// The concern name.
pub const CONCERN: &str = "distribution";

/// Name of the operation the CMT adds for naming-service registration
/// (shared with the baseline generator through the mark vocabulary).
pub const REGISTER_OP: &str = comet_codegen::marks::DIST_REGISTER_OP;

fn schema() -> ParamSchema {
    ParamSchema::new()
        .string("server_class", true, None)
        .string("node", true, None)
        .string("registry", false, Some(""))
        .str_list("operations", true)
        .choice("protocol", &["rpc"], "rpc")
}

fn registry_name(params: &ParamSet) -> String {
    match params.str("registry") {
        Ok(r) if !r.is_empty() => r.to_owned(),
        _ => params.str("server_class").unwrap_or("service").to_owned(),
    }
}

/// Builds the distribution [`ConcernPair`].
pub fn pair() -> ConcernPair {
    let gmt = TransformationBuilder::new("distribution", CONCERN)
        .schema(schema())
        .preconditions_fn(|params: &ParamSet| {
            let mut pre = Vec::new();
            if let Ok(class) = params.str("server_class") {
                pre.push(format!("Class.allInstances()->exists(c | c.name = '{class}')"));
                // Idempotence guard: not already distributed.
                pre.push(format!(
                    "not Class.allInstances()->exists(c | c.name = '{class}' and \
                     c.hasStereotype('{STEREO_REMOTE}'))"
                ));
                if let Ok(ops) = params.str_list("operations") {
                    for op in ops {
                        pre.push(method_exists_ocl(class, op));
                    }
                }
            }
            pre
        })
        .postconditions_fn(|params: &ParamSet| {
            let mut post = Vec::new();
            if let Ok(class) = params.str("server_class") {
                post.push(format!(
                    "Class.allInstances()->exists(c | c.name = '{class}' and \
                     c.hasStereotype('{STEREO_REMOTE}'))"
                ));
                post.push(format!("Class.allInstances()->exists(c | c.name = '{class}Proxy')"));
                post.push(method_exists_ocl(class, REGISTER_OP));
            }
            post
        })
        .body(|model, params| {
            let class_name = params.str("server_class")?.to_owned();
            let node = params.str("node")?.to_owned();
            let registry = registry_name(params);
            let ops: Vec<String> = params.str_list("operations")?.to_vec();
            let class = model
                .find_class(&class_name)
                .ok_or_else(|| TransformError::Custom(format!("no class `{class_name}`")))?;
            model.apply_stereotype(class, STEREO_REMOTE)?;
            model.set_tag(class, TAG_DIST_NODE, node.as_str())?;
            model.set_tag(class, TAG_DIST_REGISTRY, registry.as_str())?;
            model.add_operation(class, REGISTER_OP)?;
            // The proxy: same remote operations, structural stand-in for
            // the stub a platform generator would emit.
            let owner = model.element(class)?.owner().unwrap_or(model.root());
            let proxy = model.add_class(owner, &format!("{class_name}Proxy"))?;
            model.set_tag(proxy, TAG_DIST_NODE, node.as_str())?;
            model.set_tag(proxy, TAG_DIST_REGISTRY, registry.as_str())?;
            for op_name in &ops {
                let original = model.find_operation(class, op_name).ok_or_else(|| {
                    TransformError::Custom(format!("no operation `{class_name}.{op_name}`"))
                })?;
                let data = model
                    .element(original)?
                    .as_operation()
                    .expect("find_operation returns operations")
                    .clone();
                let params_of = model.parameters_of(original);
                let proxy_op = model.add_operation(proxy, op_name)?;
                model.set_return_type(proxy_op, data.return_type)?;
                for p in params_of {
                    let (p_name, p_ty) = {
                        let e = model.element(p)?;
                        (
                            e.name().to_owned(),
                            e.as_parameter().expect("parameters_of returns parameters").ty,
                        )
                    };
                    model.add_parameter(proxy_op, &p_name, p_ty)?;
                }
            }
            model.add_dependency(proxy, class)?;
            Ok(())
        })
        .build();

    let ga = AspectBuilder::new("distribution-aspect", CONCERN)
        .schema(schema())
        .advice_fn(|params| {
            let class = params.str("server_class")?.to_owned();
            let node = params.str("node")?.to_owned();
            let registry = registry_name(params);
            let mut advices = Vec::new();
            for op in params.str_list("operations")? {
                if split_method(&format!("{class}.{op}")).is_err() {
                    return Err(AspectGenError::Custom(format!("bad operation `{op}`")));
                }
                let pc = parse_pointcut(&format!("execution({class}.{op})")).map_err(pc_err)?;
                advices.push(Advice::new(AdviceKind::Around, pc, routing_body(&node, &registry)));
            }
            let pc =
                parse_pointcut(&format!("execution({class}.{REGISTER_OP})")).map_err(pc_err)?;
            advices.push(Advice::new(AdviceKind::Around, pc, register_body(&node, &registry)));
            Ok(advices)
        })
        .build();

    ConcernPair::new(gmt, ga)
}

/// Around template: local execution on the hosting node, RPC otherwise.
/// Uses the weaver-injected `__method` and `__args` join-point locals.
fn routing_body(node: &str, registry: &str) -> Block {
    Block::of(vec![
        Stmt::If {
            cond: Expr::intrinsic(intrinsics::NET_IS_LOCAL, vec![Expr::str(node)]),
            then_block: Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
            else_block: None,
        },
        Stmt::ret(Expr::intrinsic(
            intrinsics::NET_CALL_LIST,
            vec![Expr::str(node), Expr::str(registry), Expr::var("__method"), Expr::var("__args")],
        )),
    ])
}

/// Around template for `registerRemote`: bind in the naming service.
fn register_body(node: &str, registry: &str) -> Block {
    Block::of(vec![
        Stmt::Expr(Expr::intrinsic(
            intrinsics::NET_REGISTER,
            vec![Expr::str(node), Expr::str(registry)],
        )),
        Stmt::Return(None),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::banking_pim;
    use comet_transform::ParamValue;

    fn si() -> ParamSet {
        ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with(
                "operations",
                ParamValue::from(vec!["transfer".to_owned(), "openAccount".to_owned()]),
            )
    }

    #[test]
    fn cmt_creates_proxy_register_op_and_marks() {
        let (cmt, _) = pair().specialize(si()).unwrap();
        let mut m = banking_pim();
        let report = cmt.apply(&mut m).unwrap();
        let bank = m.find_class("Bank").unwrap();
        assert!(m.has_stereotype(bank, STEREO_REMOTE).unwrap());
        assert!(m.find_operation(bank, REGISTER_OP).is_some());
        let proxy = m.find_class("BankProxy").unwrap();
        assert_eq!(m.operations_of(proxy).len(), 2);
        // Proxy operations mirror signatures.
        let p_transfer = m.find_operation(proxy, "transfer").unwrap();
        assert_eq!(m.parameters_of(p_transfer).len(), 3);
        // Everything created is colored with the concern.
        assert!(report.created.len() >= 2);
        for id in &report.created {
            assert_eq!(m.concern_of(*id), Some(CONCERN), "{id} uncolored");
        }
        assert!(m.validate().is_ok());
    }

    #[test]
    fn reapplication_blocked_by_precondition() {
        let (cmt, _) = pair().specialize(si()).unwrap();
        let mut m = banking_pim();
        cmt.apply(&mut m).unwrap();
        let err = cmt.apply(&mut m).unwrap_err();
        assert!(matches!(err, TransformError::PreconditionFailed { .. }));
    }

    #[test]
    fn ca_has_routing_advice_per_operation_plus_registration() {
        let (_, ca) = pair().specialize(si()).unwrap();
        assert_eq!(ca.advices.len(), 3); // 2 ops + registerRemote
        assert!(ca.advices.iter().all(|a| a.kind == AdviceKind::Around));
    }

    #[test]
    fn registry_defaults_to_class_name() {
        let (cmt, _) = pair().specialize(si()).unwrap();
        let mut m = banking_pim();
        cmt.apply(&mut m).unwrap();
        let bank = m.find_class("Bank").unwrap();
        assert_eq!(
            m.element(bank).unwrap().core().tag(TAG_DIST_REGISTRY).unwrap().as_str(),
            Some("Bank")
        );
    }

    #[test]
    fn unknown_operation_fails_precondition() {
        let bad = ParamSet::new()
            .with("server_class", ParamValue::from("Bank"))
            .with("node", ParamValue::from("server"))
            .with("operations", ParamValue::from(vec!["teleport".to_owned()]));
        let (cmt, _) = pair().specialize(bad).unwrap();
        let mut m = banking_pim();
        assert!(matches!(
            cmt.apply(&mut m).unwrap_err(),
            TransformError::PreconditionFailed { .. }
        ));
    }

    #[test]
    fn routing_body_shape() {
        let b = routing_body("n", "r");
        assert_eq!(b.stmts.len(), 2);
        assert!(matches!(&b.stmts[0], Stmt::If { .. }));
    }
}
