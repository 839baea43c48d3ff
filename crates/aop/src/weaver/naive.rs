//! The sequential reference weaver, the differential oracle for
//! [`Weaver::weave`]: it clones the whole program up front and
//! re-evaluates every pointcut at every shadow, where the per-class
//! unit looks its match tables up. `properties.rs` asserts the two
//! weave byte-identical programs and traces.

use super::{
    apply_execution_layers, call_at_statement, effective_aspects, guarded_stmts, Shadow,
    WeaveError, WeaveResult, Weaver, WovenJoinPoint,
};
use crate::advice::{Advice, AdviceKind, Aspect};
use comet_codegen::{Block, ClassDecl, Expr, IrType, MethodDecl, Program, Stmt};

impl Weaver {
    /// Weaves like [`Weaver::weave`], by the reference algorithm.
    pub(crate) fn weave_naive(&self, program: &Program) -> Result<WeaveResult, WeaveError> {
        let instrumentation = self.validate_and_instrument()?;
        let aspects = effective_aspects(&self.aspects, instrumentation.as_ref());
        let mut woven = program.clone();
        let mut trace = Vec::new();
        // Calls first: execution weaving moves functional bodies into
        // `__`-suffixed helpers, which the call pass (correctly) skips as
        // containers, so call shadows must be found before that move.
        weave_calls(&aspects, &mut woven, &mut trace);
        weave_executions(&aspects, &mut woven, &mut trace);
        Ok(WeaveResult { program: woven, trace })
    }
}

fn weave_executions(aspects: &[&Aspect], program: &mut Program, trace: &mut Vec<WovenJoinPoint>) {
    for class_idx in 0..program.classes.len() {
        let method_names: Vec<String> =
            program.classes[class_idx].methods.iter().map(|m| m.name.clone()).collect();
        for method_name in method_names {
            weave_one_execution(aspects, &mut program.classes[class_idx], &method_name, trace);
        }
    }
}

fn weave_one_execution(
    aspects: &[&Aspect],
    class: &mut ClassDecl,
    method_name: &str,
    trace: &mut Vec<WovenJoinPoint>,
) {
    // Already-woven methods (their functional helper exists) are left
    // alone: weaving is idempotent per method.
    if class.find_method(&format!("{method_name}__functional")).is_some()
        || method_name.contains("__")
    {
        return;
    }
    // Gather matching advice per aspect, preserving aspect order —
    // evaluated from scratch for every method, which is exactly what the
    // match tables exist to avoid.
    let method_snapshot =
        class.find_method(method_name).expect("caller iterates real names").clone();
    let mut layers: Vec<(usize, Vec<&Advice>)> = Vec::new();
    for (k, aspect) in aspects.iter().enumerate() {
        let matching: Vec<&Advice> = aspect
            .advices
            .iter()
            .filter(|a| a.pointcut.matches_execution(class, &method_snapshot))
            .collect();
        if !matching.is_empty() {
            layers.push((k, matching));
        }
    }
    if layers.is_empty() {
        return;
    }
    let aspect_names: Vec<&str> = aspects.iter().map(|a| a.name.as_str()).collect();
    apply_execution_layers(class, method_name, &layers, &aspect_names, trace);
}

fn weave_calls(aspects: &[&Aspect], program: &mut Program, trace: &mut Vec<WovenJoinPoint>) {
    for class_idx in 0..program.classes.len() {
        for method_idx in 0..program.classes[class_idx].methods.len() {
            let class_snapshot = program.classes[class_idx].clone();
            let method_snapshot = class_snapshot.methods[method_idx].clone();
            // Skip advice-generated helpers as *containers*: their
            // call statements are delegation plumbing.
            if method_snapshot.name.contains("__") {
                continue;
            }
            let mut new_stmts = Vec::new();
            for stmt in &method_snapshot.body.stmts {
                weave_call_stmt(
                    aspects,
                    stmt,
                    &class_snapshot,
                    &method_snapshot,
                    &mut new_stmts,
                    trace,
                );
            }
            program.classes[class_idx].methods[method_idx].body = Block::of(new_stmts);
        }
    }
}

/// Emits `stmt` into `out`, surrounded by any matching call advice.
/// Call shadows are only recognized at statement position (the IR has
/// no statement-level expression evaluation order to exploit).
fn weave_call_stmt(
    aspects: &[&Aspect],
    stmt: &Stmt,
    class: &ClassDecl,
    method: &MethodDecl,
    out: &mut Vec<Stmt>,
    trace: &mut Vec<WovenJoinPoint>,
) {
    let callee = call_at_statement(stmt);
    let Some((callee_class, callee_name)) = callee else {
        // Recurse into structured statements so nested shadows are
        // found.
        match stmt {
            Stmt::If { cond, then_block, else_block } => {
                let mut tb = Vec::new();
                for s in &then_block.stmts {
                    weave_call_stmt(aspects, s, class, method, &mut tb, trace);
                }
                let eb = else_block.as_ref().map(|b| {
                    let mut v = Vec::new();
                    for s in &b.stmts {
                        weave_call_stmt(aspects, s, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_block: Block::of(tb),
                    else_block: eb,
                });
            }
            Stmt::While { cond, body } => {
                let mut v = Vec::new();
                for s in &body.stmts {
                    weave_call_stmt(aspects, s, class, method, &mut v, trace);
                }
                out.push(Stmt::While { cond: cond.clone(), body: Block::of(v) });
            }
            Stmt::TryCatch { body, var, handler, finally } => {
                let mut b = Vec::new();
                for s in &body.stmts {
                    weave_call_stmt(aspects, s, class, method, &mut b, trace);
                }
                let mut h = Vec::new();
                for s in &handler.stmts {
                    weave_call_stmt(aspects, s, class, method, &mut h, trace);
                }
                let fin = finally.as_ref().map(|fb| {
                    let mut v = Vec::new();
                    for s in &fb.stmts {
                        weave_call_stmt(aspects, s, class, method, &mut v, trace);
                    }
                    Block::of(v)
                });
                out.push(Stmt::TryCatch {
                    body: Block::of(b),
                    var: var.clone(),
                    handler: Block::of(h),
                    finally: fin,
                });
            }
            Stmt::Block(b) => {
                let mut v = Vec::new();
                for s in &b.stmts {
                    weave_call_stmt(aspects, s, class, method, &mut v, trace);
                }
                out.push(Stmt::Block(Block::of(v)));
            }
            other => out.push(other.clone()),
        }
        return;
    };
    if callee_name.contains("__") {
        out.push(stmt.clone());
        return;
    }
    let callee_class_ref = callee_class.as_deref();
    let mut befores = Vec::new();
    let mut afters = Vec::new();
    for aspect in aspects {
        for advice in &aspect.advices {
            if !advice.pointcut.selects_calls() {
                continue;
            }
            if advice.pointcut.matches_call(class, method, callee_class_ref, &callee_name) {
                let record = WovenJoinPoint {
                    class: class.name.clone(),
                    method: method.name.clone(),
                    aspect: aspect.name.clone(),
                    kind: advice.kind,
                    shadow: Shadow::Call { callee: callee_name.clone() },
                };
                match advice.kind {
                    AdviceKind::Before => {
                        befores.extend(guarded_stmts(advice));
                        trace.push(record);
                    }
                    AdviceKind::After => {
                        afters.extend(guarded_stmts(advice));
                        trace.push(record);
                    }
                    _ => {}
                }
            }
        }
    }
    if befores.is_empty() && afters.is_empty() {
        out.push(stmt.clone());
        return;
    }
    let jp = format!("{}.{}", callee_class.clone().unwrap_or_else(|| "*".into()), callee_name);
    out.push(Stmt::Block(Block::of(
        std::iter::once(Stmt::local("__jp", IrType::Str, Expr::str(jp)))
            .chain(befores)
            .chain(std::iter::once(stmt.clone()))
            .chain(afters)
            .collect(),
    )));
}
