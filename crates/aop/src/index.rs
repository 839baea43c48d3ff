//! Per-class pointcut-match tables, built inside the one weaving unit.
//!
//! Evaluating every aspect's every pointcut at every join-point shadow,
//! as the test-only reference weaver (`weaver/naive.rs`) does, means
//! once per *statement* for call shadows, so a method that calls `log`
//! in a loop body pays the full pointcut tree again for each
//! occurrence. The weaving unit
//! (`weave_classes` in `weaver.rs`) instead builds one class's tables
//! with `index_class` right before it weaves that class:
//!
//! * **Execution table** — per method, the matched advice list grouped
//!   by aspect in precedence order (`exec_layers`). Each pointcut is
//!   evaluated exactly once per (aspect, advice, method).
//! * **Call-shadow table** — per container method, a map keyed by the
//!   callee (`(declaring class if resolvable, method name)`) giving the
//!   matching call advices. Each pointcut is evaluated once per
//!   *distinct* callee in a method, not once per call statement.
//!
//! The tables are immutable once built and cover one class only.
//!
//! ## Why per-class parallel weaving is sound
//!
//! Weaving a class only ever (a) rewrites the bodies of that class's
//! own methods and (b) appends `__`-suffixed helper methods to that
//! same class; the decision of *what* to weave comes entirely from that
//! class's read-only tables. In critical-pair terms (Altahat et al., see
//! PAPERS.md): two aspect applications conflict only when their
//! join-point shadows overlap or one application's rewrite creates or
//! destroys a shadow the other matches. Shadows here are (class,
//! method) executions and (class, method, statement) calls — shadows in
//! different classes are disjoint by construction, and helper methods
//! created during weaving are excluded from shadow-hood by the `__`
//! naming rule, so weaving one class can neither create nor destroy a
//! shadow in another. All critical pairs therefore live *within* one
//! class, where the weaver already serializes applications by aspect
//! precedence order. Hence classes are independent units of work:
//! weaving them in any order — or concurrently — produces the same
//! program as the sequential reference weaver, which the differential
//! property tests in `weaver/properties.rs` check byte for byte.

use crate::advice::{AdviceKind, Aspect};
use crate::weaver::call_at_statement;
use comet_codegen::{ClassDecl, MethodDecl, Stmt};
use std::collections::{HashMap, HashSet};

/// Identity of a call shadow's match-relevant data inside one container
/// method: callee class (when statically resolvable) and callee name.
pub(crate) type CallKey = (Option<String>, String);

/// Match results for one method of one class.
#[derive(Debug, Default)]
pub(crate) struct MethodMatches {
    /// Execution advice grouped by aspect, `(aspect index, advice
    /// indices)`, aspect precedence order, only non-empty groups. Empty
    /// for methods excluded from execution weaving (helpers, already
    /// woven).
    pub exec_layers: Vec<(usize, Vec<usize>)>,
    /// Call-shadow table: distinct callee → matching `(aspect index,
    /// advice index)` pairs in precedence order. Misses are cached as
    /// empty entries so the weave pass never re-evaluates a pointcut.
    pub calls: HashMap<CallKey, Vec<(usize, usize)>>,
    /// True when at least one callee in `calls` has a match; a `false`
    /// lets the weave pass skip rebuilding the method body entirely.
    pub has_call_matches: bool,
}

/// Call advice candidates: only before/after participate at call
/// shadows (validation rejects user around/afterX there; the
/// synthesized cflow instrumentation may legitimately carry around
/// advice whose inner pointcut selects calls, which call shadows
/// ignore — so exclude it here).
pub(crate) fn call_advice_candidates(aspects: &[&Aspect]) -> Vec<(usize, usize)> {
    aspects
        .iter()
        .enumerate()
        .flat_map(|(k, aspect)| {
            aspect
                .advices
                .iter()
                .enumerate()
                .filter(|(_, adv)| {
                    adv.pointcut.selects_calls()
                        && matches!(adv.kind, AdviceKind::Before | AdviceKind::After)
                })
                .map(move |(j, _)| (k, j))
        })
        .collect()
}

/// Builds the match tables for one class: one entry per method, in
/// declaration order.
pub(crate) fn index_class(
    aspects: &[&Aspect],
    call_advices: &[(usize, usize)],
    class: &ClassDecl,
) -> Vec<MethodMatches> {
    let method_names: HashSet<&str> = class.methods.iter().map(|m| m.name.as_str()).collect();
    class
        .methods
        .iter()
        .map(|method| index_method(aspects, call_advices, class, method, &method_names))
        .collect()
}

fn index_method(
    aspects: &[&Aspect],
    call_advices: &[(usize, usize)],
    class: &ClassDecl,
    method: &MethodDecl,
    method_names: &HashSet<&str>,
) -> MethodMatches {
    let is_helper = method.name.contains("__");
    // Execution weaving skips helpers and methods whose functional
    // reification already exists (idempotence), mirroring the weaver's
    // own rule.
    let already_woven =
        is_helper || method_names.contains(format!("{}__functional", method.name).as_str());
    let exec_layers = if already_woven {
        Vec::new()
    } else {
        aspects
            .iter()
            .enumerate()
            .filter_map(|(k, aspect)| {
                let matching: Vec<usize> = aspect
                    .advices
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.pointcut.matches_execution(class, method))
                    .map(|(j, _)| j)
                    .collect();
                (!matching.is_empty()).then_some((k, matching))
            })
            .collect()
    };

    // Call shadows: helpers are never containers, and with no call
    // advice at all the statement walk is skipped outright.
    let mut calls = HashMap::new();
    if !is_helper && !call_advices.is_empty() {
        for stmt in &method.body.stmts {
            collect_call_keys(stmt, aspects, call_advices, class, method, &mut calls);
        }
    }
    let has_call_matches = calls.values().any(|v: &Vec<(usize, usize)>| !v.is_empty());
    MethodMatches { exec_layers, calls, has_call_matches }
}

/// Walks `stmt` exactly as the weaver's call pass does, evaluating the
/// call advices once per distinct callee key.
fn collect_call_keys(
    stmt: &Stmt,
    aspects: &[&Aspect],
    call_advices: &[(usize, usize)],
    class: &ClassDecl,
    method: &MethodDecl,
    calls: &mut HashMap<CallKey, Vec<(usize, usize)>>,
) {
    if let Some((callee_class, callee_name)) = call_at_statement(stmt) {
        // Weaver-generated helpers are never advised as callees.
        if callee_name.contains("__") {
            return;
        }
        calls.entry((callee_class, callee_name)).or_insert_with_key(|(cc, cn)| {
            call_advices
                .iter()
                .copied()
                .filter(|&(k, j)| {
                    aspects[k].advices[j].pointcut.matches_call(class, method, cc.as_deref(), cn)
                })
                .collect()
        });
        // A statement that *is* a call shadow is wrapped whole; the
        // weaver does not look for further shadows inside it.
        return;
    }
    match stmt {
        Stmt::If { then_block, else_block, .. } => {
            for s in &then_block.stmts {
                collect_call_keys(s, aspects, call_advices, class, method, calls);
            }
            if let Some(eb) = else_block {
                for s in &eb.stmts {
                    collect_call_keys(s, aspects, call_advices, class, method, calls);
                }
            }
        }
        Stmt::While { body, .. } => {
            for s in &body.stmts {
                collect_call_keys(s, aspects, call_advices, class, method, calls);
            }
        }
        Stmt::TryCatch { body, handler, finally, .. } => {
            for s in &body.stmts {
                collect_call_keys(s, aspects, call_advices, class, method, calls);
            }
            for s in &handler.stmts {
                collect_call_keys(s, aspects, call_advices, class, method, calls);
            }
            if let Some(fb) = finally {
                for s in &fb.stmts {
                    collect_call_keys(s, aspects, call_advices, class, method, calls);
                }
            }
        }
        Stmt::Block(b) => {
            for s in &b.stmts {
                collect_call_keys(s, aspects, call_advices, class, method, calls);
            }
        }
        _ => {}
    }
}
