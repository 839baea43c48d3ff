//! Incremental re-weaving: splice a dirty subset of classes into the
//! previous [`WeaveResult`] instead of re-weaving the whole program.
//!
//! It runs the same per-class unit as [`Weaver::weave`]
//! (`weave_classes` in `weaver.rs`), only over the classes its cache
//! cannot reuse.
//!
//! ## Why per-class splicing is sound
//!
//! The critical-pair argument in `index.rs` established that classes
//! are independent units of work: weaving a class reads only that
//! class's declaration plus the (read-only) aspect list, and writes
//! only that class. It follows that a class whose *input declaration is
//! unchanged* weaves to the same output — so a cached woven class can
//! be reused verbatim whenever its pre-weave declaration is equal to
//! the new one. The dirty-class set steers *which* classes are even
//! candidates for re-weaving; the per-class input-equality check makes
//! correctness independent of the dirty set's precision (an over-dirty
//! set costs time, an under-dirty set is caught by the equality guard
//! only when the declaration really changed — callers derive the set
//! conservatively from the model's [`DirtySet`](comet_model::DirtySet)
//! closure, see `comet-model`'s `dirty` module).
//!
//! The reassembled trace keeps the full weaver's global phase order
//! (all call records in class order, then all execution records in
//! class order), so the spliced result is **byte-identical** to a full
//! [`Weaver::weave`] — the full weaver is retained as the differential
//! oracle and the property suite asserts exactly this equality.
//!
//! ## Cost model: the result is shared, not copied
//!
//! [`IncrementalWeaver::weave_at`] returns `Arc<WeaveResult>` and the
//! cache keeps a twin handle. A one-class edit must therefore never pay
//! an O(program) copy:
//!
//! * **full hit** (unchanged revision and input) — the cached handle is
//!   cloned; O(1) beyond the input-equality verification;
//! * **in-place splice** — when the class topology is unchanged (same
//!   slot count, every reused slot maps to its own position) and the
//!   caller has dropped the previous handle, `Arc::try_unwrap` recovers
//!   the buffer and the re-woven classes overwrite their slots; trace
//!   segments are replaced back-to-front with `Vec::splice`, which
//!   moves records instead of cloning them;
//! * **reassembly fallback** — topology changes (class added, removed,
//!   reordered) or a still-live previous handle fall back to copying
//!   the reused slots out of the shared result. Correctness never
//!   depends on which path ran.
//!
//! ## Cache keying and invalidation
//!
//! The cache is keyed by the caller-supplied *revision* (the model
//! generation counter feeding the functional program). Revisions are
//! only comparable within one model instance — clones and undo-restored
//! snapshots restart the counter — so a revision-equal hit additionally
//! verifies per-class input equality before short-circuiting. Aspect
//! changes must be handled by the owner (the lifecycle fingerprints its
//! aspect list and replaces the whole `IncrementalWeaver`).

use crate::weaver::{
    effective_aspects, record_weave_trace, weave_classes, WeaveError, WeaveResult, Weaver,
    WovenClass, WovenJoinPoint,
};
use comet_codegen::{ClassDecl, Program};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// What one [`IncrementalWeaver::weave_at`] call did — feeds the
/// `weave.incremental.*` obs counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// True when the previous result was reused, fully (unchanged
    /// revision) or partially (dirty-subset splice).
    pub hit: bool,
    /// Classes actually re-woven this call.
    pub rewoven: usize,
    /// Classes in the program.
    pub total: usize,
}

/// Per-slot cache metadata: the pre-weave declaration the slot was
/// woven from and how many trace records it contributed to each phase.
/// The woven class itself lives in the shared result's program — slot
/// `i` here describes `result.program.classes[i]`.
#[derive(Debug, Clone)]
struct CachedClass {
    input: ClassDecl,
    calls: usize,
    execs: usize,
}

#[derive(Debug, Clone)]
struct CachedWeave {
    revision: u64,
    /// Aligned with `result.program.classes`.
    classes: Vec<CachedClass>,
    /// The woven result, shared with the last caller. Once the caller
    /// drops its handle the next splice reuses this buffer in place.
    result: Arc<WeaveResult>,
}

/// Start offsets of each slot's call and execution trace segments in
/// the flat trace (all call segments in slot order, then all execution
/// segments in slot order).
fn trace_offsets(classes: &[CachedClass]) -> (Vec<usize>, Vec<usize>) {
    let total_calls: usize = classes.iter().map(|s| s.calls).sum();
    let mut call_off = Vec::with_capacity(classes.len());
    let mut exec_off = Vec::with_capacity(classes.len());
    let (mut c, mut e) = (0, total_calls);
    for s in classes {
        call_off.push(c);
        c += s.calls;
        exec_off.push(e);
        e += s.execs;
    }
    (call_off, exec_off)
}

/// A [`Weaver`] with a one-deep result cache and dirty-set splicing.
#[derive(Debug, Clone)]
pub struct IncrementalWeaver {
    weaver: Weaver,
    cached: Option<CachedWeave>,
}

impl IncrementalWeaver {
    /// Wraps `weaver`; the first [`IncrementalWeaver::weave_at`] is
    /// necessarily a full weave.
    pub fn new(weaver: Weaver) -> Self {
        IncrementalWeaver { weaver, cached: None }
    }

    /// Weaves `program` at model `revision`, reusing the previous
    /// result where the dirty-class set allows:
    ///
    /// * same revision and equal input program → return the cached
    ///   result handle, zero classes re-woven;
    /// * `dirty` given → re-weave only classes that are named dirty or
    ///   whose declaration changed, splice everything else from cache;
    /// * `dirty` is `None` (unknown delta) or no cache → full weave.
    ///
    /// The result is byte-identical to [`Weaver::weave`] on the same
    /// program in every case (the handle is shared with the internal
    /// cache; see the module docs for the cost model).
    ///
    /// An enabled `obs` records one `weave` span, one `class:<Name>`
    /// span per advised class and one `weave.advice` event per join
    /// point, derived from the result alone: a cache hit traces
    /// byte-identically to a cold weave, at any thread count.
    ///
    /// # Errors
    /// Same conditions as [`Weaver::weave`].
    pub fn weave_at(
        &mut self,
        revision: u64,
        program: &Program,
        dirty: Option<&BTreeSet<String>>,
        obs: &comet_obs::Collector,
    ) -> Result<(Arc<WeaveResult>, IncrementalStats), WeaveError> {
        let record = |result: &WeaveResult| {
            if obs.is_enabled() {
                record_weave_trace(obs, self.weaver.aspects().len(), result);
            }
        };
        let total = program.classes.len();
        if let Some(cached) = &self.cached {
            // Revision equality alone is not trusted (restored
            // snapshots restart the counter): verify the input too.
            // This is a comparison, not a copy — the hit itself is an
            // `Arc` clone.
            if cached.revision == revision
                && cached.result.program.name == program.name
                && cached.classes.len() == total
                && cached.classes.iter().zip(&program.classes).all(|(cc, c)| cc.input == *c)
            {
                record(&cached.result);
                let result = Arc::clone(&cached.result);
                return Ok((result, IncrementalStats { hit: true, rewoven: 0, total }));
            }
        }

        let instrumentation = self.weaver.validate_and_instrument()?;
        let aspects = effective_aspects(self.weaver.aspects(), instrumentation.as_ref());

        // Which cached slot each output slot reuses. Duplicate class
        // names are consumed in declaration order.
        let plan: Vec<Option<usize>> = match (&self.cached, dirty) {
            (Some(cached), Some(dirty)) => {
                let mut by_name: HashMap<&str, VecDeque<usize>> = HashMap::new();
                for (i, cc) in cached.classes.iter().enumerate() {
                    by_name.entry(cc.input.name.as_str()).or_default().push_back(i);
                }
                program
                    .classes
                    .iter()
                    .map(|class| {
                        if dirty.contains(&class.name) {
                            return None;
                        }
                        let slot = by_name.get_mut(class.name.as_str())?.pop_front()?;
                        (cached.classes[slot].input == *class).then_some(slot)
                    })
                    .collect()
            }
            _ => vec![None; total],
        };

        let rewoven = plan.iter().filter(|p| p.is_none()).count();
        let hit = self.cached.is_some() && rewoven < total;

        // Weave the slots the plan could not fill.
        let todo: Vec<usize> = (0..total).filter(|i| plan[*i].is_none()).collect();
        let fresh = weave_classes(&aspects, program, &todo);

        // In-place splice needs an unchanged topology (every reused
        // slot keeps its position) and sole ownership of the buffer.
        // Each spliced segment moves the trace tail behind it, so the
        // path only wins while few slots changed — past a quarter of
        // the program, rebuilding the buffers once is cheaper than the
        // repeated tail moves.
        let identity = rewoven * 4 <= total
            && self.cached.as_ref().is_some_and(|c| c.classes.len() == total)
            && plan.iter().enumerate().all(|(i, p)| p.is_none() || *p == Some(i));
        let mut taken = None;
        if identity {
            if let Some(cw) = self.cached.take() {
                match Arc::try_unwrap(cw.result) {
                    Ok(owned) => taken = Some((owned, cw.classes)),
                    Err(shared) => {
                        self.cached = Some(CachedWeave {
                            revision: cw.revision,
                            classes: cw.classes,
                            result: shared,
                        });
                    }
                }
            }
        }

        let (result, classes) = match taken {
            Some((owned, slots)) => splice_in_place(owned, slots, fresh, program),
            None => reassemble(self.cached.as_ref(), &plan, fresh, program),
        };
        record(&result);
        self.cached = Some(CachedWeave { revision, classes, result: Arc::clone(&result) });
        Ok((result, IncrementalStats { hit, rewoven, total }))
    }
}

/// The hot splice: overwrite re-woven slots inside the recovered result
/// buffer. Trace segments are replaced back-to-front (execution phase
/// first — it sits behind the call phase in the flat trace) so the
/// offsets computed from the *previous* slot metadata stay valid while
/// earlier segments are still untouched. Nothing here copies a reused
/// class or trace record.
fn splice_in_place(
    mut owned: WeaveResult,
    mut slots: Vec<CachedClass>,
    mut fresh: Vec<WovenClass>,
    program: &Program,
) -> (Arc<WeaveResult>, Vec<CachedClass>) {
    let (call_off, exec_off) = trace_offsets(&slots);
    for f in fresh.iter_mut().rev() {
        let start = exec_off[f.slot];
        let old = slots[f.slot].execs;
        let execs = std::mem::take(&mut f.execs);
        slots[f.slot].execs = execs.len();
        owned.trace.splice(start..start + old, execs);
    }
    for f in fresh.iter_mut().rev() {
        let start = call_off[f.slot];
        let old = slots[f.slot].calls;
        let calls = std::mem::take(&mut f.calls);
        slots[f.slot].calls = calls.len();
        owned.trace.splice(start..start + old, calls);
    }
    for f in fresh {
        owned.program.classes[f.slot] = f.woven;
        slots[f.slot].input = program.classes[f.slot].clone();
    }
    owned.program.name.clone_from(&program.name);
    let result = Arc::new(owned);
    (result, slots)
}

/// The cold path: build a fresh result, copying reused slots out of the
/// shared previous result (topology changed, or the caller still holds
/// the previous handle).
fn reassemble(
    cached: Option<&CachedWeave>,
    plan: &[Option<usize>],
    fresh: Vec<WovenClass>,
    program: &Program,
) -> (Arc<WeaveResult>, Vec<CachedClass>) {
    let offsets = cached.map(|c| trace_offsets(&c.classes));
    let mut fresh = fresh.into_iter();
    let mut out = Program::new(program.name.clone());
    let mut slots = Vec::with_capacity(plan.len());
    let mut call_segs: Vec<Vec<WovenJoinPoint>> = Vec::with_capacity(plan.len());
    let mut exec_segs: Vec<Vec<WovenJoinPoint>> = Vec::with_capacity(plan.len());
    for (i, reuse) in plan.iter().enumerate() {
        match reuse {
            Some(j) => {
                let cw = cached.expect("plan only reuses when a cache exists");
                let (call_off, exec_off) = offsets.as_ref().expect("offsets follow cache");
                let meta = &cw.classes[*j];
                out.classes.push(cw.result.program.classes[*j].clone());
                call_segs.push(cw.result.trace[call_off[*j]..call_off[*j] + meta.calls].to_vec());
                exec_segs.push(cw.result.trace[exec_off[*j]..exec_off[*j] + meta.execs].to_vec());
                slots.push(CachedClass {
                    input: program.classes[i].clone(),
                    calls: meta.calls,
                    execs: meta.execs,
                });
            }
            None => {
                let f = fresh.next().expect("one fresh weave per unplanned slot");
                debug_assert_eq!(f.slot, i);
                slots.push(CachedClass {
                    input: program.classes[i].clone(),
                    calls: f.calls.len(),
                    execs: f.execs.len(),
                });
                out.classes.push(f.woven);
                call_segs.push(f.calls);
                exec_segs.push(f.execs);
            }
        }
    }
    let mut trace = Vec::new();
    for seg in call_segs {
        trace.extend(seg);
    }
    for seg in exec_segs {
        trace.extend(seg);
    }
    let result = Arc::new(WeaveResult { program: out, trace });
    (result, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{Advice, AdviceKind, Aspect};
    use crate::pointcut::parse_pointcut;
    use comet_codegen::{Block, Expr, MethodDecl, Stmt};
    use comet_obs::Collector;

    fn off() -> Collector {
        Collector::disabled()
    }

    fn program(n: usize) -> Program {
        let mut p = Program::new("app");
        for i in 0..n {
            let mut c = ClassDecl::new(format!("C{i}"));
            let mut m = MethodDecl::new("run");
            m.body = Block::of(vec![Stmt::Expr(Expr::call_this("helper", vec![]))]);
            c.methods.push(m);
            c.methods.push(MethodDecl::new("helper"));
            p.classes.push(c);
        }
        p
    }

    fn aspects() -> Vec<Aspect> {
        vec![
            Aspect::new("log").with_advice(Advice::new(
                AdviceKind::Before,
                parse_pointcut("execution(*.run)").unwrap(),
                Block::of(vec![Stmt::Expr(Expr::intrinsic(
                    "log.emit",
                    vec![Expr::str("info"), Expr::var("__jp")],
                ))]),
            )),
            Aspect::new("audit").with_advice(Advice::new(
                AdviceKind::After,
                parse_pointcut("call(*.helper)").unwrap(),
                Block::of(vec![Stmt::Expr(Expr::intrinsic(
                    "log.emit",
                    vec![Expr::str("info"), Expr::str("post")],
                ))]),
            )),
        ]
    }

    #[test]
    fn unchanged_revision_is_a_full_hit() {
        let p = program(5);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        let (first, s0) = iw.weave_at(1, &p, None, &off()).unwrap();
        assert!(!s0.hit);
        assert_eq!(s0.rewoven, 5);
        let (again, s1) = iw.weave_at(1, &p, None, &off()).unwrap();
        assert!(s1.hit);
        assert_eq!(s1.rewoven, 0, "unchanged revision must not re-weave");
        assert_eq!(first, again);
        // The hit is a shared handle, not a copy.
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn empty_delta_reweaves_zero_classes() {
        let p = program(5);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap();
        let (spliced, stats) = iw.weave_at(2, &p, Some(&BTreeSet::new()), &off()).unwrap();
        assert!(stats.hit);
        assert_eq!(stats.rewoven, 0, "empty dirty set must splice everything");
        assert_eq!(*spliced, Weaver::new(aspects()).weave(&p).unwrap());
    }

    #[test]
    fn dirty_subset_reweaves_only_that_subset_byte_identically() {
        let mut p = program(6);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap();
        // Edit one class: add a method that the execution pointcut
        // doesn't select but that changes the declaration.
        p.classes[2].methods.push(MethodDecl::new("extra"));
        let dirty: BTreeSet<String> = ["C2".to_owned()].into();
        let (spliced, stats) = iw.weave_at(2, &p, Some(&dirty), &off()).unwrap();
        assert!(stats.hit);
        assert_eq!(stats.rewoven, 1);
        assert_eq!(stats.total, 6);
        assert_eq!(*spliced, Weaver::new(aspects()).weave(&p).unwrap());
    }

    #[test]
    fn splice_reuses_the_result_buffer_once_the_caller_drops_it() {
        let mut p = program(6);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap(); // handle dropped immediately
        p.classes[2].methods.push(MethodDecl::new("extra"));
        let dirty: BTreeSet<String> = ["C2".to_owned()].into();
        let (spliced, _) = iw.weave_at(2, &p, Some(&dirty), &off()).unwrap();
        // A reused class must be the same woven output, and the whole
        // result byte-identical to the oracle even on the in-place path.
        assert_eq!(*spliced, Weaver::new(aspects()).weave(&p).unwrap());
        // Holding the handle forces the copy fallback; still identical.
        p.classes[3].methods.push(MethodDecl::new("extra2"));
        let dirty: BTreeSet<String> = ["C3".to_owned()].into();
        let (again, stats) = iw.weave_at(3, &p, Some(&dirty), &off()).unwrap();
        assert_eq!(stats.rewoven, 1);
        assert_eq!(*again, Weaver::new(aspects()).weave(&p).unwrap());
        drop(spliced);
    }

    #[test]
    fn changed_declaration_outside_dirty_set_is_still_rewoven() {
        let mut p = program(4);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap();
        // Lie about the dirty set: change C1 but only name C3 dirty.
        // The input-equality guard must catch C1 anyway.
        p.classes[1].methods.push(MethodDecl::new("sneaky"));
        let dirty: BTreeSet<String> = ["C3".to_owned()].into();
        let (spliced, stats) = iw.weave_at(2, &p, Some(&dirty), &off()).unwrap();
        assert_eq!(stats.rewoven, 2);
        assert_eq!(*spliced, Weaver::new(aspects()).weave(&p).unwrap());
    }

    #[test]
    fn unknown_delta_forces_full_reweave() {
        let p = program(4);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap();
        let (_, stats) = iw.weave_at(2, &p, None, &off()).unwrap();
        assert_eq!(stats.rewoven, 4, "None delta means nothing can be trusted");
    }

    #[test]
    fn class_addition_and_removal_splice_correctly() {
        let mut p = program(5);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        iw.weave_at(1, &p, None, &off()).unwrap();
        // Remove C4, add C9.
        p.classes.pop();
        let mut fresh = ClassDecl::new("C9");
        fresh.methods.push(MethodDecl::new("run"));
        p.classes.push(fresh);
        let dirty: BTreeSet<String> = ["C4".to_owned(), "C9".to_owned()].into();
        let (spliced, stats) = iw.weave_at(2, &p, Some(&dirty), &off()).unwrap();
        assert_eq!(stats.rewoven, 1, "only the new class is woven work");
        assert_eq!(*spliced, Weaver::new(aspects()).weave(&p).unwrap());
    }

    #[test]
    fn full_hit_traces_byte_identically_to_a_cold_weave() {
        let p = program(5);
        let mut iw = IncrementalWeaver::new(Weaver::new(aspects()));
        let cold = Collector::enabled();
        iw.weave_at(1, &p, None, &cold).unwrap();
        let hit = Collector::enabled();
        let (_, stats) = iw.weave_at(1, &p, None, &hit).unwrap();
        assert_eq!((stats.hit, stats.rewoven), (true, 0));
        let (cold, hit) = (cold.take(), hit.take());
        assert!(cold.events.iter().any(|e| e.name == "weave.advice"));
        assert_eq!(cold.to_chrome_json(), hit.to_chrome_json());
    }
}
