//! Incremental OCL condition checking: footprint analysis + a dirty-set
//! driven verdict cache.
//!
//! Pre/postconditions are re-evaluated on every apply, yet most of them
//! query a couple of metamodel kinds (`Class.allInstances()->exists(…)`)
//! while a typical delta touches operations and attributes. The
//! [`Footprint`] of a condition is the set of element *kinds* whose
//! change could alter its verdict, derived by a conservative walk of
//! the parsed expression; the [`ConditionCache`] keeps each condition's
//! last verdict and evicts it only when a delta's kind set intersects
//! the footprint. Anything the walk cannot account for (`self`, `owner`
//! chains, unknown properties) degrades to [`Footprint::All`], which
//! intersects every delta — correctness never depends on the analysis
//! being sharp, only on it being a superset. Full evaluation
//! ([`comet_ocl::evaluate_bool`]) is the differential oracle; the
//! property suite asserts cached verdicts match it on random apply
//! sequences.

use comet_model::Model;
use comet_ocl::{evaluate_bool, Context, Expr, OclError};
use std::collections::{BTreeSet, HashMap, HashSet};

/// All metamodel kind names, as `kind_name()` spells them — the walk
/// interns dynamic names into these statics.
const KIND_NAMES: &[&str] = &[
    "Package",
    "Class",
    "Interface",
    "DataType",
    "Enumeration",
    "Attribute",
    "Operation",
    "Parameter",
    "Association",
    "Generalization",
    "Dependency",
    "Constraint",
];

/// Properties that read only the receiving element itself — covered by
/// whatever kind put the receiver into the footprint.
const LOCAL_PROPS: &[&str] = &[
    "name",
    "kind",
    "stereotypes",
    "concern",
    "visibility",
    "isAbstract",
    "isStatic",
    "isQuery",
    "body",
    "literals",
];

/// The set of element kinds a condition's verdict can depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// The walk could not bound the dependency — treat every change as
    /// relevant.
    All,
    /// The verdict depends only on elements of these kinds.
    Kinds(BTreeSet<&'static str>),
}

impl Footprint {
    /// Derives the footprint of an OCL condition source. Unparseable
    /// conditions get [`Footprint::All`] (evaluation will surface the
    /// error; the footprint just must not hide it behind a stale hit).
    pub fn of_condition(source: &str) -> Footprint {
        let Ok(expr) = comet_ocl::parse(source) else {
            return Footprint::All;
        };
        let mut kinds = BTreeSet::new();
        let mut bound = HashSet::new();
        if walk(&expr, &mut bound, &mut kinds) {
            Footprint::Kinds(kinds)
        } else {
            Footprint::All
        }
    }

    /// Whether a delta touching `dirty_kinds` could change the verdict.
    pub fn may_depend_on(&self, dirty_kinds: &BTreeSet<&'static str>) -> bool {
        match self {
            Footprint::All => true,
            Footprint::Kinds(kinds) => kinds.iter().any(|k| dirty_kinds.contains(k)),
        }
    }
}

fn intern_kind(name: &str) -> Option<&'static str> {
    KIND_NAMES.iter().find(|k| **k == name).copied()
}

/// Walks `expr` accumulating the kinds it reads. Returns `false` the
/// moment something unanalyzable appears (the caller degrades to
/// [`Footprint::All`]).
fn walk(expr: &Expr, bound: &mut HashSet<String>, kinds: &mut BTreeSet<&'static str>) -> bool {
    match expr {
        Expr::Int(_) | Expr::Real(_) | Expr::Str(_) | Expr::Bool(_) => true,
        // `self` can be any element and navigate anywhere.
        Expr::SelfRef => false,
        Expr::Var(name) => bound.contains(name) || intern_kind(name).is_some(),
        Expr::Unary { operand, .. } => walk(operand, bound, kinds),
        Expr::Binary { lhs, rhs, .. } => walk(lhs, bound, kinds) && walk(rhs, bound, kinds),
        Expr::If { cond, then_branch, else_branch } => {
            walk(cond, bound, kinds)
                && walk(then_branch, bound, kinds)
                && walk(else_branch, bound, kinds)
        }
        Expr::Let { var, value, body } => {
            if !walk(value, bound, kinds) {
                return false;
            }
            let fresh = bound.insert(var.clone());
            let ok = walk(body, bound, kinds);
            if fresh {
                bound.remove(var);
            }
            ok
        }
        Expr::Property { recv, prop } => {
            if !walk(recv, bound, kinds) {
                return false;
            }
            match prop.as_str() {
                p if LOCAL_PROPS.contains(&p) => true,
                "attributes" => {
                    kinds.insert("Attribute");
                    true
                }
                "operations" => {
                    kinds.insert("Operation");
                    true
                }
                "parameters" => {
                    kinds.insert("Parameter");
                    true
                }
                "constraints" => {
                    kinds.insert("Constraint");
                    true
                }
                // Parent navigation depends on the generalization graph
                // and reads the classifier elements it reaches.
                "parents" | "ancestors" => {
                    kinds.extend([
                        "Generalization",
                        "Class",
                        "Interface",
                        "DataType",
                        "Enumeration",
                    ]);
                    true
                }
                // owner / qualifiedName / ownedElements / participants /
                // type / returnType / constrained and anything unknown
                // can reach arbitrary elements.
                _ => false,
            }
        }
        Expr::MethodCall { recv, method, args } => {
            // `K.allInstances()` with an unbound type-name receiver: the
            // entry point that makes the whole analysis possible.
            if method == "allInstances" {
                if let Expr::Var(type_name) = recv.as_ref() {
                    if !bound.contains(type_name) {
                        return match intern_kind(type_name) {
                            Some(k) => {
                                kinds.insert(k);
                                true
                            }
                            None => false,
                        };
                    }
                }
                // Dynamic receiver (`s.allInstances()`): not boundable.
                return false;
            }
            if !walk(recv, bound, kinds) || !args.iter().all(|a| walk(a, bound, kinds)) {
                return false;
            }
            match method.as_str() {
                "oclIsUndefined" | "oclIsKindOf" | "oclIsTypeOf" | "hasStereotype"
                | "taggedValue" | "size" | "concat" | "toUpper" | "toLower" | "contains"
                | "startsWith" | "substring" | "abs" | "max" | "min" => true,
                "operation" => {
                    kinds.insert("Operation");
                    true
                }
                "attribute" => {
                    kinds.insert("Attribute");
                    true
                }
                _ => false,
            }
        }
        Expr::CollectionCall { recv, args, .. } => {
            walk(recv, bound, kinds) && args.iter().all(|a| walk(a, bound, kinds))
        }
        Expr::Iterate { recv, var, body, .. } => {
            if !walk(recv, bound, kinds) {
                return false;
            }
            let fresh = bound.insert(var.clone());
            let ok = walk(body, bound, kinds);
            if fresh {
                bound.remove(var);
            }
            ok
        }
    }
}

/// Verdict cache for specialized OCL conditions, evicted by dirty-kind
/// intersection. One instance lives per model lineage (the lifecycle
/// owns one). Every change to the model must be reported: a localized
/// one through [`ConditionCache::note_delta`] (an apply's dirty kinds,
/// or the same kinds when that apply is reverted in place), a
/// wholesale replacement (a decoded snapshot) through
/// [`ConditionCache::invalidate_all`].
#[derive(Debug, Default)]
pub struct ConditionCache {
    entries: HashMap<String, (Footprint, bool)>,
    hits: u64,
    evaluations: u64,
}

impl ConditionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the condition's verdict, evaluating only when no valid
    /// cached verdict exists. The differential-oracle property: this is
    /// always equal to a fresh [`evaluate_bool`] against `model`,
    /// provided every model change since the last call was reported via
    /// [`ConditionCache::note_delta`].
    ///
    /// # Errors
    /// Propagates parse/evaluation errors (never cached).
    pub fn check(&mut self, condition: &str, model: &Model) -> Result<bool, OclError> {
        if let Some((_, verdict)) = self.entries.get(condition) {
            self.hits += 1;
            return Ok(*verdict);
        }
        self.evaluations += 1;
        let ctx = Context::for_model(model);
        let verdict = evaluate_bool(condition, &ctx)?;
        self.entries.insert(condition.to_owned(), (Footprint::of_condition(condition), verdict));
        Ok(verdict)
    }

    /// Reports a committed (or in-flight, pre-postcondition) delta:
    /// evicts every entry whose footprint intersects the touched kinds.
    /// `None` means the delta could not be localized — drop everything.
    pub fn note_delta(&mut self, dirty_kinds: Option<&BTreeSet<&'static str>>) {
        match dirty_kinds {
            None => self.entries.clear(),
            Some(kinds) => self.entries.retain(|_, (fp, _)| !fp.may_depend_on(kinds)),
        }
    }

    /// Drops every entry (model replaced or rolled back under us).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// Checks answered from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checks that ran a full evaluation since construction.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Currently cached conditions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::banking_pim;

    fn kinds(fp: &Footprint) -> Vec<&'static str> {
        match fp {
            Footprint::All => panic!("expected bounded footprint"),
            Footprint::Kinds(k) => k.iter().copied().collect(),
        }
    }

    #[test]
    fn all_instances_footprint_is_the_queried_kind() {
        let fp = Footprint::of_condition("Class.allInstances()->exists(c | c.name = 'Bank')");
        assert_eq!(kinds(&fp), vec!["Class"]);
    }

    #[test]
    fn navigation_adds_reached_kinds() {
        let fp =
            Footprint::of_condition("Class.allInstances()->forAll(c | c.operations->size() >= 0)");
        assert_eq!(kinds(&fp), vec!["Class", "Operation"]);
        let fp =
            Footprint::of_condition("Class.allInstances()->forAll(c | c.ancestors->isEmpty())");
        assert!(kinds(&fp).contains(&"Generalization"));
    }

    #[test]
    fn unanalyzable_constructs_degrade_to_all() {
        assert_eq!(Footprint::of_condition("self.name = 'x'"), Footprint::All);
        assert_eq!(
            Footprint::of_condition("Class.allInstances()->forAll(c | c.owner.name = 'm')"),
            Footprint::All
        );
        assert_eq!(Footprint::of_condition("not valid ocl (("), Footprint::All);
    }

    #[test]
    fn stereotype_query_stays_bounded() {
        let fp = Footprint::of_condition(
            "Class.allInstances()->select(c | c.hasStereotype('Remote'))->notEmpty()",
        );
        assert_eq!(kinds(&fp), vec!["Class"]);
    }

    #[test]
    fn cache_hits_until_footprint_intersects() {
        let m = banking_pim();
        let mut cache = ConditionCache::new();
        let cond = "Class.allInstances()->exists(c | c.name = 'Bank')";
        assert!(cache.check(cond, &m).unwrap());
        assert!(cache.check(cond, &m).unwrap());
        assert_eq!(cache.evaluations(), 1);
        assert_eq!(cache.hits(), 1);
        // An operation-only delta leaves the Class-footprint entry alone.
        cache.note_delta(Some(&["Operation", "Parameter"].into()));
        assert_eq!(cache.len(), 1);
        // A class delta evicts it.
        cache.note_delta(Some(&["Class"].into()));
        assert!(cache.is_empty());
        assert!(cache.check(cond, &m).unwrap());
        assert_eq!(cache.evaluations(), 2);
    }

    #[test]
    fn unknown_delta_clears_everything() {
        let m = banking_pim();
        let mut cache = ConditionCache::new();
        cache.check("Class.allInstances()->notEmpty()", &m).unwrap();
        cache.note_delta(None);
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_not_cached() {
        let m = banking_pim();
        let mut cache = ConditionCache::new();
        assert!(cache.check("this is not ocl ((", &m).is_err());
        assert!(cache.is_empty());
        assert!(cache.check("this is not ocl ((", &m).is_err());
        assert_eq!(cache.evaluations(), 2);
    }

    #[test]
    fn false_verdicts_are_cached_too() {
        let m = banking_pim();
        let mut cache = ConditionCache::new();
        let cond = "Class.allInstances()->exists(c | c.name = 'Ghost')";
        assert!(!cache.check(cond, &m).unwrap());
        assert!(!cache.check(cond, &m).unwrap());
        assert_eq!(cache.evaluations(), 1);
    }
}
