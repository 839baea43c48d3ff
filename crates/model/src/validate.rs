//! Well-formedness validation: the static semantics every model must
//! satisfy before a transformation may run (and after it has run — the
//! transformation engine re-validates as part of its postconditions).

use crate::element::{Element, ElementKind};
use crate::id::ElementId;
use crate::index::{ends, ModelIndex};
use crate::kinds::TypeRef;
use crate::model::Model;
use std::collections::BTreeSet;
use std::fmt;

/// Category of a well-formedness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An owner reference does not resolve.
    DanglingOwner,
    /// Ownership contains a cycle (should be impossible via the API).
    OwnershipCycle,
    /// A type reference does not resolve to a classifier.
    DanglingType,
    /// A relationship endpoint does not resolve.
    DanglingEndpoint,
    /// Generalizations form a cycle.
    InheritanceCycle,
    /// Two same-kind siblings share a (non-empty) name.
    DuplicateName,
    /// A multiplicity has lower > upper.
    InvalidMultiplicity,
    /// Named element has an empty name.
    EmptyName,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::DanglingOwner => "dangling owner",
            ViolationKind::OwnershipCycle => "ownership cycle",
            ViolationKind::DanglingType => "dangling type reference",
            ViolationKind::DanglingEndpoint => "dangling relationship endpoint",
            ViolationKind::InheritanceCycle => "inheritance cycle",
            ViolationKind::DuplicateName => "duplicate sibling name",
            ViolationKind::InvalidMultiplicity => "invalid multiplicity",
            ViolationKind::EmptyName => "empty name",
        };
        f.write_str(s)
    }
}

/// One well-formedness violation found by [`Model::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending element.
    pub element: ElementId,
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ({})", self.element, self.kind, self.detail)
    }
}

#[cfg(test)]
thread_local! {
    /// Full passes on this thread (the unit tests pin that a small write
    /// is checked over its delta).
    static FULL_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Model {
    /// Checks all well-formedness rules, returning every violation.
    ///
    /// Once a validation has passed on this model instance, the next
    /// one first checks only the neighbourhood of the ids touched since
    /// and answers `Ok` from that alone when it finds nothing. Anything
    /// it cannot clear runs the full pass, which is also what a model no
    /// validation has passed on yet (a fresh clone, an unvalidated PIM)
    /// runs. The violation list is therefore always the full pass's.
    ///
    /// Stereotypes and tagged values are never rechecked: no rule reads
    /// either, so [`Model::apply_stereotype`] and [`Model::set_tag`] (and
    /// the undo of their journal ops) add no id to the touched ids. A
    /// write through [`Model::element_mut`] may change anything, so it
    /// always does.
    ///
    /// # Errors
    /// Returns the (non-empty) list of violations when the model is not
    /// well-formed.
    pub fn validate(&self) -> Result<(), Vec<Violation>> {
        let mut unchecked = self.cache().unchecked.lock().expect("validation lock poisoned");
        if unchecked.as_ref().is_some_and(|touched| self.delta_is_clean(touched)) {
            *unchecked = Some(BTreeSet::new());
            return Ok(());
        }
        let result = self.validate_full();
        // A failed pass leaves the last passing state as the baseline
        // the touched ids are counted from.
        if result.is_ok() {
            *unchecked = Some(BTreeSet::new());
        }
        result
    }

    /// The full pass: every rule over every element.
    fn validate_full(&self) -> Result<(), Vec<Violation>> {
        #[cfg(test)]
        FULL_PASSES.with(|n| n.set(n.get() + 1));
        let mut out = Vec::new();
        for e in self.iter() {
            self.check_ownership(e, &mut out);
        }
        for e in self.iter() {
            self.check_references(e, &mut out);
        }
        self.validate_inheritance(&mut out);
        self.validate_names(&mut out);
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    /// Whether the model is certainly well-formed, given that it was
    /// when `touched` was last empty and that every element changed,
    /// created or removed since is in `touched`. A rule can only break
    /// through a touched id:
    ///
    /// * a touched element's own rules (owner, owner chain, references,
    ///   multiplicities, empty name) are checked again;
    /// * an untouched element can only break through what it refers
    ///   to: the referrers of every touched id (the index's `referrers`
    ///   table) are checked again, and a removed id that still owns
    ///   anything fails;
    /// * a new ownership cycle passes through an element whose owner
    ///   changed, which the owner-chain walk from it finds;
    /// * a new duplicate name involves a touched name, so the children
    ///   of every touched element's owner are checked for duplicates;
    /// * a classifier on a new inheritance cycle became a classifier or
    ///   lies on a cycle through a touched generalization, whose child
    ///   is then on the cycle too.
    ///
    /// `false` means "not certain", never "ill-formed": the caller runs
    /// the full pass. A delta larger than half the model goes straight
    /// to it.
    fn delta_is_clean(&self, touched: &BTreeSet<ElementId>) -> bool {
        if touched.is_empty() {
            return true;
        }
        if touched.len() > self.len() / 2 {
            return false;
        }
        let ix = self.index();
        let mut recheck: BTreeSet<ElementId> = BTreeSet::new();
        let mut owners: BTreeSet<ElementId> = BTreeSet::new();
        for &id in touched {
            match self.element(id) {
                Ok(e) => {
                    recheck.insert(id);
                    owners.extend(e.owner());
                    let cycle_through = match e.kind() {
                        ElementKind::Generalization(g) => Some(g.child),
                        _ if e.is_classifier() => Some(id),
                        _ => None,
                    };
                    if cycle_through.is_some_and(|c| on_inheritance_cycle(&ix, c)) {
                        return false;
                    }
                }
                Err(_) if ix.children.contains_key(&id) => return false,
                Err(_) => {}
            }
            recheck.extend(ix.referrers.get(&id).into_iter().flatten());
        }
        let mut found = Vec::new();
        for id in recheck {
            let Ok(e) = self.element(id) else { continue };
            if id == self.root() && e.owner().is_some() {
                return false;
            }
            self.check_ownership(e, &mut found);
            self.check_references(e, &mut found);
            self.check_empty_name(e, &mut found);
            if !found.is_empty() {
                return false;
            }
        }
        owners.into_iter().all(|o| {
            let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
            ix.children.get(&o).into_iter().flatten().all(|&c| {
                let e = self.element(c).expect("indexed child resolves");
                e.name().is_empty() || seen.insert((e.kind().kind_name(), e.name()))
            })
        })
    }

    /// The ownership rules of one element: a non-root element has an
    /// owner, the owner exists, and the owner chain has no cycle.
    fn check_ownership(&self, e: &Element, out: &mut Vec<Violation>) {
        if e.id() == self.root() {
            return;
        }
        match e.owner() {
            None => out.push(Violation {
                element: e.id(),
                kind: ViolationKind::DanglingOwner,
                detail: "non-root element has no owner".into(),
            }),
            Some(o) => {
                if !self.contains(o) {
                    out.push(Violation {
                        element: e.id(),
                        kind: ViolationKind::DanglingOwner,
                        detail: format!("owner {o} missing"),
                    });
                    return;
                }
                // Walk up; detect cycles with a visited set.
                let mut seen = BTreeSet::new();
                let mut cur = Some(o);
                seen.insert(e.id());
                while let Some(c) = cur {
                    if !seen.insert(c) {
                        out.push(Violation {
                            element: e.id(),
                            kind: ViolationKind::OwnershipCycle,
                            detail: format!("cycle through {c}"),
                        });
                        break;
                    }
                    cur = self.element(c).ok().and_then(|el| el.owner());
                }
            }
        }
    }

    fn check_ty(&self, owner: ElementId, ty: TypeRef, out: &mut Vec<Violation>) {
        if let TypeRef::Element(id) = ty {
            let ok = self.element(id).map(|e| e.is_classifier()).unwrap_or(false);
            if !ok {
                out.push(Violation {
                    element: owner,
                    kind: ViolationKind::DanglingType,
                    detail: format!("type reference {id} unresolved or not a classifier"),
                });
            }
        }
    }

    fn check_endpoint(&self, owner: ElementId, id: ElementId, out: &mut Vec<Violation>) {
        if !self.contains(id) {
            out.push(Violation {
                element: owner,
                kind: ViolationKind::DanglingEndpoint,
                detail: format!("endpoint {id} missing"),
            });
        }
    }

    /// The reference rules of one element: type references resolve to
    /// classifiers, endpoints resolve, multiplicities are valid.
    fn check_references(&self, e: &Element, out: &mut Vec<Violation>) {
        match e.kind() {
            ElementKind::Attribute(a) => {
                self.check_ty(e.id(), a.ty, out);
                if !a.multiplicity.is_valid() {
                    out.push(Violation {
                        element: e.id(),
                        kind: ViolationKind::InvalidMultiplicity,
                        detail: a.multiplicity.to_string(),
                    });
                }
            }
            ElementKind::Operation(o) => self.check_ty(e.id(), o.return_type, out),
            ElementKind::Parameter(p) => self.check_ty(e.id(), p.ty, out),
            ElementKind::Association(a) => {
                for end in &a.ends {
                    self.check_endpoint(e.id(), end.class, out);
                    if !end.multiplicity.is_valid() {
                        out.push(Violation {
                            element: e.id(),
                            kind: ViolationKind::InvalidMultiplicity,
                            detail: end.multiplicity.to_string(),
                        });
                    }
                }
            }
            ElementKind::Generalization(g) => {
                self.check_endpoint(e.id(), g.child, out);
                self.check_endpoint(e.id(), g.parent, out);
            }
            ElementKind::Dependency(d) => {
                self.check_endpoint(e.id(), d.client, out);
                self.check_endpoint(e.id(), d.supplier, out);
            }
            ElementKind::Constraint(c) => self.check_endpoint(e.id(), c.constrained, out),
            _ => {}
        }
    }

    fn validate_inheritance(&self, out: &mut Vec<Violation>) {
        for c in self.classifiers() {
            if self.ancestors_of(c).contains(&c) {
                out.push(Violation {
                    element: c,
                    kind: ViolationKind::InheritanceCycle,
                    detail: "classifier inherits from itself".into(),
                });
            }
        }
    }

    /// The name rule of one element: named kinds need a non-blank name.
    fn check_empty_name(&self, e: &Element, out: &mut Vec<Violation>) {
        let named = !matches!(
            e.kind(),
            ElementKind::Association(_)
                | ElementKind::Generalization(_)
                | ElementKind::Dependency(_)
        );
        if named && e.name().trim().is_empty() {
            out.push(Violation {
                element: e.id(),
                kind: ViolationKind::EmptyName,
                detail: format!("{} requires a name", e.kind().kind_name()),
            });
        }
    }

    fn validate_names(&self, out: &mut Vec<Violation>) {
        for e in self.iter() {
            self.check_empty_name(e, out);
        }
        // Duplicate (owner, kind, name) triples.
        let mut seen: BTreeSet<(ElementId, &str, &str)> = BTreeSet::new();
        for e in self.iter() {
            if e.name().is_empty() {
                continue;
            }
            if let Some(o) = e.owner() {
                if !seen.insert((o, e.kind().kind_name(), e.name())) {
                    out.push(Violation {
                        element: e.id(),
                        kind: ViolationKind::DuplicateName,
                        detail: format!("`{}` duplicated under {o}", e.name()),
                    });
                }
            }
        }
    }
}

/// Whether `c` is reachable from itself over generalization edges,
/// whatever the kinds of the elements on the way.
fn on_inheritance_cycle(ix: &ModelIndex, c: ElementId) -> bool {
    let mut seen = BTreeSet::new();
    let mut frontier = ends(ix.parents.get(&c));
    while let Some(p) = frontier.pop() {
        if p == c {
            return true;
        }
        if seen.insert(p) {
            frontier.extend(ends(ix.parents.get(&p)));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{AttributeData, Multiplicity, Primitive};

    fn full_passes() -> usize {
        FULL_PASSES.with(std::cell::Cell::get)
    }

    #[test]
    fn small_writes_after_a_pass_are_checked_over_their_delta() {
        let mut m = crate::sample::synthetic(20, 2, 2);
        let before = full_passes();
        assert!(m.validate().is_ok());
        assert_eq!(full_passes(), before + 1, "no pass yet: the first validation is full");

        let c0 = m.find_class("C0").unwrap();
        let c5 = m.find_class("C5").unwrap();
        let proxy = m.add_class(m.root(), "Proxy").unwrap();
        m.add_attribute(proxy, "target", TypeRef::Element(c0)).unwrap();
        m.apply_stereotype(c0, "Remote").unwrap();
        m.remove_element(m.attributes_of(c5)[0]).unwrap();
        assert!(m.validate().is_ok());
        assert_eq!(full_passes(), before + 1, "a small clean write is cleared over its delta");

        // A duplicate name falls back to the full pass and reports its list.
        m.element_mut(proxy).unwrap().core_mut().name = "C3".into();
        let violations = m.validate().unwrap_err();
        assert_eq!(Err(violations), m.clone().validate());
        assert!(violations_kinds(&m).contains(&ViolationKind::DuplicateName));
        let after = full_passes();
        // Renaming back: the baseline is still the last passing state.
        m.element_mut(proxy).unwrap().core_mut().name = "Proxy".into();
        assert!(m.validate().is_ok());
        assert_eq!(full_passes(), after, "the fix is cleared over the delta since the last pass");

        // Removing a class leaves the referrers of its id to check: the
        // generalization to it cascades away, so the model stays valid.
        m.remove_element(c5).unwrap();
        assert!(m.validate().is_ok());
        assert_eq!(full_passes(), after);
        // Turning a class into a package dangles the type reference to it.
        *m.element_mut(c0).unwrap().kind_mut() = ElementKind::Package(Default::default());
        assert_eq!(m.validate(), m.clone().validate());
        assert!(violations_kinds(&m).contains(&ViolationKind::DanglingType));
    }

    fn violations_kinds(m: &Model) -> Vec<ViolationKind> {
        m.validate().err().unwrap_or_default().iter().map(|v| v.kind).collect()
    }

    #[test]
    fn fresh_model_validates() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        m.add_attribute(c, "x", Primitive::Int.into()).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn invalid_multiplicity_flagged() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let a = m.add_attribute(c, "x", Primitive::Int.into()).unwrap();
        if let Some(attr) = m.element_mut(a).unwrap().as_attribute_mut() {
            attr.multiplicity = Multiplicity { lower: 5, upper: Some(1) };
        }
        let violations = m.validate().unwrap_err();
        assert!(violations.iter().any(|v| v.kind == ViolationKind::InvalidMultiplicity));
    }

    #[test]
    fn dangling_type_flagged_after_manual_corruption() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        let a = m.add_attribute(c, "x", Primitive::Int.into()).unwrap();
        // Corrupt through the payload directly (bypassing the checked API).
        *m.element_mut(a).unwrap().as_attribute_mut().unwrap() = AttributeData {
            ty: TypeRef::Element(ElementId::from_raw(9999)),
            ..AttributeData::default()
        };
        let violations = m.validate().unwrap_err();
        assert!(violations.iter().any(|v| v.kind == ViolationKind::DanglingType));
        assert!(violations[0].to_string().contains("dangling"));
    }

    #[test]
    fn empty_name_flagged_for_named_kinds() {
        let mut m = Model::new("m");
        let c = m.add_class(m.root(), "A").unwrap();
        m.element_mut(c).unwrap().core_mut().name = String::new();
        let violations = m.validate().unwrap_err();
        assert!(violations.iter().any(|v| v.kind == ViolationKind::EmptyName));
    }

    #[test]
    fn duplicate_names_flagged_after_rename() {
        let mut m = Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let _b = m.add_class(m.root(), "B").unwrap();
        m.element_mut(a).unwrap().core_mut().name = "B".into();
        let violations = m.validate().unwrap_err();
        assert!(violations.iter().any(|v| v.kind == ViolationKind::DuplicateName));
    }
}
