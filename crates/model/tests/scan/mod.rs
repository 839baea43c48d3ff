//! The full-scan oracle for the indexed queries of [`Model`]: every
//! answer recomputed by walking [`Model::iter`], never through the
//! model index, and compared with the indexed one — same elements,
//! same order.

use comet_model::{Element, ElementId, ElementKind, Model};
use proptest::prelude::*;

const KINDS: [&str; 12] = [
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

/// The ids of the elements `keep` selects, in id order.
fn scan(m: &Model, keep: impl Fn(&Element) -> bool) -> Vec<ElementId> {
    m.iter().filter(|e| keep(e)).map(Element::id).collect()
}

/// The lowest id `keep` selects among the elements named `name`.
fn first_named(m: &Model, name: &str, keep: impl Fn(&Element) -> bool) -> Option<ElementId> {
    m.iter().find(|e| e.name() == name && keep(e)).map(Element::id)
}

/// Whether `e` is owned by `owner` and of kind `kind`.
fn owned(e: &Element, owner: ElementId, kind: &str) -> bool {
    e.owner() == Some(owner) && e.kind().kind_name() == kind
}

/// The parents (`up`) or children of `id` over generalization edges,
/// in edge-id order.
fn generalized(m: &Model, id: ElementId, up: bool) -> Vec<ElementId> {
    let far = |e: &Element| match e.kind() {
        ElementKind::Generalization(g) if up && g.child == id => Some(g.parent),
        ElementKind::Generalization(g) if !up && g.parent == id => Some(g.child),
        _ => None,
    };
    m.iter().filter_map(far).collect()
}

/// The transitive parents of `id`, deduplicated, in worklist order.
fn ancestors(m: &Model, id: ElementId) -> Vec<ElementId> {
    let (mut out, mut frontier) = (Vec::new(), generalized(m, id, true));
    while let Some(p) = frontier.pop() {
        if !out.contains(&p) {
            out.push(p);
            frontier.extend(generalized(m, p, true));
        }
    }
    out
}

fn by_qualified_name(m: &Model, qname: &str) -> Option<ElementId> {
    let mut segments = qname.split("::");
    if segments.next()? != m.name() {
        return None;
    }
    segments.try_fold(m.root(), |cur, seg| first_named(m, seg, |e| e.owner() == Some(cur)))
}

/// Asserts every indexed query of `m` answers exactly like its scan.
pub fn assert_index_matches_scans(m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.classifiers(), scan(m, Element::is_classifier));
    for kind in KINDS {
        prop_assert_eq!(m.elements_of_kind(kind), scan(m, |e| e.kind().kind_name() == kind));
    }
    prop_assert_eq!(m.classes(), m.elements_of_kind("Class"));
    prop_assert_eq!(m.interfaces(), m.elements_of_kind("Interface"));
    prop_assert_eq!(m.packages(), m.elements_of_kind("Package"));
    prop_assert_eq!(m.associations(), m.elements_of_kind("Association"));
    prop_assert_eq!(m.enumerations(), m.elements_of_kind("Enumeration"));
    let every = scan(m, |_| true);
    for &id in &every {
        prop_assert_eq!(m.children(id), scan(m, |e| e.owner() == Some(id)));
        prop_assert_eq!(m.attributes_of(id), scan(m, |e| owned(e, id, "Attribute")));
        prop_assert_eq!(m.operations_of(id), scan(m, |e| owned(e, id, "Operation")));
        prop_assert_eq!(m.parameters_of(id), scan(m, |e| owned(e, id, "Parameter")));
        let constrains =
            |e: &Element| matches!(e.kind(), ElementKind::Constraint(c) if c.constrained == id);
        prop_assert_eq!(m.constraints_on(id), scan(m, constrains));
        let attached = |e: &Element| match e.kind() {
            ElementKind::Association(a) => a.ends.iter().any(|end| end.class == id),
            _ => false,
        };
        prop_assert_eq!(m.associations_of(id), scan(m, attached));
        prop_assert_eq!(m.parents_of(id), generalized(m, id, true));
        prop_assert_eq!(m.specializations_of(id), generalized(m, id, false));
        prop_assert_eq!(m.ancestors_of(id), ancestors(m, id));
        let name = m.element(id).expect("live id").name();
        prop_assert_eq!(m.find_classifier(name), first_named(m, name, Element::is_classifier));
        let is_class = |e: &Element| e.kind().kind_name() == "Class";
        prop_assert_eq!(m.find_class(name), first_named(m, name, is_class));
        if let Ok(qname) = m.qualified_name(id) {
            prop_assert_eq!(m.find_by_qualified_name(&qname), by_qualified_name(m, &qname));
        }
        for feature in m.iter().filter(|e| e.owner() == Some(id)).map(Element::name) {
            let named = |kind: &str| first_named(m, feature, |e| owned(e, id, kind));
            prop_assert_eq!(m.find_attribute(id, feature), named("Attribute"));
            prop_assert_eq!(m.find_operation(id, feature), named("Operation"));
        }
    }
    for (&a, &b) in every.iter().zip(every.iter().rev()) {
        prop_assert_eq!(m.is_kind_of(a, b), a == b || ancestors(m, a).contains(&b));
    }
    let mut stereotypes: Vec<&str> =
        m.iter().flat_map(|e| e.core().stereotypes.iter().map(String::as_str)).collect();
    stereotypes.sort_unstable();
    stereotypes.dedup();
    for s in stereotypes.into_iter().chain(["never-applied"]) {
        prop_assert_eq!(m.stereotyped(s), scan(m, |e| e.core().has_stereotype(s)));
    }
    Ok(())
}
