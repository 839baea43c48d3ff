//! Writes cost O(delta): after a write, `export_model` re-renders only
//! the touched elements' fragments and `Model::validate` checks only the
//! touched ids' neighbourhood. A clone carries neither cache nor
//! validation baseline, so its export and validation are the cold,
//! whole-model oracles. Random op scripts — every `add_*`, rename,
//! stereotype, owner move, endpoint retarget, cascading remove,
//! `set_name`, nested begin/commit/rollback and revert, plus edits that
//! make the model ill-formed — must leave both answers equal to the
//! oracle's after every op.

use comet_model::sample::synthetic;
use comet_model::{
    AssociationEnd, ElementId, ElementKind, Model, Multiplicity, Primitive, TypeRef, UndoLog,
};
use comet_xmi::export_model;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    AddPackage(u8),
    AddClassifier(u8, u8),
    AddAttribute(u8, u8),
    AddOperation(u8),
    AddParameter(u8),
    AddAssociation(u8, u8),
    AddGeneralization(u8, u8),
    AddDependency(u8, u8),
    AddConstraint(u8),
    Rename(u8, u8),
    Stereotype(u8, u8),
    Tag(u8),
    MoveOwner(u8, u8),
    RetargetAssociationEnd(u8, u8),
    RetargetGeneralization(u8, u8),
    Reclassify(u8),
    Remove(u8),
    SetName(u8),
    /// An edit the checked API would refuse, made through
    /// `element_mut`: blank name, bad multiplicity, a type reference to
    /// any id, an owner that is missing or forms a cycle, an owned root.
    Corrupt(u8, u8, u8),
    Begin,
    Commit,
    Rollback,
    Revert,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let b = any::<u8>;
    prop_oneof![
        b().prop_map(Op::AddPackage),
        (b(), b()).prop_map(|(p, k)| Op::AddClassifier(p, k)),
        (b(), b()).prop_map(|(c, t)| Op::AddAttribute(c, t)),
        b().prop_map(Op::AddOperation),
        b().prop_map(Op::AddParameter),
        (b(), b()).prop_map(|(x, y)| Op::AddAssociation(x, y)),
        (b(), b()).prop_map(|(x, y)| Op::AddGeneralization(x, y)),
        (b(), b()).prop_map(|(x, y)| Op::AddDependency(x, y)),
        b().prop_map(Op::AddConstraint),
        (b(), b()).prop_map(|(x, n)| Op::Rename(x, n)),
        (b(), b()).prop_map(|(x, s)| Op::Stereotype(x, s)),
        b().prop_map(Op::Tag),
        (b(), b()).prop_map(|(x, o)| Op::MoveOwner(x, o)),
        (b(), b()).prop_map(|(x, c)| Op::RetargetAssociationEnd(x, c)),
        (b(), b()).prop_map(|(x, c)| Op::RetargetGeneralization(x, c)),
        b().prop_map(Op::Reclassify),
        b().prop_map(Op::Remove),
        b().prop_map(Op::SetName),
        (b(), b(), b()).prop_map(|(x, how, y)| Op::Corrupt(x, how, y)),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        Just(Op::Revert),
    ]
}

fn pick(ids: &[ElementId], i: u8) -> Option<ElementId> {
    (!ids.is_empty()).then(|| ids[i as usize % ids.len()])
}

/// Every id of the given kinds, by arena scan.
fn ids(m: &Model, keep: impl Fn(&ElementKind) -> bool) -> Vec<ElementId> {
    m.iter().filter(|e| keep(e.kind())).map(|e| e.id()).collect()
}

/// Runs one op. `logs` holds the committed, not yet reverted undo logs;
/// a mutation outside any journal invalidates them.
fn run(m: &mut Model, op: &Op, logs: &mut Vec<UndoLog>, n: &mut usize) {
    *n += 1;
    let all = ids(m, |_| true);
    let classifiers = ids(m, ElementKind::is_classifier);
    let packages = ids(m, |k| matches!(k, ElementKind::Package(_)));
    let root = m.root();
    let non_root: Vec<ElementId> = all.iter().copied().filter(|&id| id != root).collect();
    let mutates = !matches!(op, Op::Begin | Op::Commit | Op::Rollback | Op::Revert);
    if mutates && !m.journal_active() {
        logs.clear();
    }
    match *op {
        Op::AddPackage(p) => {
            if let Some(p) = pick(&packages, p) {
                let _ = m.add_package(p, &format!("p{n}"));
            }
        }
        Op::AddClassifier(p, k) => {
            if let Some(p) = pick(&packages, p) {
                let name = format!("K{}", *n % 7);
                let _ = match k % 4 {
                    0 => m.add_class(p, &name),
                    1 => m.add_interface(p, &name),
                    2 => m.add_data_type(p, &name),
                    _ => m.add_enumeration(p, &name, vec!["L".into()]),
                };
            }
        }
        Op::AddAttribute(c, t) => {
            if let Some(c) = pick(&classifiers, c) {
                let ty = pick(&classifiers, t).map_or(Primitive::Int.into(), TypeRef::Element);
                let _ = m.add_attribute(c, &format!("a{n}"), ty);
            }
        }
        Op::AddOperation(c) => {
            if let Some(c) = pick(&classifiers, c) {
                let _ = m.add_operation(c, &format!("o{}", *n % 5));
            }
        }
        Op::AddParameter(o) => {
            let ops = ids(m, |k| matches!(k, ElementKind::Operation(_)));
            if let Some(o) = pick(&ops, o) {
                let _ = m.add_parameter(o, &format!("x{n}"), Primitive::Str.into());
            }
        }
        Op::AddAssociation(x, y) => {
            if let (Some(x), Some(y)) = (pick(&classifiers, x), pick(&classifiers, y)) {
                let ends = (AssociationEnd::new("x", x), AssociationEnd::new("y", y));
                let _ = m.add_association(root, "", ends.0, ends.1);
            }
        }
        Op::AddGeneralization(x, y) => {
            if let (Some(x), Some(y)) = (pick(&classifiers, x), pick(&classifiers, y)) {
                let _ = m.add_generalization(x, y);
            }
        }
        Op::AddDependency(x, y) => {
            if let (Some(x), Some(y)) = (pick(&all, x), pick(&all, y)) {
                let _ = m.add_dependency(x, y);
            }
        }
        Op::AddConstraint(x) => {
            if let Some(x) = pick(&all, x) {
                let _ = m.add_constraint(x, &format!("inv{n}"), "true");
            }
        }
        Op::Rename(x, name) => {
            // Few names, so renames collide with siblings often.
            if let Some(x) = pick(&all, x) {
                m.element_mut(x).unwrap().core_mut().name = format!("K{}", name % 7);
            }
        }
        Op::Stereotype(x, s) => {
            if let Some(x) = pick(&all, x) {
                let core = m.element_mut(x).unwrap().core_mut();
                let s = format!("s{}", s % 3);
                if !core.remove_stereotype(&s) {
                    core.apply_stereotype(s);
                }
            }
        }
        Op::Tag(x) => {
            if let Some(x) = pick(&all, x) {
                m.set_tag(x, "k", n.to_string().as_str()).unwrap();
            }
        }
        Op::MoveOwner(x, o) => {
            // Onto any package, the element's own subtree included: a
            // move can close an ownership cycle.
            if let (Some(x), Some(o)) = (pick(&non_root, x), pick(&packages, o)) {
                m.element_mut(x).unwrap().core_mut().owner = Some(o);
            }
        }
        Op::RetargetAssociationEnd(x, c) => {
            let assocs = ids(m, |k| matches!(k, ElementKind::Association(_)));
            if let (Some(x), Some(end)) = (pick(&assocs, x), pick(&classifiers, c)) {
                if let ElementKind::Association(a) = m.element_mut(x).unwrap().kind_mut() {
                    a.ends[c as usize % 2].class = end;
                }
            }
        }
        Op::RetargetGeneralization(x, c) => {
            // Unchecked: the new edge may close an inheritance cycle.
            let gens = ids(m, |k| matches!(k, ElementKind::Generalization(_)));
            if let (Some(x), Some(end)) = (pick(&gens, x), pick(&classifiers, c)) {
                if let ElementKind::Generalization(g) = m.element_mut(x).unwrap().kind_mut() {
                    if c % 2 == 0 {
                        g.parent = end;
                    } else {
                        g.child = end;
                    }
                }
            }
        }
        Op::Reclassify(x) => {
            // Class ↔ package: the id leaves or joins the classifier set,
            // which can dangle type references or expose a cycle.
            if let Some(x) = pick(&non_root, x) {
                let kind = m.element_mut(x).unwrap().kind_mut();
                match kind {
                    ElementKind::Class(_) => *kind = ElementKind::Package(Default::default()),
                    ElementKind::Package(_) => *kind = ElementKind::Class(Default::default()),
                    _ => {}
                }
            }
        }
        Op::Remove(x) => {
            if let Some(x) = pick(&all, x) {
                let _ = m.remove_element(x);
            }
        }
        Op::SetName(s) => m.set_name(format!("model{}", s % 3)),
        Op::Corrupt(x, how, y) => {
            let Some(x) = pick(&all, x) else { return };
            // Any id, or one past every id: a reference that may dangle.
            let target = pick(&all, y)
                .filter(|_| y % 4 != 0)
                .unwrap_or(ElementId::from_raw(10_000 + u64::from(y)));
            let e = m.element_mut(x).unwrap();
            match how % 6 {
                0 => e.core_mut().name = if how % 12 < 6 { String::new() } else { " ".into() },
                1 => match e.kind_mut() {
                    ElementKind::Attribute(a) => {
                        a.multiplicity = Multiplicity { lower: 3, upper: Some(1) }
                    }
                    ElementKind::Association(a) => {
                        a.ends[0].multiplicity = Multiplicity { lower: 2, upper: Some(0) }
                    }
                    _ => {}
                },
                2 => match e.kind_mut() {
                    ElementKind::Attribute(a) => a.ty = TypeRef::Element(target),
                    ElementKind::Operation(o) => o.return_type = TypeRef::Element(target),
                    ElementKind::Parameter(p) => p.ty = TypeRef::Element(target),
                    ElementKind::Dependency(d) => d.supplier = target,
                    ElementKind::Constraint(c) => c.constrained = target,
                    _ => {}
                },
                3 if x != root => e.core_mut().owner = Some(target),
                4 if x == root => e.core_mut().owner = Some(target),
                _ => e.core_mut().owner = None,
            }
        }
        Op::Begin => m.begin_journal(),
        Op::Commit => {
            if let Some((_, Some(log))) = m.commit_journal() {
                logs.push(log);
            }
        }
        Op::Rollback => {
            let _ = m.rollback_journal();
        }
        Op::Revert => {
            if !m.journal_active() {
                if let Some(log) = logs.pop() {
                    m.revert(log);
                }
            }
        }
    }
}

/// The start state: a small well-formed model with generalizations,
/// type references and an association, so the referrer and cycle rules
/// have something to break.
fn start() -> Model {
    let mut m = synthetic(4, 1, 2);
    let (c0, c2) = (m.find_class("C0").unwrap(), m.find_class("C2").unwrap());
    let root = m.root();
    m.add_attribute(c2, "peer", TypeRef::Element(c0)).unwrap();
    m.add_association(root, "uses", AssociationEnd::new("a", c0), AssociationEnd::new("b", c2))
        .unwrap();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After each checked op the export equals a clone's cold export;
    /// unchecked ops let several writes pile up between two exports.
    #[test]
    fn export_equals_a_cold_export_after_every_op(
        script in prop::collection::vec((arb_op(), any::<u8>()), 0..60),
    ) {
        let mut m = start();
        let _ = export_model(&m);
        let (mut logs, mut n) = (Vec::new(), 0);
        for (op, check) in &script {
            run(&mut m, op, &mut logs, &mut n);
            if check % 4 != 0 {
                prop_assert_eq!(export_model(&m), export_model(&m.clone()), "after {:?}", op);
            }
        }
        prop_assert_eq!(export_model(&m), export_model(&m.clone()));
    }

    /// After each checked op the verdict and violation list equal a
    /// clone's full pass, from well-formed and ill-formed states alike.
    #[test]
    fn validate_equals_a_full_pass_after_every_op(
        script in prop::collection::vec((arb_op(), any::<u8>()), 0..60),
    ) {
        let mut m = start();
        prop_assert!(m.validate().is_ok());
        let (mut logs, mut n) = (Vec::new(), 0);
        for (op, check) in &script {
            run(&mut m, op, &mut logs, &mut n);
            if check % 4 != 0 {
                prop_assert_eq!(m.validate(), m.clone().validate(), "after {:?}", op);
            }
        }
        prop_assert_eq!(m.validate(), m.clone().validate());
    }
}
