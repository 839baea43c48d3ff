//! The functional code generator: model → skeleton program, with
//! hand-written "functional" bodies supplied through a [`BodyProvider`]
//! (the protected regions of classic MDA code generators).

use crate::ir::*;
use comet_model::{Model, Multiplicity, Primitive, TypeRef};
use comet_obs::fnv1a64;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::OnceLock;

/// Supplies method bodies for generated operations, keyed by
/// `Class::method`. Operations without a provided body get a default
/// body returning the default value of their return type.
#[derive(Debug, Clone, Default)]
pub struct BodyProvider {
    bodies: BTreeMap<String, Block>,
    /// [`BodyProvider::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
}

impl BodyProvider {
    /// Creates an empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a body for `Class::method`, builder style.
    pub fn provide(mut self, qualified: &str, body: Block) -> Self {
        self.bodies.insert(qualified.to_owned(), body);
        self.fingerprint = OnceLock::new();
        self
    }

    /// FNV-1a over a canonical serialization of the `(qualified name,
    /// body)` pairs, computed once per provider. A rendered artifact
    /// depends on the bodies as much as on the model, so cache layers
    /// key on this to keep two different providers from aliasing.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut repr = String::new();
            for (name, body) in self.entries() {
                write!(repr, "{name}\0{body:?}\0").expect("writing to a String cannot fail");
            }
            fnv1a64(repr.as_bytes())
        })
    }

    /// Looks up the body for `class::method`.
    pub fn get(&self, class: &str, method: &str) -> Option<&Block> {
        self.bodies.get(&format!("{class}::{method}"))
    }

    /// The provided `(qualified name, body)` pairs, in name order —
    /// deterministic, so cache layers can fingerprint a provider.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Block)> {
        self.bodies.iter().map(|(name, body)| (name.as_str(), body))
    }

    /// Number of provided bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// True when no bodies are registered.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }
}

/// Maps a model [`TypeRef`] to an IR type.
pub(crate) fn ir_type(model: &Model, ty: TypeRef) -> IrType {
    match ty {
        TypeRef::Primitive(Primitive::Int) => IrType::Int,
        TypeRef::Primitive(Primitive::Real) => IrType::Real,
        TypeRef::Primitive(Primitive::Bool) => IrType::Bool,
        TypeRef::Primitive(Primitive::Str) => IrType::Str,
        TypeRef::Primitive(Primitive::Void) => IrType::Void,
        TypeRef::Element(id) => IrType::Object(
            model.element(id).map(|e| e.name().to_owned()).unwrap_or_else(|_| "Object".into()),
        ),
    }
}

/// Default value expression for an IR type.
pub(crate) fn default_value(ty: &IrType) -> Expr {
    match ty {
        IrType::Int => Expr::int(0),
        IrType::Real => Expr::Lit(Literal::Real(0.0)),
        IrType::Bool => Expr::bool(false),
        IrType::Str => Expr::str(""),
        IrType::Void => Expr::null(),
        IrType::Object(_) | IrType::List(_) => Expr::null(),
    }
}

fn default_body(ret: &IrType) -> Block {
    match ret {
        IrType::Void => Block::default(),
        other => Block::of(vec![Stmt::ret(default_value(other))]),
    }
}

/// The functional code generator of the paper's proposal: it projects the
/// *functional* view out of the (possibly marked) model — concern
/// stereotypes and `comet.*` tags are stripped, keeping the functional
/// artifact independent of concern parameters — and emits one IR class
/// per model class.
#[derive(Debug, Clone, Default)]
pub struct FunctionalGenerator;

impl FunctionalGenerator {
    /// Creates a generator.
    pub fn new() -> Self {
        Self
    }

    fn keep_stereotype(&self, name: &str) -> bool {
        !crate::marks::CONCERN_STEREOTYPES.contains(&name)
    }

    fn keep_tag(&self, key: &str) -> bool {
        !crate::marks::is_concern_tag(key)
    }

    /// Generates the program for `model`, pulling functional bodies from
    /// `bodies`.
    pub fn generate(&self, model: &Model, bodies: &BodyProvider) -> Program {
        let mut program = Program::new(model.name());
        for class_id in model.classes() {
            let class_el = match model.element(class_id) {
                Ok(e) => e,
                Err(_) => continue,
            };
            let mut class = ClassDecl::new(class_el.name());
            class.doc = class_el.core().doc.clone();
            for s in &class_el.core().stereotypes {
                if !self.keep_stereotype(s) {
                    continue;
                }
                let mut ann = Annotation::new(s.clone());
                for (k, v) in &class_el.core().tags {
                    if self.keep_tag(k) {
                        ann.params.insert(k.clone(), v.to_string());
                    }
                }
                class.annotations.push(ann);
            }
            // Fields from attributes (and association ends pointing away
            // from this class are left to the body author: the IR has no
            // relational storage).
            for attr_id in model.attributes_of(class_id) {
                let attr = match model.element(attr_id) {
                    Ok(a) => a,
                    Err(_) => continue,
                };
                let data = attr.as_attribute().expect("attributes_of returns attributes");
                let mut ty = ir_type(model, data.ty);
                if data.multiplicity != Multiplicity::one()
                    && data.multiplicity != Multiplicity::optional()
                {
                    ty = IrType::List(Box::new(ty));
                }
                let mut field = FieldDecl::new(attr.name(), ty);
                field.init = None;
                class.fields.push(field);
            }
            // Methods from operations.
            for op_id in model.operations_of(class_id) {
                let op_el = match model.element(op_id) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                let data = op_el.as_operation().expect("operations_of returns operations");
                let mut method = MethodDecl::new(op_el.name());
                method.ret = ir_type(model, data.return_type);
                method.is_static = data.is_static;
                for s in &op_el.core().stereotypes {
                    if !self.keep_stereotype(s) {
                        continue;
                    }
                    let mut ann = Annotation::new(s.clone());
                    for (k, v) in &op_el.core().tags {
                        if self.keep_tag(k) {
                            ann.params.insert(k.clone(), v.to_string());
                        }
                    }
                    method.annotations.push(ann);
                }
                for p_id in model.parameters_of(op_id) {
                    let p = match model.element(p_id) {
                        Ok(p) => p,
                        Err(_) => continue,
                    };
                    let pd = p.as_parameter().expect("parameters_of returns parameters");
                    method.params.push(Param::new(p.name(), ir_type(model, pd.ty)));
                }
                method.body = bodies
                    .get(class_el.name(), op_el.name())
                    .cloned()
                    .unwrap_or_else(|| default_body(&method.ret));
                class.methods.push(method);
            }
            program.classes.push(class);
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::banking_pim;

    #[test]
    fn generates_classes_fields_methods() {
        let m = banking_pim();
        let p = FunctionalGenerator::new().generate(&m, &BodyProvider::default());
        assert_eq!(p.classes.len(), 3);
        let account = p.find_class("Account").unwrap();
        assert_eq!(account.fields.len(), 2);
        assert_eq!(account.fields[0].name, "number");
        assert_eq!(account.fields[1].ty, IrType::Int);
        let deposit = account.find_method("deposit").unwrap();
        assert_eq!(deposit.params.len(), 1);
        assert_eq!(deposit.ret, IrType::Void);
        let withdraw = account.find_method("withdraw").unwrap();
        assert_eq!(withdraw.ret, IrType::Bool);
        // Default body returns the default of the return type.
        assert_eq!(withdraw.body.stmts, vec![Stmt::ret(Expr::bool(false))]);
        assert!(account.find_method("deposit").unwrap().body.stmts.is_empty());
    }

    #[test]
    fn fingerprint_is_equal_for_equal_providers_and_moved_by_provide() {
        let body = || Block::of(vec![Stmt::ret(Expr::int(1))]);
        let a = BodyProvider::new().provide("A::f", body());
        let b = BodyProvider::new().provide("A::f", body());
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal providers fingerprint equal");
        assert_eq!(a.fingerprint(), a.fingerprint(), "repeat reads agree");
        assert_ne!(a.fingerprint(), BodyProvider::new().fingerprint());
        // `provide` after a read resets the cached value, including on
        // a clone that carried it over.
        let before = a.fingerprint();
        let grown = a.clone().provide("A::g", body());
        assert_ne!(grown.fingerprint(), before, "provide must change the fingerprint");
        let replaced = a.provide("A::f", Block::of(vec![Stmt::ret(Expr::int(2))]));
        assert_ne!(replaced.fingerprint(), before, "a replaced body must change it too");
    }

    #[test]
    fn provided_bodies_override_defaults() {
        let m = banking_pim();
        let body = Block::of(vec![Stmt::set_this_field(
            "balance",
            Expr::binary(IrBinOp::Add, Expr::this_field("balance"), Expr::var("amount")),
        )]);
        let bodies = BodyProvider::new().provide("Account::deposit", body.clone());
        assert_eq!(bodies.len(), 1);
        assert!(!bodies.is_empty());
        let p = FunctionalGenerator::new().generate(&m, &bodies);
        assert_eq!(p.find_method("Account", "deposit").unwrap().body, body);
    }

    #[test]
    fn concern_marks_are_stripped_and_other_stereotypes_kept() {
        let mut m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        let transfer = m.find_operation(bank, "transfer").unwrap();
        m.apply_stereotype(transfer, "Transactional").unwrap();
        m.set_tag(transfer, "comet.tx.isolation", "serializable").unwrap();
        // Concern marks are stripped from the functional artifact.
        let stripped = FunctionalGenerator::new().generate(&m, &BodyProvider::default());
        assert!(!stripped.find_method("Bank", "transfer").unwrap().has_annotation("Transactional"));
        // Non-concern stereotypes survive stripping.
        m.apply_stereotype(transfer, "Entity").unwrap();
        let stripped2 = FunctionalGenerator::new().generate(&m, &BodyProvider::default());
        assert!(stripped2.find_method("Bank", "transfer").unwrap().has_annotation("Entity"));
    }

    #[test]
    fn element_typed_attributes_map_to_object_types() {
        let mut m = comet_model::Model::new("m");
        let a = m.add_class(m.root(), "A").unwrap();
        let b = m.add_class(m.root(), "B").unwrap();
        m.add_attribute(b, "a", comet_model::TypeRef::Element(a)).unwrap();
        let p = FunctionalGenerator::new().generate(&m, &BodyProvider::default());
        assert_eq!(p.find_class("B").unwrap().fields[0].ty, IrType::Object("A".into()));
    }
}
