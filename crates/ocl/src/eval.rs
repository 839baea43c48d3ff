//! Evaluator for the OCL-like language over a `comet-model` model.

use crate::ast::{BinOp, Expr, UnOp};
use crate::value::Value;
use comet_model::{Element, ElementId, ElementKind, Model, TagValue, TypeRef};
use std::collections::BTreeMap;
use std::fmt;

/// Evaluation context: the model, the optional `self` element, and
/// variable bindings.
///
/// A `let` or iterator variable is bound in a frame: a context on the
/// evaluator's stack that holds the one variable and borrows the
/// context it was bound in. Binding costs no map copy and no name
/// allocation, lookup walks the frames innermost first (so an inner
/// variable shadows an outer one of the same name), and leaving the
/// body drops the frame, so the outer binding is visible again.
#[derive(Debug, Clone)]
pub struct Context<'m> {
    model: &'m Model,
    self_value: Value,
    bindings: BTreeMap<String, Value>,
    frame: Option<Frame<'m>>,
}

/// One variable bound over the context it was bound in.
#[derive(Debug, Clone)]
struct Frame<'m> {
    var: &'m str,
    value: Value,
    outer: &'m Context<'m>,
}

impl<'m> Context<'m> {
    /// Context with no `self`; suitable for model-level constraints that
    /// only use `X.allInstances()` style queries.
    pub fn for_model(model: &'m Model) -> Self {
        Context { model, self_value: Value::Undefined, bindings: BTreeMap::new(), frame: None }
    }

    /// Context whose `self` is the given element.
    pub fn for_element(model: &'m Model, element: ElementId) -> Self {
        let self_value = Value::Element(element);
        Context { model, self_value, bindings: BTreeMap::new(), frame: None }
    }

    /// Returns a context extended with one more variable binding, for
    /// tests that evaluate under an outer variable.
    #[cfg(test)]
    fn with_binding(&self, name: impl Into<String>, value: Value) -> Self {
        let mut bindings = self.bindings.clone();
        bindings.insert(name.into(), value);
        Context { bindings, ..self.clone() }
    }

    /// A frame binding `var` to `value` over this context.
    fn bind<'f>(&'f self, var: &'f str, value: Value) -> Context<'f> {
        Context {
            model: self.model,
            self_value: self.self_value.clone(),
            bindings: BTreeMap::new(),
            frame: Some(Frame { var, value, outer: self }),
        }
    }

    /// The value bound to `name`: the innermost frame's, else the
    /// context's own bindings.
    fn lookup(&self, name: &str) -> Option<&Value> {
        let mut ctx = self;
        while let Some(frame) = &ctx.frame {
            if frame.var == name {
                return Some(&frame.value);
            }
            ctx = frame.outer;
        }
        ctx.bindings.get(name)
    }

    /// The model this context evaluates against.
    pub fn model(&self) -> &'m Model {
        self.model
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A variable is not bound and is not a metamodel type name.
    UnknownVariable(String),
    /// A property is not defined on the receiver.
    UnknownProperty {
        /// Property name.
        prop: String,
        /// Receiver type name.
        on: &'static str,
    },
    /// A method is not defined on the receiver.
    UnknownMethod {
        /// Method name.
        method: String,
        /// Receiver type name.
        on: &'static str,
    },
    /// A collection operation/iterator is not known.
    UnknownCollectionOp(String),
    /// An operand had the wrong type.
    TypeMismatch {
        /// Expected type name.
        expected: &'static str,
        /// Found type name.
        found: &'static str,
        /// Where it happened.
        context: String,
    },
    /// Division or modulo by zero.
    DivisionByZero,
    /// A metamodel type name was not recognized.
    UnknownType(String),
    /// Wrong number of arguments for a method.
    ArgCount {
        /// Method name.
        method: String,
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// `->at(i)` or `substring` out of bounds.
    IndexOutOfBounds {
        /// The requested index.
        index: i64,
        /// Size of the receiver.
        size: usize,
    },
    /// `->one(...)` matched a number of elements different from one.
    NotExactlyOne(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVariable(v) => write!(f, "unknown variable `{v}`"),
            EvalError::UnknownProperty { prop, on } => {
                write!(f, "unknown property `{prop}` on {on}")
            }
            EvalError::UnknownMethod { method, on } => {
                write!(f, "unknown method `{method}` on {on}")
            }
            EvalError::UnknownCollectionOp(op) => write!(f, "unknown collection operation `{op}`"),
            EvalError::TypeMismatch { expected, found, context } => {
                write!(f, "expected {expected}, found {found} in {context}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::UnknownType(t) => write!(f, "unknown metamodel type `{t}`"),
            EvalError::ArgCount { method, expected, found } => {
                write!(f, "`{method}` expects {expected} argument(s), found {found}")
            }
            EvalError::IndexOutOfBounds { index, size } => {
                write!(f, "index {index} out of bounds for size {size}")
            }
            EvalError::NotExactlyOne(n) => write!(f, "`one` iterator matched {n} elements"),
        }
    }
}

impl std::error::Error for EvalError {}

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

/// Evaluates a parsed expression in the given context.
///
/// # Errors
/// Returns an [`EvalError`] describing the first failure.
pub fn evaluate(expr: &Expr, ctx: &Context<'_>) -> Result<Value, EvalError> {
    match expr {
        Expr::Int(i) => Ok(Value::Int(*i)),
        Expr::Real(r) => Ok(Value::Real(*r)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::SelfRef => Ok(ctx.self_value.clone()),
        Expr::Var(name) => {
            if let Some(v) = ctx.lookup(name) {
                Ok(v.clone())
            } else if KIND_NAMES.contains(&name.as_str()) {
                // Bare type literal; only meaningful as allInstances()
                // receiver or oclIsKindOf argument, both handled by their
                // callers. Represent as the type-name string.
                Ok(Value::Str(name.clone()))
            } else {
                Err(EvalError::UnknownVariable(name.clone()))
            }
        }
        Expr::Unary { op, operand } => {
            let v = evaluate(operand, ctx)?;
            match op {
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Real(r) => Ok(Value::Real(-r)),
                    other => Err(type_mismatch("Integer or Real", &other, "unary `-`")),
                },
                UnOp::Not => match v {
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(type_mismatch("Boolean", &other, "`not`")),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::Let { var, value, body } => {
            let v = evaluate(value, ctx)?;
            evaluate(body, &ctx.bind(var, v))
        }
        Expr::If { cond, then_branch, else_branch } => {
            let c = evaluate(cond, ctx)?;
            match c {
                Value::Bool(true) => evaluate(then_branch, ctx),
                Value::Bool(false) => evaluate(else_branch, ctx),
                other => Err(type_mismatch("Boolean", &other, "`if` condition")),
            }
        }
        Expr::Property { recv, prop } => {
            let r = evaluate(recv, ctx)?;
            eval_property(&r, prop, ctx)
        }
        Expr::MethodCall { recv, method, args } => {
            // `TypeName.allInstances()` needs the unevaluated receiver.
            if method == "allInstances" {
                if let Expr::Var(type_name) = recv.as_ref() {
                    if ctx.lookup(type_name).is_none() {
                        return all_instances(type_name, ctx);
                    }
                }
            }
            let r = evaluate(recv, ctx)?;
            eval_method(&r, method, args, ctx)
        }
        Expr::CollectionCall { recv, op, args } => {
            let r = evaluate(recv, ctx)?;
            let argv: Vec<Value> =
                args.iter().map(|a| evaluate(a, ctx)).collect::<Result<_, _>>()?;
            eval_collection_op(&r, op, &argv)
        }
        Expr::Iterate { recv, op, var, body } => {
            let r = evaluate(recv, ctx)?;
            let items = match r {
                Value::Collection(items) => items,
                other => {
                    return Err(type_mismatch("Collection", &other, &format!("`->{op}`")));
                }
            };
            eval_iterator(op, &items, var, body, ctx)
        }
    }
}

fn type_mismatch(expected: &'static str, found: &Value, context: &str) -> EvalError {
    EvalError::TypeMismatch { expected, found: found.type_name(), context: context.to_owned() }
}

fn eval_binary(op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &Context<'_>) -> Result<Value, EvalError> {
    // Short-circuit boolean operators first.
    match op {
        BinOp::And => {
            let l = expect_bool(evaluate(lhs, ctx)?, "`and`")?;
            if !l {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(expect_bool(evaluate(rhs, ctx)?, "`and`")?));
        }
        BinOp::Or => {
            let l = expect_bool(evaluate(lhs, ctx)?, "`or`")?;
            if l {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(expect_bool(evaluate(rhs, ctx)?, "`or`")?));
        }
        BinOp::Implies => {
            let l = expect_bool(evaluate(lhs, ctx)?, "`implies`")?;
            if !l {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(expect_bool(evaluate(rhs, ctx)?, "`implies`")?));
        }
        _ => {}
    }
    let l = evaluate(lhs, ctx)?;
    let r = evaluate(rhs, ctx)?;
    match op {
        BinOp::Xor => Ok(Value::Bool(expect_bool(l, "`xor`")? ^ expect_bool(r, "`xor`")?)),
        BinOp::Eq => Ok(Value::Bool(l == r)),
        BinOp::Ne => Ok(Value::Bool(l != r)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                _ => {
                    let a = l.as_number().ok_or_else(|| {
                        type_mismatch("Integer, Real or String", &l, "comparison")
                    })?;
                    let b = r.as_number().ok_or_else(|| {
                        type_mismatch("Integer, Real or String", &r, "comparison")
                    })?;
                    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
                }
            };
            let b = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!("guarded above"),
            };
            Ok(Value::Bool(b))
        }
        BinOp::Add => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a + b)),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            _ => numeric(l, r, "`+`", |a, b| a + b),
        },
        BinOp::Sub => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a - b)),
            _ => numeric(l, r, "`-`", |a, b| a - b),
        },
        BinOp::Mul => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a * b)),
            _ => numeric(l, r, "`*`", |a, b| a * b),
        },
        BinOp::Div => {
            let b = r.as_number().ok_or_else(|| type_mismatch("Integer or Real", &r, "`/`"))?;
            if b == 0.0 {
                return Err(EvalError::DivisionByZero);
            }
            let a = l.as_number().ok_or_else(|| type_mismatch("Integer or Real", &l, "`/`"))?;
            Ok(Value::Real(a / b))
        }
        BinOp::Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => Err(type_mismatch("Integer", if l.as_int().is_some() { &r } else { &l }, "`mod`")),
        },
        BinOp::And | BinOp::Or | BinOp::Implies => unreachable!("short-circuited above"),
    }
}

fn numeric(
    l: Value,
    r: Value,
    what: &str,
    f: impl FnOnce(f64, f64) -> f64,
) -> Result<Value, EvalError> {
    let a = l.as_number().ok_or_else(|| type_mismatch("Integer or Real", &l, what))?;
    let b = r.as_number().ok_or_else(|| type_mismatch("Integer or Real", &r, what))?;
    Ok(Value::Real(f(a, b)))
}

fn expect_bool(v: Value, what: &str) -> Result<bool, EvalError> {
    v.as_bool().ok_or_else(|| type_mismatch("Boolean", &v, what))
}

fn type_ref_value(ty: TypeRef) -> Value {
    match ty {
        TypeRef::Primitive(p) => Value::Str(p.name().to_owned()),
        TypeRef::Element(id) => Value::Element(id),
    }
}

fn element<'m>(ctx: &Context<'m>, id: ElementId) -> Result<&'m Element, EvalError> {
    ctx.model()
        .element(id)
        .map_err(|_| EvalError::UnknownProperty { prop: "<resolution>".into(), on: "Element" })
}

fn ids(items: Vec<ElementId>) -> Value {
    Value::Collection(items.into_iter().map(Value::Element).collect())
}

fn eval_property(recv: &Value, prop: &str, ctx: &Context<'_>) -> Result<Value, EvalError> {
    let id = match recv {
        Value::Element(id) => *id,
        Value::Undefined => return Ok(Value::Undefined),
        other => {
            return Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: other.type_name() })
        }
    };
    let m = ctx.model();
    let e = element(ctx, id)?;
    match prop {
        "name" => Ok(Value::Str(e.name().to_owned())),
        "qualifiedName" => Ok(Value::Str(m.qualified_name(id).unwrap_or_default())),
        "owner" => Ok(e.owner().map(Value::Element).unwrap_or(Value::Undefined)),
        "kind" => Ok(Value::Str(e.kind().kind_name().to_owned())),
        "stereotypes" => Ok(Value::Collection(
            e.core().stereotypes.iter().map(|s| Value::Str(s.clone())).collect(),
        )),
        "ownedElements" => Ok(ids(m.children(id))),
        "attributes" => Ok(ids(m.attributes_of(id))),
        "operations" => Ok(ids(m.operations_of(id))),
        "parameters" => Ok(ids(m.parameters_of(id))),
        "constraints" => Ok(ids(m.constraints_on(id))),
        "parents" => Ok(ids(m.parents_of(id))),
        "ancestors" => Ok(ids(m.ancestors_of(id))),
        "concern" => {
            Ok(m.concern_of(id).map(|s| Value::Str(s.to_owned())).unwrap_or(Value::Undefined))
        }
        "visibility" => Ok(Value::Str(format!("{:?}", e.core().visibility).to_lowercase())),
        "isAbstract" => match e.kind() {
            ElementKind::Class(c) => Ok(Value::Bool(c.is_abstract)),
            ElementKind::Operation(o) => Ok(Value::Bool(o.is_abstract)),
            _ => Ok(Value::Bool(false)),
        },
        "isStatic" => match e.kind() {
            ElementKind::Operation(o) => Ok(Value::Bool(o.is_static)),
            ElementKind::Attribute(a) => Ok(Value::Bool(a.is_static)),
            _ => Ok(Value::Bool(false)),
        },
        "isQuery" => match e.kind() {
            ElementKind::Operation(o) => Ok(Value::Bool(o.is_query)),
            _ => Ok(Value::Bool(false)),
        },
        "returnType" => match e.kind() {
            ElementKind::Operation(o) => Ok(type_ref_value(o.return_type)),
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        "type" => match e.kind() {
            ElementKind::Attribute(a) => Ok(type_ref_value(a.ty)),
            ElementKind::Parameter(p) => Ok(type_ref_value(p.ty)),
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        "body" => match e.kind() {
            ElementKind::Constraint(c) => Ok(Value::Str(c.body.clone())),
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        "constrained" => match e.kind() {
            ElementKind::Constraint(c) => Ok(Value::Element(c.constrained)),
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        "literals" => match e.kind() {
            ElementKind::Enumeration(en) => {
                Ok(Value::Collection(en.literals.iter().map(|l| Value::Str(l.clone())).collect()))
            }
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        "participants" => match e.kind() {
            ElementKind::Association(a) => Ok(Value::Collection(vec![
                Value::Element(a.ends[0].class),
                Value::Element(a.ends[1].class),
            ])),
            ElementKind::Generalization(g) => {
                Ok(Value::Collection(vec![Value::Element(g.child), Value::Element(g.parent)]))
            }
            _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
        },
        _ => Err(EvalError::UnknownProperty { prop: prop.to_owned(), on: "Element" }),
    }
}

fn all_instances(type_name: &str, ctx: &Context<'_>) -> Result<Value, EvalError> {
    if !KIND_NAMES.contains(&type_name) {
        return Err(EvalError::UnknownType(type_name.to_owned()));
    }
    // Indexed kind lookup: transformation pre/postconditions evaluate
    // many `T.allInstances()` expressions against the same model
    // generation, so this is a cache hit after the first.
    let items: Vec<Value> =
        ctx.model().elements_of_kind(type_name).into_iter().map(Value::Element).collect();
    Ok(Value::Collection(items))
}

fn want_args(method: &str, args: &[Expr], n: usize) -> Result<(), EvalError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(EvalError::ArgCount { method: method.to_owned(), expected: n, found: args.len() })
    }
}

fn eval_method(
    recv: &Value,
    method: &str,
    args: &[Expr],
    ctx: &Context<'_>,
) -> Result<Value, EvalError> {
    // Universally available methods.
    match method {
        "oclIsUndefined" => {
            want_args(method, args, 0)?;
            return Ok(Value::Bool(recv.is_undefined()));
        }
        "oclIsKindOf" | "oclIsTypeOf" => {
            want_args(method, args, 1)?;
            let type_name = match &args[0] {
                Expr::Var(n) => n.clone(),
                Expr::Str(s) => s.clone(),
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "type name",
                        found: "expression",
                        context: format!("{other:?}"),
                    })
                }
            };
            if !KIND_NAMES.contains(&type_name.as_str()) {
                return Err(EvalError::UnknownType(type_name));
            }
            return Ok(match recv {
                Value::Element(id) => {
                    let e = element(ctx, *id)?;
                    Value::Bool(e.kind().kind_name() == type_name)
                }
                _ => Value::Bool(false),
            });
        }
        _ => {}
    }
    match recv {
        Value::Element(id) => {
            let m = ctx.model();
            let e = element(ctx, *id)?;
            match method {
                "hasStereotype" => {
                    want_args(method, args, 1)?;
                    let s = evaluate(&args[0], ctx)?;
                    let name =
                        s.as_str().ok_or_else(|| type_mismatch("String", &s, "hasStereotype"))?;
                    Ok(Value::Bool(e.core().has_stereotype(name)))
                }
                "taggedValue" => {
                    want_args(method, args, 1)?;
                    let k = evaluate(&args[0], ctx)?;
                    let key =
                        k.as_str().ok_or_else(|| type_mismatch("String", &k, "taggedValue"))?;
                    Ok(match e.core().tag(key) {
                        Some(v) => tag_to_value(v),
                        None => Value::Undefined,
                    })
                }
                "operation" => {
                    want_args(method, args, 1)?;
                    let n = evaluate(&args[0], ctx)?;
                    let name =
                        n.as_str().ok_or_else(|| type_mismatch("String", &n, "operation"))?;
                    Ok(m.find_operation(*id, name).map(Value::Element).unwrap_or(Value::Undefined))
                }
                "attribute" => {
                    want_args(method, args, 1)?;
                    let n = evaluate(&args[0], ctx)?;
                    let name =
                        n.as_str().ok_or_else(|| type_mismatch("String", &n, "attribute"))?;
                    Ok(m.find_attribute(*id, name).map(Value::Element).unwrap_or(Value::Undefined))
                }
                _ => Err(EvalError::UnknownMethod { method: method.to_owned(), on: "Element" }),
            }
        }
        Value::Str(s) => match method {
            "size" => {
                want_args(method, args, 0)?;
                Ok(Value::Int(s.chars().count() as i64))
            }
            "concat" => {
                let mut out = s.clone();
                for a in args {
                    let v = evaluate(a, ctx)?;
                    match v {
                        Value::Str(x) => out.push_str(&x),
                        other => return Err(type_mismatch("String", &other, "concat")),
                    }
                }
                Ok(Value::Str(out))
            }
            "toUpper" => {
                want_args(method, args, 0)?;
                Ok(Value::Str(s.to_uppercase()))
            }
            "toLower" => {
                want_args(method, args, 0)?;
                Ok(Value::Str(s.to_lowercase()))
            }
            "contains" => {
                want_args(method, args, 1)?;
                let v = evaluate(&args[0], ctx)?;
                let needle = v.as_str().ok_or_else(|| type_mismatch("String", &v, "contains"))?;
                Ok(Value::Bool(s.contains(needle)))
            }
            "startsWith" => {
                want_args(method, args, 1)?;
                let v = evaluate(&args[0], ctx)?;
                let p = v.as_str().ok_or_else(|| type_mismatch("String", &v, "startsWith"))?;
                Ok(Value::Bool(s.starts_with(p)))
            }
            "endsWith" => {
                want_args(method, args, 1)?;
                let v = evaluate(&args[0], ctx)?;
                let p = v.as_str().ok_or_else(|| type_mismatch("String", &v, "endsWith"))?;
                Ok(Value::Bool(s.ends_with(p)))
            }
            "substring" => {
                want_args(method, args, 2)?;
                let lo = evaluate(&args[0], ctx)?;
                let hi = evaluate(&args[1], ctx)?;
                let (lo, hi) = match (lo.as_int(), hi.as_int()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(EvalError::TypeMismatch {
                            expected: "Integer",
                            found: "non-integer",
                            context: "substring".into(),
                        })
                    }
                };
                let chars: Vec<char> = s.chars().collect();
                if lo < 1 || hi < lo || hi as usize > chars.len() {
                    return Err(EvalError::IndexOutOfBounds { index: hi, size: chars.len() });
                }
                Ok(Value::Str(chars[(lo - 1) as usize..hi as usize].iter().collect()))
            }
            "allInstances" => all_instances(s, ctx),
            _ => Err(EvalError::UnknownMethod { method: method.to_owned(), on: "String" }),
        },
        Value::Int(i) => match method {
            "abs" => {
                want_args(method, args, 0)?;
                Ok(Value::Int(i.abs()))
            }
            "max" | "min" => {
                want_args(method, args, 1)?;
                let v = evaluate(&args[0], ctx)?;
                let j = v.as_int().ok_or_else(|| type_mismatch("Integer", &v, method))?;
                Ok(Value::Int(if method == "max" { (*i).max(j) } else { (*i).min(j) }))
            }
            _ => Err(EvalError::UnknownMethod { method: method.to_owned(), on: "Integer" }),
        },
        Value::Real(r) => match method {
            "abs" => {
                want_args(method, args, 0)?;
                Ok(Value::Real(r.abs()))
            }
            "floor" => {
                want_args(method, args, 0)?;
                Ok(Value::Int(r.floor() as i64))
            }
            "round" => {
                want_args(method, args, 0)?;
                Ok(Value::Int(r.round() as i64))
            }
            _ => Err(EvalError::UnknownMethod { method: method.to_owned(), on: "Real" }),
        },
        other => Err(EvalError::UnknownMethod { method: method.to_owned(), on: other.type_name() }),
    }
}

fn tag_to_value(tag: &TagValue) -> Value {
    match tag {
        TagValue::Str(s) => Value::Str(s.clone()),
        TagValue::Int(i) => Value::Int(*i),
        TagValue::Bool(b) => Value::Bool(*b),
        TagValue::Real(r) => Value::Real(*r),
        TagValue::List(l) => Value::Collection(l.iter().map(tag_to_value).collect()),
    }
}

fn eval_collection_op(recv: &Value, op: &str, args: &[Value]) -> Result<Value, EvalError> {
    let items = match recv {
        Value::Collection(items) => items.clone(),
        Value::Undefined => Vec::new(),
        other => return Err(type_mismatch("Collection", other, &format!("`->{op}`"))),
    };
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::ArgCount { method: op.to_owned(), expected: n, found: args.len() })
        }
    };
    match op {
        "size" => {
            arity(0)?;
            Ok(Value::Int(items.len() as i64))
        }
        "isEmpty" => {
            arity(0)?;
            Ok(Value::Bool(items.is_empty()))
        }
        "notEmpty" => {
            arity(0)?;
            Ok(Value::Bool(!items.is_empty()))
        }
        "includes" => {
            arity(1)?;
            Ok(Value::Bool(items.contains(&args[0])))
        }
        "excludes" => {
            arity(1)?;
            Ok(Value::Bool(!items.contains(&args[0])))
        }
        "including" => {
            arity(1)?;
            let mut out = items;
            out.push(args[0].clone());
            Ok(Value::Collection(out))
        }
        "excluding" => {
            arity(1)?;
            Ok(Value::Collection(items.into_iter().filter(|v| v != &args[0]).collect()))
        }
        "count" => {
            arity(1)?;
            Ok(Value::Int(items.iter().filter(|v| *v == &args[0]).count() as i64))
        }
        "sum" => {
            arity(0)?;
            let mut int_sum = 0i64;
            let mut real_sum = 0f64;
            let mut any_real = false;
            for v in &items {
                match v {
                    Value::Int(i) => int_sum += i,
                    Value::Real(r) => {
                        any_real = true;
                        real_sum += r;
                    }
                    other => return Err(type_mismatch("Integer or Real", other, "`->sum`")),
                }
            }
            if any_real {
                Ok(Value::Real(real_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        "first" => {
            arity(0)?;
            Ok(items.first().cloned().unwrap_or(Value::Undefined))
        }
        "last" => {
            arity(0)?;
            Ok(items.last().cloned().unwrap_or(Value::Undefined))
        }
        "at" => {
            arity(1)?;
            let i = args[0].as_int().ok_or_else(|| type_mismatch("Integer", &args[0], "`->at`"))?;
            if i < 1 || i as usize > items.len() {
                return Err(EvalError::IndexOutOfBounds { index: i, size: items.len() });
            }
            Ok(items[(i - 1) as usize].clone())
        }
        "indexOf" => {
            arity(1)?;
            Ok(items
                .iter()
                .position(|v| v == &args[0])
                .map(|p| Value::Int(p as i64 + 1))
                .unwrap_or(Value::Undefined))
        }
        "asSet" => {
            arity(0)?;
            let mut out: Vec<Value> = Vec::new();
            for v in items {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            Ok(Value::Collection(out))
        }
        "union" => {
            arity(1)?;
            let other = args[0]
                .as_collection()
                .ok_or_else(|| type_mismatch("Collection", &args[0], "`->union`"))?;
            let mut out = items;
            out.extend(other.iter().cloned());
            Ok(Value::Collection(out))
        }
        "intersection" => {
            arity(1)?;
            let other = args[0]
                .as_collection()
                .ok_or_else(|| type_mismatch("Collection", &args[0], "`->intersection`"))?;
            Ok(Value::Collection(items.into_iter().filter(|v| other.contains(v)).collect()))
        }
        "flatten" => {
            arity(0)?;
            let mut out = Vec::new();
            for v in items {
                match v {
                    Value::Collection(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            Ok(Value::Collection(out))
        }
        "reverse" => {
            arity(0)?;
            let mut out = items;
            out.reverse();
            Ok(Value::Collection(out))
        }
        _ => Err(EvalError::UnknownCollectionOp(op.to_owned())),
    }
}

fn eval_iterator(
    op: &str,
    items: &[Value],
    var: &str,
    body: &Expr,
    ctx: &Context<'_>,
) -> Result<Value, EvalError> {
    let eval_body =
        |item: &Value| -> Result<Value, EvalError> { evaluate(body, &ctx.bind(var, item.clone())) };
    match op {
        "forAll" => {
            for item in items {
                if !expect_bool(eval_body(item)?, "`->forAll` body")? {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }
        "exists" => {
            for item in items {
                if expect_bool(eval_body(item)?, "`->exists` body")? {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        "select" => {
            let mut out = Vec::new();
            for item in items {
                if expect_bool(eval_body(item)?, "`->select` body")? {
                    out.push(item.clone());
                }
            }
            Ok(Value::Collection(out))
        }
        "reject" => {
            let mut out = Vec::new();
            for item in items {
                if !expect_bool(eval_body(item)?, "`->reject` body")? {
                    out.push(item.clone());
                }
            }
            Ok(Value::Collection(out))
        }
        "collect" => {
            let mut out = Vec::new();
            for item in items {
                out.push(eval_body(item)?);
            }
            Ok(Value::Collection(out))
        }
        "any" => {
            for item in items {
                if expect_bool(eval_body(item)?, "`->any` body")? {
                    return Ok(item.clone());
                }
            }
            Ok(Value::Undefined)
        }
        "one" => {
            let mut n = 0usize;
            for item in items {
                if expect_bool(eval_body(item)?, "`->one` body")? {
                    n += 1;
                }
            }
            if n == 1 {
                Ok(Value::Bool(true))
            } else {
                Err(EvalError::NotExactlyOne(n))
            }
        }
        "isUnique" => {
            let mut seen: Vec<Value> = Vec::new();
            for item in items {
                let key = eval_body(item)?;
                if seen.contains(&key) {
                    return Ok(Value::Bool(false));
                }
                seen.push(key);
            }
            Ok(Value::Bool(true))
        }
        "sortedBy" => {
            let mut keyed: Vec<(Value, Value)> = Vec::new();
            for item in items {
                keyed.push((eval_body(item)?, item.clone()));
            }
            keyed.sort_by(|(a, _), (b, _)| match (a, b) {
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                _ => a.as_number().partial_cmp(&b.as_number()).unwrap_or(std::cmp::Ordering::Equal),
            });
            Ok(Value::Collection(keyed.into_iter().map(|(_, v)| v).collect()))
        }
        _ => Err(EvalError::UnknownCollectionOp(op.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use comet_model::sample::banking_pim;
    use comet_model::Model;

    fn eval_str(src: &str, ctx: &Context<'_>) -> Value {
        evaluate(&parse(src).unwrap(), ctx).unwrap()
    }

    fn err_str(src: &str, ctx: &Context<'_>) -> EvalError {
        evaluate(&parse(src).unwrap(), ctx).unwrap_err()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let m = Model::new("m");
        let ctx = Context::for_model(&m);
        assert_eq!(eval_str("1 + 2 * 3", &ctx), Value::Int(7));
        assert_eq!(eval_str("7 mod 3", &ctx), Value::Int(1));
        assert_eq!(eval_str("7 / 2", &ctx), Value::Real(3.5));
        assert_eq!(eval_str("1.5 + 1", &ctx), Value::Real(2.5));
        assert_eq!(eval_str("'a' + 'b'", &ctx), Value::Str("ab".into()));
        assert_eq!(eval_str("3 > 2 and 2 >= 2 and 1 < 2 and 1 <= 1", &ctx), Value::Bool(true));
        assert_eq!(eval_str("'abc' < 'abd'", &ctx), Value::Bool(true));
        assert_eq!(eval_str("-3.abs()", &ctx), Value::Int(-3)); // unary binds looser than postfix
        assert_eq!(eval_str("(-3).abs()", &ctx), Value::Int(3));
        assert_eq!(err_str("1 / 0", &ctx), EvalError::DivisionByZero);
        assert_eq!(err_str("1 mod 0", &ctx), EvalError::DivisionByZero);
    }

    #[test]
    fn boolean_logic_short_circuits() {
        let m = Model::new("m");
        let ctx = Context::for_model(&m);
        // Rhs would error (unknown var) but is never evaluated.
        assert_eq!(eval_str("false and nope", &ctx), Value::Bool(false));
        assert_eq!(eval_str("true or nope", &ctx), Value::Bool(true));
        assert_eq!(eval_str("false implies nope", &ctx), Value::Bool(true));
        assert_eq!(eval_str("true xor false", &ctx), Value::Bool(true));
        assert_eq!(eval_str("not false", &ctx), Value::Bool(true));
    }

    #[test]
    fn let_and_if() {
        let m = Model::new("m");
        let ctx = Context::for_model(&m);
        assert_eq!(eval_str("let x = 2 in x * x", &ctx), Value::Int(4));
        assert_eq!(eval_str("if 1 < 2 then 'a' else 'b' endif", &ctx), Value::Str("a".into()));
        assert_eq!(err_str("unbound", &ctx), EvalError::UnknownVariable("unbound".into()));
    }

    #[test]
    fn navigation_on_banking_model() {
        let m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        let ctx = Context::for_element(&m, bank);
        assert_eq!(eval_str("self.name", &ctx), Value::Str("Bank".into()));
        assert_eq!(eval_str("self.kind", &ctx), Value::Str("Class".into()));
        assert_eq!(eval_str("self.qualifiedName", &ctx), Value::Str("bank::Bank".into()));
        assert_eq!(eval_str("self.operations->size()", &ctx), Value::Int(3));
        assert_eq!(eval_str("self.operation('transfer').parameters->size()", &ctx), Value::Int(3));
        assert_eq!(eval_str("self.owner.name", &ctx), Value::Str("bank".into()));
        assert_eq!(eval_str("self.owner.owner.oclIsUndefined()", &ctx), Value::Bool(true));
        assert_eq!(eval_str("self.oclIsKindOf(Class)", &ctx), Value::Bool(true));
        assert_eq!(eval_str("self.oclIsKindOf(Package)", &ctx), Value::Bool(false));
    }

    #[test]
    fn all_instances_and_iterators() {
        let m = banking_pim();
        let ctx = Context::for_model(&m);
        assert_eq!(eval_str("Class.allInstances()->size()", &ctx), Value::Int(3));
        assert!(eval_str("Class.allInstances()->exists(c | c.name = 'Account')", &ctx)
            .as_bool()
            .unwrap());
        assert!(eval_str("Class.allInstances()->forAll(c | c.attributes->notEmpty())", &ctx)
            .as_bool()
            .unwrap());
        assert_eq!(
            eval_str(
                "Class.allInstances()->select(c | c.operations->isEmpty())->collect(x | x.name)",
                &ctx
            ),
            Value::Collection(vec![Value::Str("Customer".into())])
        );
        assert!(eval_str("Class.allInstances()->isUnique(c | c.name)", &ctx).as_bool().unwrap());
        assert_eq!(
            eval_str("Class.allInstances()->any(c | c.name = 'Bank').name", &ctx),
            Value::Str("Bank".into())
        );
        assert!(eval_str("Operation.allInstances()->one(o | o.name = 'transfer')", &ctx)
            .as_bool()
            .unwrap());
        assert_eq!(
            eval_str("Class.allInstances()->sortedBy(c | c.name)->first().name", &ctx),
            Value::Str("Account".into())
        );
    }

    #[test]
    fn collection_ops() {
        let m = banking_pim();
        let ctx = Context::for_model(&m);
        assert_eq!(eval_str("Class.allInstances()->collect(c | 1)->sum()", &ctx), Value::Int(3));
        assert_eq!(
            eval_str("Class.allInstances()->collect(c | c.name)->includes('Bank')", &ctx),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("Class.allInstances()->collect(c | c.name)->including('X')->count('X')", &ctx),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("Class.allInstances()->collect(c | c.owner.name)->asSet()->size()", &ctx),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("Class.allInstances()->collect(c | c.name)->at(1)", &ctx),
            Value::Str("Account".into())
        );
        assert!(matches!(
            err_str("Class.allInstances()->at(99)", &ctx),
            EvalError::IndexOutOfBounds { .. }
        ));
        assert_eq!(
            eval_str("Class.allInstances()->collect(c | c.attributes)->flatten()->size()", &ctx),
            Value::Int(5)
        );
    }

    #[test]
    fn string_methods() {
        let m = Model::new("m");
        let ctx = Context::for_model(&m);
        assert_eq!(eval_str("'hello'.size()", &ctx), Value::Int(5));
        assert_eq!(eval_str("'he'.concat('llo')", &ctx), Value::Str("hello".into()));
        assert_eq!(eval_str("'Ab'.toUpper()", &ctx), Value::Str("AB".into()));
        assert_eq!(eval_str("'Ab'.toLower()", &ctx), Value::Str("ab".into()));
        assert_eq!(eval_str("'hello'.contains('ell')", &ctx), Value::Bool(true));
        assert_eq!(eval_str("'hello'.startsWith('he')", &ctx), Value::Bool(true));
        assert_eq!(eval_str("'hello'.endsWith('lo')", &ctx), Value::Bool(true));
        assert_eq!(eval_str("'hello'.substring(2, 4)", &ctx), Value::Str("ell".into()));
        assert!(matches!(
            err_str("'hi'.substring(0, 1)", &ctx),
            EvalError::IndexOutOfBounds { .. }
        ));
    }

    #[test]
    fn stereotypes_and_tags() {
        let mut m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        m.apply_stereotype(bank, "Remote").unwrap();
        m.set_tag(bank, "node", "server-1").unwrap();
        let ctx = Context::for_element(&m, bank);
        assert_eq!(eval_str("self.hasStereotype('Remote')", &ctx), Value::Bool(true));
        assert_eq!(eval_str("self.hasStereotype('Nope')", &ctx), Value::Bool(false));
        assert_eq!(eval_str("self.taggedValue('node')", &ctx), Value::Str("server-1".into()));
        assert_eq!(eval_str("self.taggedValue('gone').oclIsUndefined()", &ctx), Value::Bool(true));
        assert_eq!(eval_str("self.stereotypes->includes('Remote')", &ctx), Value::Bool(true));
    }

    #[test]
    fn error_reporting() {
        let m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        let ctx = Context::for_element(&m, bank);
        assert!(matches!(err_str("self.noSuchProp", &ctx), EvalError::UnknownProperty { .. }));
        assert!(matches!(err_str("self.noSuchMethod()", &ctx), EvalError::UnknownMethod { .. }));
        assert!(matches!(err_str("1->size()", &ctx), EvalError::TypeMismatch { .. }));
        assert!(matches!(err_str("Gadget.allInstances()", &ctx), EvalError::UnknownType(_)));
        assert!(matches!(
            err_str("self.operations->bogus(x | true)", &ctx),
            EvalError::UnknownCollectionOp(_)
        ));
        assert!(matches!(err_str("'x'.substring(1)", &ctx), EvalError::ArgCount { .. }));
    }

    #[test]
    fn undefined_propagates_through_navigation() {
        let m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        let ctx = Context::for_element(&m, bank);
        // owner.owner is undefined; further navigation stays undefined.
        assert_eq!(eval_str("self.owner.owner.name.oclIsUndefined()", &ctx), Value::Bool(true));
    }

    #[test]
    fn iterator_variable_shadows_binding() {
        let m = banking_pim();
        let ctx = Context::for_model(&m).with_binding("c", Value::Int(99));
        // The iterator variable `c` shadows the outer binding inside the body.
        assert!(eval_str("Class.allInstances()->forAll(c | c.kind = 'Class')", &ctx)
            .as_bool()
            .unwrap());
        assert_eq!(eval_str("c", &ctx), Value::Int(99));
    }

    #[test]
    fn an_inner_variable_shadows_an_outer_one_only_inside_its_scope() {
        let m = banking_pim();
        let ctx = Context::for_model(&m);
        // After the inner `exists`, `x` is the outer class again.
        let nested = "Class.allInstances()->forAll(x | \
                      Operation.allInstances()->exists(x | x.kind = 'Operation') \
                      and x.kind = 'Class')";
        assert_eq!(eval_str(nested, &ctx), Value::Bool(true));
        assert_eq!(eval_str("let y = 1 in (let y = 2 in y * 10) + y", &ctx), Value::Int(21));
        let over_let = "let x = 5 in Class.allInstances()->forAll(x | x.kind = 'Class') and x = 5";
        assert_eq!(eval_str(over_let, &ctx), Value::Bool(true));
        assert_eq!(
            err_str("Class.allInstances()->forAll(x | true) and x = 1", &ctx),
            EvalError::UnknownVariable("x".into())
        );
    }
}
