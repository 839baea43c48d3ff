//! # comet-ocl — OCL-like constraint language over COMET models
//!
//! The paper requires pre- and postconditions on model transformations,
//! "expressed in a dedicated constraint language appropriate for the
//! models (in the case of UML, OCL is the obvious choice)". This crate
//! implements a pragmatic OCL subset evaluated over `comet-model` models:
//!
//! * literals, arithmetic, comparison, boolean logic (`and`, `or`, `xor`,
//!   `not`, `implies`)
//! * `let ... in ...`, `if ... then ... else ... endif`
//! * metamodel navigation on elements (`self.name`, `self.operations`,
//!   `self.owner`, ...)
//! * collection iterators via arrow syntax: `->forAll(x | ...)`,
//!   `->exists`, `->select`, `->reject`, `->collect`, `->size`,
//!   `->isEmpty`, `->notEmpty`, `->includes`, `->including`, `->count`,
//!   `->sum`, `->first`, `->at`, `->asSet`, `->any`, `->one`,
//!   `->isUnique`
//! * type-level queries: `Class.allInstances()`,
//!   `self.oclIsKindOf(Class)`, `hasStereotype('Remote')`,
//!   `taggedValue('key')`
//!
//! ## Example
//!
//! ```
//! use comet_model::sample::banking_pim;
//! use comet_ocl::{evaluate_bool, Context};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = banking_pim();
//! let ctx = Context::for_model(&model);
//! assert!(evaluate_bool("Class.allInstances()->exists(c | c.name = 'Bank')", &ctx)?);
//! assert!(evaluate_bool(
//!     "Class.allInstances()->forAll(c | c.attributes->size() >= 0)",
//!     &ctx,
//! )?);
//! # Ok(())
//! # }
//! ```

mod ast;
mod eval;
mod lexer;
mod parser;
mod value;

pub use ast::{BinOp, Expr, UnOp};
pub use eval::{evaluate as evaluate_expr, Context, EvalError};
pub use lexer::{LexError, Token, TokenKind};
pub use parser::{parse, ParseError, MAX_DEPTH};
pub use value::Value;

/// Parses and evaluates an expression in the given context.
///
/// # Errors
/// Returns [`OclError`] on lexing, parsing or evaluation failure.
pub fn evaluate(source: &str, ctx: &Context<'_>) -> Result<Value, OclError> {
    let expr = parse(source)?;
    Ok(eval::evaluate(&expr, ctx)?)
}

/// Parses and evaluates an expression, requiring a boolean result.
///
/// # Errors
/// Returns [`OclError`] on failure or when the result is not a boolean.
pub fn evaluate_bool(source: &str, ctx: &Context<'_>) -> Result<bool, OclError> {
    match evaluate(source, ctx)? {
        Value::Bool(b) => Ok(b),
        other => Err(OclError::Eval(EvalError::TypeMismatch {
            expected: "Boolean",
            found: other.type_name(),
            context: "top-level constraint".into(),
        })),
    }
}

/// Outcome of checking one attached model constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintOutcome {
    /// The constraint evaluated to `true`.
    Holds,
    /// The constraint evaluated to `false`.
    Violated,
    /// The constraint could not be decided at model level — typically an
    /// instance-level invariant (e.g. `self.balance >= 0`) whose slots
    /// only exist at run time. The message explains why.
    Undecidable(String),
}

/// Evaluates every [`Constraint`](comet_model::ElementKind::Constraint)
/// element attached anywhere in the model, with `self` bound to the
/// constrained element. Returns `(constraint id, constraint name,
/// outcome)` triples in id order.
pub fn check_model_constraints(
    model: &comet_model::Model,
) -> Vec<(comet_model::ElementId, String, ConstraintOutcome)> {
    let mut out = Vec::new();
    for element in model.iter() {
        let Some(data) = element.as_constraint() else { continue };
        let ctx = Context::for_element(model, data.constrained);
        let outcome = match evaluate(&data.body, &ctx) {
            Ok(Value::Bool(true)) => ConstraintOutcome::Holds,
            Ok(Value::Bool(false)) => ConstraintOutcome::Violated,
            Ok(other) => ConstraintOutcome::Undecidable(format!(
                "evaluated to {} instead of a boolean",
                other.type_name()
            )),
            Err(e) => ConstraintOutcome::Undecidable(e.to_string()),
        };
        out.push((element.id(), element.name().to_owned(), outcome));
    }
    out
}

/// Umbrella error for the full parse-and-evaluate pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OclError {
    /// Lexing failed.
    Lex(LexError),
    /// Parsing failed.
    Parse(ParseError),
    /// Evaluation failed.
    Eval(EvalError),
}

impl std::fmt::Display for OclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OclError::Lex(e) => write!(f, "lex error: {e}"),
            OclError::Parse(e) => write!(f, "parse error: {e}"),
            OclError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for OclError {}

impl From<LexError> for OclError {
    fn from(e: LexError) -> Self {
        OclError::Lex(e)
    }
}

impl From<ParseError> for OclError {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Lex(l) => OclError::Lex(l),
            other => OclError::Parse(other),
        }
    }
}

impl From<EvalError> for OclError {
    fn from(e: EvalError) -> Self {
        OclError::Eval(e)
    }
}
