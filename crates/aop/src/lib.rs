//! # comet-aop — aspect-oriented programming over the code IR
//!
//! The paper pairs every concrete model transformation with a concrete
//! *aspect* that implements the concern at code level. AspectJ (the
//! paper's reference implementation substrate) is not available in Rust,
//! so this crate implements the join-point/pointcut/advice model as a
//! **source-level weaver over the `comet-codegen` IR**:
//!
//! * **Join points**: method executions, plus statement-position method
//!   calls (for `call(...)` pointcuts with before/after advice).
//! * **Pointcuts**: a small language with `execution(Type.method)`,
//!   `call(Type.method)`, `within(Type)`, `@class(Ann)`,
//!   `@method(Ann)`, `args(n)`, `*` wildcards, and `&&`/`||`/`!`.
//! * **Advice**: `before`, `after` (finally), `afterReturning`,
//!   `afterThrowing`, and `around` with `proceed(...)`.
//! * **Precedence**: aspects are woven in list order; earlier aspects are
//!   *outer* — exactly the paper's rule that the order of concrete model
//!   transformations dictates aspect precedence at code level.
//!
//! ## Example
//!
//! ```
//! use comet_aop::{Advice, AdviceKind, Aspect, Weaver, parse_pointcut};
//! use comet_codegen::{Block, Expr, Stmt, Program, ClassDecl, MethodDecl};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut program = Program::new("app");
//! let mut class = ClassDecl::new("Account");
//! class.methods.push(MethodDecl::new("deposit"));
//! program.classes.push(class);
//!
//! let logging = Aspect::new("logging").with_advice(Advice::new(
//!     AdviceKind::Before,
//!     parse_pointcut("execution(Account.*)")?,
//!     Block::of(vec![Stmt::Expr(Expr::intrinsic(
//!         "log.emit",
//!         vec![Expr::str("info"), Expr::var("__jp")],
//!     ))]),
//! ));
//! let woven = Weaver::new(vec![logging]).weave(&program)?;
//! assert_eq!(woven.trace.len(), 1);
//! # Ok(())
//! # }
//! ```

mod advice;
mod index;
mod metrics;
mod pattern;
mod pointcut;
mod weaver;

pub use advice::{Advice, AdviceKind, Aspect};
pub use metrics::{concern_metrics, ConcernMetrics, MetricsReport};
pub use pattern::NamePattern;
pub use pointcut::{parse_pointcut, Pointcut, PointcutParseError};
pub use weaver::{Shadow, WeaveError, WeaveResult, Weaver, WovenJoinPoint, PARALLEL_MIN_CLASSES};
