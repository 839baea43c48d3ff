//! # comet-aspectgen — generic aspects and aspect generators
//!
//! The right-hand side of the paper's Fig. 1, and its central claim:
//!
//! > *each model transformation (generic or concrete) has associated an
//! > aspect (generic or concrete, respectively) ... the set of parameters
//! > `Si`, used to specialize the generic model transformation, could be
//! > used to specialize the corresponding generic aspect as well, thus
//! > overcoming the problem of semantic coupling.*
//!
//! * [`GenericAspect`] — a GA_Ci: a parameterized aspect template whose
//!   schema matches the paired transformation's;
//! * [`ConcernPair`] — the 1–1 GMT⇄GA association; its
//!   [`specialize`](ConcernPair::specialize) hands **one** `Si` to both
//!   sides and returns the `(CMT_Ci, CA_Ci)` pair;
//! * [`AspectBuilder`] — closure-based GA construction;
//! * [`AspectJBackend`] — the paper's "aspect generator plug-ins for
//!   specific technology platforms", for its one platform: renders a
//!   concrete aspect as AspectJ-flavoured source text; actual execution
//!   weaves the IR via `comet-aop`.

mod backend;
mod generic;
mod pair;

pub use backend::AspectJBackend;
pub use generic::{AspectBuilder, AspectGenError, GenericAspect};
pub use pair::ConcernPair;
