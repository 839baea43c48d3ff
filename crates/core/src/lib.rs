//! # comet — Generic Concern-Oriented Model Transformations Meet AOP
//!
//! The core crate of **COMET**, a Rust reproduction of Silaghi &
//! Strohmeier's position paper (Middleware 2003 workshops). It implements
//! the paper's primary contribution — the MDA refinement lifecycle in
//! which every concern dimension is handled by a *generic model
//! transformation paired with a generic aspect*, both specialized by one
//! application-specific parameter set `Si`:
//!
//! ```text
//!   GMT_Ci --(Si)--> CMT_Ci     acts upon the model (concern space i)
//!     ⇅ 1–1                     (comet-transform)
//!   GA_Ci  --(Si)--> CA_Ci      acts upon the code (woven aspect)
//!                               (comet-aspectgen / comet-aop)
//! ```
//!
//! [`MdaLifecycle`] drives the whole life cycle: it owns the evolving
//! model, a versioned repository (undo/redo, Section 3), a guided
//! workflow, and the ordered list of applied `(CMT, CA)` pairs; aspect
//! precedence at code level follows the transformation application order
//! at model level, exactly as the paper prescribes. [`Wizard`] provides
//! the "concern-oriented wizard" configuration front-end; shipping
//! strategies answer the paper's packaging question both ways.
//!
//! ## Quickstart
//!
//! ```
//! use comet::{Backend, MdaLifecycle, Wizard};
//! use comet_codegen::BodyProvider;
//! use comet_concerns::transactions;
//! use comet_model::sample::banking_pim;
//! use comet_transform::{ParamSet, ParamValue};
//! use comet_workflow::WorkflowModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workflow = WorkflowModel::new("demo").step("transactions", false);
//! let mut mda = MdaLifecycle::new(banking_pim(), workflow)?;
//! let si = ParamSet::new().with(
//!     "methods",
//!     ParamValue::from(vec!["Bank.transfer".to_owned()]),
//! );
//! mda.apply_concern(&transactions::pair(), si)?;
//! let system = mda.generate(&BodyProvider::default(), Backend::JavaFunctional)?;
//! assert_eq!(system.aspect_sources.len(), 1);
//! assert!(system.woven().find_method("Bank", "transfer__functional").is_some());
//! assert!(system.artifact.contains("transfer__functional"));
//! # Ok(())
//! # }
//! ```

pub mod chaos;
mod lifecycle;
pub mod serve;
mod shipping;
mod wizard;

pub use chaos::{run_banking_chaos, run_banking_chaos_traced, ChaosConfig, ChaosReport, FtOrder};
pub use comet_gen::{Backend, GenInput};
pub use lifecycle::{AppliedConcern, GeneratedSystem, LifecycleError, MdaLifecycle};
pub use serve::{
    run_banking_serve, run_banking_serve_durable, serve_interaction_matrix, BankingFactory,
    BankingSession, KillPoint, SERVE_WORKFLOW,
};
pub use shipping::{ShippedPackage, ShippedStep, ShippingStrategy};
pub use wizard::{Question, QuestionKind, Wizard};
