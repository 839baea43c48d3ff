//! # comet-transform — generic concern-oriented model transformations
//!
//! This crate is the left-hand side of the paper's Fig. 1:
//!
//! * [`GenericTransformation`] — a GMT_Ci: a named, concern-scoped model
//!   transformation with a typed **parameter schema** and OCL pre- and
//!   postconditions, both *specialized* by a parameter set;
//! * [`ParamSet`] — the paper's `Si = Set(P_ik)`: the application-specific
//!   parameter values. **The same `ParamSet` also specializes the paired
//!   generic aspect** in `comet-aspectgen`, which is the paper's answer
//!   to the semantic-coupling problem;
//! * [`specialize`] / [`ConcreteTransformation`] — a CMT_Ci: the GMT
//!   closed over validated parameters, applied atomically with
//!   precondition checking, automatic concern "coloring" of created
//!   elements, well-formedness re-validation and postcondition checking
//!   (failures roll the model back).
//!
//! ## Example
//!
//! ```
//! use comet_model::sample::banking_pim;
//! use comet_transform::{
//!     specialize, ParamSchema, ParamSet, ParamValue, TransformationBuilder,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gmt = TransformationBuilder::new("mark-entities", "persistence")
//!     .schema(ParamSchema::new().string("stereotype", true, None))
//!     .precondition("Class.allInstances()->notEmpty()")
//!     .body(|model, params| {
//!         let stereo = params.str("stereotype")?.to_owned();
//!         for class in model.classes() {
//!             model.apply_stereotype(class, &stereo)?;
//!         }
//!         Ok(())
//!     })
//!     .build();
//! let si = ParamSet::new().with("stereotype", ParamValue::from("Entity"));
//! let cmt = specialize(gmt, si)?;
//! let mut model = banking_pim();
//! let report = cmt.apply(&mut model)?;
//! assert_eq!(report.modified.len(), 3);
//! # Ok(())
//! # }
//! ```

mod builder;
mod params;
mod transform;

pub use builder::{GenericTransformation, TransformationBuilder};
pub use params::{ParamError, ParamSchema, ParamSet, ParamSpec, ParamType, ParamValue};
pub use transform::{specialize, ConcreteTransformation, TransformError};
