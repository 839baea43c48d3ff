//! # comet-model — UML-like metamodel for COMET
//!
//! This crate implements the modeling substrate assumed by the paper
//! *Generic Concern-Oriented Model Transformations Meet AOP* (Silaghi &
//! Strohmeier, 2003): a UML-class-diagram-flavoured metamodel with
//! packages, classes, interfaces, attributes, operations, associations,
//! generalizations, enumerations, stereotypes, tagged values, and
//! attached constraints.
//!
//! Models are element arenas addressed by [`ElementId`]; iteration order
//! is deterministic (a `BTreeMap` keyed by id). All model data is
//! plain owned data (`Clone` + `PartialEq`) so the repository crate can snapshot, hash and
//! diff models structurally.
//!
//! ## Example
//!
//! ```
//! use comet_model::{Model, Primitive, TypeRef, Visibility};
//!
//! let mut m = Model::new("bank");
//! let pkg = m.root();
//! let account = m.add_class(pkg, "Account").unwrap();
//! let balance = m
//!     .add_attribute(account, "balance", TypeRef::Primitive(Primitive::Int))
//!     .unwrap();
//! m.element_mut(balance).unwrap().core_mut().visibility = Visibility::Private;
//! let op = m.add_operation(account, "deposit").unwrap();
//! m.add_parameter(op, "amount", TypeRef::Primitive(Primitive::Int)).unwrap();
//! assert_eq!(m.qualified_name(account).unwrap(), "bank::Account");
//! assert!(m.validate().is_ok());
//! ```

mod builder;
mod delta;
mod element;
mod error;
mod fragment;
mod id;
mod index;
mod journal;
mod kinds;
mod model;
mod query;
pub mod sample;
mod validate;

pub use builder::{ClassBuilder, ModelBuilder, OperationBuilder};
pub use delta::ModelDelta;
pub use element::{Element, ElementCore, ElementKind};
pub use error::{ModelError, Result};
pub use id::ElementId;
pub use journal::UndoLog;
pub use kinds::{
    AggregationKind, AssociationData, AssociationEnd, AttributeData, ClassData, ConstraintData,
    DataTypeData, DependencyData, Direction, EnumerationData, GeneralizationData, InterfaceData,
    Multiplicity, OperationData, PackageData, ParameterData, Primitive, TagValue, TypeRef,
    Visibility,
};
pub use model::Model;
pub use validate::{Violation, ViolationKind};

/// Tag key under which an element records the concern that introduced it.
///
/// This is the "color" of Section 3 of the paper: visual tools should be
/// able to demarcate model parts added by different concrete
/// transformations. [`Model::mark_concern`] and [`Model::concern_of`] read
/// and write this tag.
pub const CONCERN_TAG: &str = "comet.concern";
