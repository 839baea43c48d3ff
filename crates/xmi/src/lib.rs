//! # comet-xmi — XML infrastructure and XMI import/export
//!
//! Section 3 of the paper requires "support for importing/exporting
//! models in XMI format". This crate provides an XMI-1.2-flavoured
//! codec between `comet-model` models and XML documents
//! ([`export_model`], [`import_model`]) over a dependency-free XML
//! writer and pull reader. Neither direction builds a document tree:
//! the export writes each element's tags straight into its buffer, and
//! the import builds each element from the reader's events in one pass.
//!
//! Round-trip fidelity (`import(export(m)) == m`) is the contract, and
//! is property-tested in the crate's test suite.
//!
//! ## Example
//!
//! ```
//! use comet_model::sample::banking_pim;
//! use comet_xmi::{export_model, import_model};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = banking_pim();
//! let xml = export_model(&model);
//! assert!(xml.contains("XMI.content"));
//! let back = import_model(&xml)?;
//! assert_eq!(model, back);
//! # Ok(())
//! # }
//! ```

mod codec;
mod xml;

pub use codec::{export_model, import_model, XmiError};
pub use xml::XmlError;
