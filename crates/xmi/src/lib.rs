//! # comet-xmi — XML infrastructure and XMI import/export
//!
//! Section 3 of the paper requires "support for importing/exporting
//! models in XMI format". This crate provides a dependency-free XML
//! reader ([`parse_xml`] into an [`XmlNode`] tree) and an
//! XMI-1.2-flavoured codec between `comet-model` models and XML
//! documents ([`export_model`], [`import_model`]). The export writes
//! each element's tags straight into its output buffer; it builds no
//! tree.
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
pub use xml::{parse_xml, XmlError, XmlNode};
