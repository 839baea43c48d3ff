//! # comet-obs — tracing and provenance for the COMET pipeline
//!
//! The paper's two load-bearing claims — "the order in which CMTs were
//! applied at model level dictates the precedence of the CAs at code
//! level" (§3) and that the parameter set `Si` carries the
//! application-specific knowledge that specializes a generic concern —
//! are asserted by the test suite but were not *observable*: nothing
//! could answer "which concern, specialized by which `Si`, produced
//! this model element / this woven advice / this runtime retry?".
//!
//! This crate closes that gap with a zero-cost-when-disabled
//! observability layer threaded through every pipeline stage:
//!
//! * [`Collector`] — hierarchical [`Span`]s, typed [`Event`]s and
//!   monotonic counters. [`Collector::disabled`] is the default and its
//!   hot-path cost is a single branch (the same inert-fast-path design
//!   as the middleware's `FaultInjector`), proven by `bench_obs_json`.
//! * [`Trace`] — the recorded data, with three hand-rolled exporters:
//!   Chrome trace-event JSON ([`Trace::to_chrome_json`], loadable in
//!   `chrome://tracing` / Perfetto), a per-span self-time profile table
//!   ([`Trace::to_profile`]) and a compact text tree for CI golden
//!   tests ([`Trace::to_text_tree`]).
//! * [`ProvenanceIndex`] — derivable from any trace: for each model
//!   element or woven statement, the chain
//!   `concern → CMT(Si) → advice → runtime events`, queryable via
//!   `comet-cli provenance <element>`.
//! * [`fnv1a64`] / [`fnv1a64_extend`] — the workspace's one content
//!   hash, kept here because this crate is the dependency-free leaf.
//!
//! ## Determinism contract
//!
//! Every record is stamped with a logical **sequence tick** and the
//! caller-supplied **sim time** (the middleware `SimClock`, µs). Chrome
//! timestamps are the ticks — they are total-ordered and make spans
//! nest strictly — and sim time rides along in `args`. Wall-clock
//! duration is also captured per span, but only the profile exporter
//! reads it: the Chrome JSON and the text tree are pure functions of
//! the recorded call sequence, so *same seed + same fault plan ⇒
//! byte-identical trace* (the chaos suite asserts exactly that).
//!
//! ## Example
//!
//! ```
//! use comet_obs::Collector;
//!
//! let obs = Collector::enabled();
//! let run = obs.begin_span("lifecycle", "concern:distribution", 0);
//! obs.span_attr(run, "si", "<node=server>");
//! obs.event("transform", "model.created", 0, vec![("element".into(), "Proxy".into())]);
//! obs.incr("intrinsic.net", 1);
//! obs.end_span(run, 0);
//! let trace = obs.take();
//! assert_eq!(trace.spans.len(), 1);
//! assert!(trace.to_chrome_json().contains("concern:distribution"));
//!
//! // Disabled: one branch, nothing recorded.
//! let off = Collector::disabled();
//! let s = off.begin_span("lifecycle", "ignored", 0);
//! off.end_span(s, 0);
//! assert!(off.take().is_empty());
//! ```

mod collector;
mod export;
mod hash;
mod json;
mod provenance;

pub use collector::{Collector, Event, Span, SpanId, Trace, TraceMark};
pub use hash::{fnv1a64, fnv1a64_extend};
pub use json::{escape as json_escape, JsonValue};
pub use provenance::{AdviceEntry, ModelEntry, ProvenanceIndex, ProvenanceReport, RuntimeEntry};
