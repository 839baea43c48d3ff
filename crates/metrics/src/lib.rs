//! # comet-metrics — deterministic serve-time metrics
//!
//! The serving stack (comet-serve) is deterministic by construction:
//! same seed + same plan ⇒ byte-identical report and trace at any
//! shard/thread count. This crate extends that contract to aggregate
//! telemetry. Everything here is *exact*:
//!
//! * [`HistogramSnapshot`] — fixed-bucket log-linear latency
//!   histograms (16 linear sub-buckets per power of two, relative
//!   error ≤ 1/16), storing only their non-empty buckets.
//!   No HDR-style auto-resizing, no DDSketch-style probabilistic
//!   collapse: every observation lands in one statically determined
//!   bucket via integer arithmetic, so bucket counts — and therefore
//!   snapshots, percentiles and SLO verdicts — are byte-identical
//!   across runs and shard counts.
//! * [`MetricsSnapshot`] — the labelled view of a run: counters,
//!   histograms and rolling good/bad windows ([`WindowSnapshot`])
//!   keyed by [`MetricKey`], with two exporters: Prometheus text
//!   exposition and JSON through the shared `comet_obs::JsonValue`
//!   writer. There is no registry: comet-serve records each tenant
//!   into fixed meters (plain fields indexed by request kind, held as
//!   an `Option`, so the metrics-off path is one branch) and labels
//!   them into one snapshot per run, in tenant-name order.
//! * [`SloPolicy`] / [`SloVerdict`] — per-tenant latency-percentile
//!   targets and error budgets evaluated into burn rates with pure
//!   integer math (milli-units, ppm budgets).
//!
//! Rolling windows are driven by the middleware `SimClock` (sim µs),
//! not wall time, so window cell boundaries are part of the
//! deterministic replay too.

#![warn(missing_docs)]

mod export;
mod histogram;
mod slo;
mod snapshot;

pub use histogram::{bucket_index, bucket_upper, HistogramSnapshot, NUM_BUCKETS};
pub use slo::{SloPolicy, SloVerdict};
pub use snapshot::{MetricKey, MetricsSnapshot, WindowSnapshot};
