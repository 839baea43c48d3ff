//! SLO policies and burn-rate verdicts.
//!
//! A policy names a latency percentile target and an error budget;
//! evaluation is pure integer arithmetic over a latency histogram and
//! a rolling good/bad window, so the verdict for a tenant is a
//! function of its snapshot alone — byte-identical at any shard count.

use std::collections::BTreeMap;
use std::fmt;

use crate::histogram::HistogramSnapshot;
use crate::snapshot::WindowSnapshot;

/// An SLO policy parsed from the workload plan's `[slo]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Latency percentile the target applies to (0 < p ≤ 100).
    pub percentile: f64,
    /// Default per-tenant latency target in sim µs.
    pub target_us: u64,
    /// Allowed bad-request fraction (error budget), 0 < b ≤ 1.
    pub error_budget: f64,
    /// Burn-rate window width in sim µs.
    pub window_us: u64,
    /// Per-tenant target overrides from `[slo.tenants]`.
    pub tenant_targets: BTreeMap<String, u64>,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            percentile: 99.0,
            target_us: 50_000,
            error_budget: 0.01,
            window_us: 1_000_000,
            tenant_targets: BTreeMap::new(),
        }
    }
}

impl SloPolicy {
    /// The latency target for `tenant` (override or default).
    pub fn target_for(&self, tenant: &str) -> u64 {
        self.tenant_targets.get(tenant).copied().unwrap_or(self.target_us)
    }

    /// Error budget as integer parts-per-million (min 1, so burn
    /// rates never divide by zero).
    fn budget_ppm(&self) -> u64 {
        ((self.error_budget * 1_000_000.0).round() as u64).max(1)
    }

    /// Evaluate one tenant's latency histogram and rolling window
    /// into a verdict. Integer math throughout: the burn rate is the
    /// worst per-window bad fraction divided by the budget, in
    /// milli-units (1000 = burning exactly the budget).
    pub fn evaluate(
        &self,
        tenant: &str,
        latency: &HistogramSnapshot,
        window: Option<&WindowSnapshot>,
    ) -> SloVerdict {
        let target_us = self.target_for(tenant);
        let observed_us = latency.percentile(self.percentile);
        let budget_ppm = self.budget_ppm() as u128;
        let (mut total, mut bad, mut max_burn_milli) = (0u64, 0u64, 0u64);
        if let Some(w) = window {
            for &(_, g, b) in &w.cells {
                let n = g + b;
                total += n;
                bad += b;
                if n > 0 {
                    let frac_ppm = (b as u128) * 1_000_000 / (n as u128);
                    let burn = (frac_ppm * 1000 / budget_ppm) as u64;
                    max_burn_milli = max_burn_milli.max(burn);
                }
            }
        }
        let breached = observed_us > target_us || max_burn_milli >= 1000;
        SloVerdict {
            tenant: tenant.to_string(),
            percentile: self.percentile,
            observed_us,
            target_us,
            total,
            bad,
            max_burn_milli,
            breached,
        }
    }
}

/// The outcome of evaluating an [`SloPolicy`] for one tenant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloVerdict {
    /// Tenant the verdict applies to.
    pub tenant: String,
    /// Percentile that was evaluated.
    pub percentile: f64,
    /// Observed latency at that percentile (bucket upper bound, µs).
    pub observed_us: u64,
    /// The target the tenant was held to (µs).
    pub target_us: u64,
    /// Requests counted by the rolling window.
    pub total: u64,
    /// Bad requests (errors, rejections, sheds, latency misses).
    pub bad: u64,
    /// Worst per-window burn rate in milli-units (1000 = 1.0×).
    pub max_burn_milli: u64,
    /// True when the latency target or the error budget was violated.
    pub breached: bool,
}

impl fmt::Display for SloVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slo {}: p{:.1} {}µs (target {}µs) bad {}/{} burn {}.{:03}x {}",
            self.tenant,
            self.percentile,
            self.observed_us,
            self.target_us,
            self.bad,
            self.total,
            self.max_burn_milli / 1000,
            self.max_burn_milli % 1000,
            if self.breached { "BREACH" } else { "ok" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn latency_target_breach_is_detected() {
        let policy = SloPolicy { percentile: 50.0, target_us: 100, ..Default::default() };
        let ok = policy.evaluate("t00", &hist(&[10, 20, 30]), None);
        assert!(!ok.breached, "{ok}");
        let bad = policy.evaluate("t00", &hist(&[500, 600, 700]), None);
        assert!(bad.breached, "{bad}");
        assert!(bad.observed_us > 100);
    }

    #[test]
    fn burn_rate_uses_the_worst_window() {
        let policy = SloPolicy { error_budget: 0.10, target_us: u64::MAX, ..Default::default() };
        // window 0: 1 bad of 10 (burn 1.0x) — window 1: 5 bad of 10 (burn 5.0x)
        let w = WindowSnapshot { window_us: 100, cells: vec![(0, 9, 1), (1, 5, 5)] };
        let v = policy.evaluate("t00", &hist(&[1]), Some(&w));
        assert_eq!(v.max_burn_milli, 5000);
        assert_eq!((v.total, v.bad), (20, 6));
        assert!(v.breached);
    }

    #[test]
    fn tenant_overrides_take_precedence() {
        let mut policy = SloPolicy { target_us: 1000, ..Default::default() };
        policy.tenant_targets.insert("t01".into(), 10);
        assert_eq!(policy.target_for("t00"), 1000);
        assert_eq!(policy.target_for("t01"), 10);
    }
}
