//! The labelled metrics snapshot: series keyed by name and label set,
//! plus the rolling good/bad window an SLO is judged over.
//!
//! A serving run records into fixed per-tenant meters and builds one
//! [`MetricsSnapshot`] from them at the end, in tenant-name order.
//! Every series carries its tenant's label, so no two tenants' series
//! collide and the snapshot does not depend on the shard count.

use std::collections::BTreeMap;

use crate::histogram::HistogramSnapshot;

/// A metric identity: name plus a label set sorted by label key, so
/// identical series compare equal regardless of declaration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Series name, e.g. `comet_serve_requests_total`.
    pub name: String,
    /// Label pairs, sorted by label key.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted by key for a canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// Render as `name` or `name{k="v",k2="v2"}` (Prometheus series
    /// syntax, also used as the JSON/table key).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::new();
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Rolling-window contents: `(cell_index, good, bad)` triples sorted
/// by cell index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowSnapshot {
    /// Cell width in sim µs.
    pub window_us: u64,
    /// Non-empty cells as `(index, good, bad)`, ascending by index.
    pub cells: Vec<(u64, u64, u64)>,
}

impl WindowSnapshot {
    /// An empty window of `window_us`-wide cells (min 1).
    pub fn new(window_us: u64) -> Self {
        WindowSnapshot { window_us: window_us.max(1), cells: Vec::new() }
    }

    /// Record one good/bad outcome at sim time `at_us`; the SimClock
    /// tick selects the cell, so cell boundaries are deterministic
    /// regardless of wall-clock scheduling.
    pub fn record(&mut self, at_us: u64, good: bool) {
        let index = at_us / self.window_us;
        let at = self.cells.binary_search_by_key(&index, |&(i, _, _)| i).unwrap_or_else(|at| {
            self.cells.insert(at, (index, 0, 0));
            at
        });
        let cell = &mut self.cells[at];
        if good {
            cell.1 += 1;
        } else {
            cell.2 += 1;
        }
    }

    /// Total `(good, bad)` across all cells.
    pub fn totals(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(g, b), &(_, cg, cb)| (g + cg, b + cb))
    }
}

/// An immutable snapshot of a run's metrics. All maps are keyed by
/// [`MetricKey`] (a `BTreeMap`), so iteration order — and therefore
/// every exporter's output — is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Histogram series.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
    /// Rolling-window series.
    pub windows: BTreeMap<MetricKey, WindowSnapshot>,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_order_is_canonical() {
        let a = MetricKey::new("req", &[("tenant", "t0"), ("kind", "apply")]);
        let b = MetricKey::new("req", &[("kind", "apply"), ("tenant", "t0")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "req{kind=\"apply\",tenant=\"t0\"}");
        assert_eq!(MetricKey::new("x", &[("v", "a\"b\\c\n")]).render(), "x{v=\"a\\\"b\\\\c\\n\"}");
    }

    #[test]
    fn window_cells_are_sorted_by_sim_time() {
        let mut w = WindowSnapshot::new(50);
        for (at, good) in [(120, true), (10, false), (49, true), (130, false), (50, true)] {
            w.record(at, good);
        }
        assert_eq!(w.cells, vec![(0, 1, 1), (1, 1, 0), (2, 1, 1)]);
        assert_eq!(w.totals(), (3, 2));
        assert_eq!(WindowSnapshot::new(0).window_us, 1, "a zero width would divide by zero");
    }
}
