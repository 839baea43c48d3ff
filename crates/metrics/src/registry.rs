//! The metrics registry: named counters, gauges, histograms and
//! rolling windows behind cheap integer handles.
//!
//! A registry is single-owner (each `TenantScheduler` holds its own);
//! cross-shard aggregation happens by merging the immutable
//! [`MetricsSnapshot`]s in tenant-name order, which keeps the merged
//! result independent of shard/thread count.

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

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(u32);
/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(u32);
/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(u32);
/// Handle to a registered rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowHandle(u32);

const NO_SLOT: u32 = u32::MAX;

/// A registry of metric instruments. Disabled registries hand out
/// inert handles and every record call is a single branch, mirroring
/// `comet_obs::Collector`'s enabled/disabled split.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<u64>,
    counter_index: BTreeMap<MetricKey, u32>,
    gauges: Vec<i64>,
    gauge_index: BTreeMap<MetricKey, u32>,
    histograms: Vec<HistogramSnapshot>,
    histogram_index: BTreeMap<MetricKey, u32>,
    windows: Vec<WindowSnapshot>,
    window_index: BTreeMap<MetricKey, u32>,
}

impl MetricsRegistry {
    /// A recording registry.
    pub fn enabled() -> Self {
        MetricsRegistry { enabled: true, ..Default::default() }
    }

    /// A no-op registry: registration returns inert handles, record
    /// calls are single-branch no-ops.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register (or look up) a counter series.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        if !self.enabled {
            return CounterHandle(NO_SLOT);
        }
        let key = MetricKey::new(name, labels);
        if let Some(&slot) = self.counter_index.get(&key) {
            return CounterHandle(slot);
        }
        let slot = self.counters.len() as u32;
        self.counters.push(0);
        self.counter_index.insert(key, slot);
        CounterHandle(slot)
    }

    /// Increment a counter.
    pub fn add(&mut self, h: CounterHandle, by: u64) {
        if h.0 != NO_SLOT {
            self.counters[h.0 as usize] += by;
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        if !self.enabled {
            return GaugeHandle(NO_SLOT);
        }
        let key = MetricKey::new(name, labels);
        if let Some(&slot) = self.gauge_index.get(&key) {
            return GaugeHandle(slot);
        }
        let slot = self.gauges.len() as u32;
        self.gauges.push(0);
        self.gauge_index.insert(key, slot);
        GaugeHandle(slot)
    }

    /// Set a gauge to an absolute value.
    pub fn set(&mut self, h: GaugeHandle, v: i64) {
        if h.0 != NO_SLOT {
            self.gauges[h.0 as usize] = v;
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        if !self.enabled {
            return HistogramHandle(NO_SLOT);
        }
        let key = MetricKey::new(name, labels);
        if let Some(&slot) = self.histogram_index.get(&key) {
            return HistogramHandle(slot);
        }
        let slot = self.histograms.len() as u32;
        self.histograms.push(HistogramSnapshot::default());
        self.histogram_index.insert(key, slot);
        HistogramHandle(slot)
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, h: HistogramHandle, v: u64) {
        if h.0 != NO_SLOT {
            self.histograms[h.0 as usize].observe(v);
        }
    }

    /// Register (or look up) a rolling good/bad window keyed by sim
    /// time; `window_us` is the cell width (min 1).
    pub fn window(&mut self, name: &str, labels: &[(&str, &str)], window_us: u64) -> WindowHandle {
        if !self.enabled {
            return WindowHandle(NO_SLOT);
        }
        let key = MetricKey::new(name, labels);
        if let Some(&slot) = self.window_index.get(&key) {
            return WindowHandle(slot);
        }
        let slot = self.windows.len() as u32;
        self.windows.push(WindowSnapshot { window_us: window_us.max(1), cells: Vec::new() });
        self.window_index.insert(key, slot);
        WindowHandle(slot)
    }

    /// Record one good/bad outcome at sim time `at_us`; the SimClock
    /// tick selects the window cell, so cell boundaries are
    /// deterministic regardless of wall-clock scheduling.
    pub fn record_window(&mut self, h: WindowHandle, at_us: u64, good: bool) {
        if h.0 == NO_SLOT {
            return;
        }
        let w = &mut self.windows[h.0 as usize];
        let index = at_us / w.window_us;
        let at = w.cells.binary_search_by_key(&index, |&(i, _, _)| i).unwrap_or_else(|at| {
            w.cells.insert(at, (index, 0, 0));
            at
        });
        let cell = &mut w.cells[at];
        if good {
            cell.1 += 1;
        } else {
            cell.2 += 1;
        }
    }

    /// Freeze every instrument into an immutable, mergeable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters =
            self.counter_index.iter().map(|(k, &s)| (k.clone(), self.counters[s as usize]));
        let gauges = self.gauge_index.iter().map(|(k, &s)| (k.clone(), self.gauges[s as usize]));
        let histograms = self
            .histogram_index
            .iter()
            .map(|(k, &s)| (k.clone(), self.histograms[s as usize].clone()));
        let windows =
            self.window_index.iter().map(|(k, &s)| (k.clone(), self.windows[s as usize].clone()));
        MetricsSnapshot {
            counters: counters.collect(),
            gauges: gauges.collect(),
            histograms: histograms.collect(),
            windows: windows.collect(),
        }
    }
}

/// Rolling-window contents: `(cell_index, good, bad)` triples sorted
/// by cell index. The registry records into it directly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowSnapshot {
    /// Cell width in sim µs.
    pub window_us: u64,
    /// Non-empty cells as `(index, good, bad)`, ascending by index.
    pub cells: Vec<(u64, u64, u64)>,
}

impl WindowSnapshot {
    /// Total `(good, bad)` across all cells.
    pub fn totals(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(g, b), &(_, cg, cb)| (g + cg, b + cb))
    }

    /// Merge another window into this one (cell-wise addition).
    pub fn merge(&mut self, other: &WindowSnapshot) {
        if other.cells.is_empty() {
            return;
        }
        if self.cells.is_empty() {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.window_us, other.window_us, "merging windows of different width");
        let mut cells: BTreeMap<u64, (u64, u64)> =
            self.cells.iter().map(|&(i, g, b)| (i, (g, b))).collect();
        for &(i, g, b) in &other.cells {
            let c = cells.entry(i).or_insert((0, 0));
            c.0 += g;
            c.1 += b;
        }
        self.cells = cells.into_iter().map(|(i, (g, b))| (i, g, b)).collect();
    }
}

/// An immutable snapshot of a whole registry. All maps are keyed by
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
    /// True when no series were ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.windows.is_empty()
    }

    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms and windows merge bucket/cell-wise. Associative and
    /// commutative, so per-tenant snapshots can be folded in
    /// tenant-name order regardless of which shard produced them.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.windows {
            self.windows.entry(k.clone()).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let mut r = MetricsRegistry::disabled();
        let c = r.counter("x_total", &[]);
        let h = r.histogram("x_us", &[]);
        let w = r.window("x_win", &[], 100);
        r.add(c, 5);
        r.observe(h, 42);
        r.record_window(w, 10, true);
        assert!(!r.is_enabled());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn registration_is_idempotent_and_label_order_is_canonical() {
        let mut r = MetricsRegistry::enabled();
        let a = r.counter("req", &[("tenant", "t0"), ("kind", "apply")]);
        let b = r.counter("req", &[("kind", "apply"), ("tenant", "t0")]);
        assert_eq!(a, b);
        r.add(a, 1);
        r.add(b, 2);
        let snap = r.snapshot();
        let key = MetricKey::new("req", &[("kind", "apply"), ("tenant", "t0")]);
        assert_eq!(snap.counters.get(&key), Some(&3));
        assert_eq!(key.render(), "req{kind=\"apply\",tenant=\"t0\"}");
    }

    #[test]
    fn snapshot_merge_folds_counters_histograms_and_windows() {
        let mut a = MetricsRegistry::enabled();
        let mut b = MetricsRegistry::enabled();
        for (r, vals) in [(&mut a, [10u64, 20]), (&mut b, [30u64, 40])] {
            let c = r.counter("n_total", &[]);
            let h = r.histogram("lat_us", &[]);
            let w = r.window("slo", &[], 50);
            for v in vals {
                r.add(c, 1);
                r.observe(h, v);
                r.record_window(w, v, v < 35);
            }
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        let key = |n| MetricKey::new(n, &[]);
        assert_eq!(m.counters[&key("n_total")], 4);
        let h = &m.histograms[&key("lat_us")];
        assert_eq!((h.count, h.min, h.max), (4, 10, 40));
        assert_eq!(m.windows[&key("slo")].totals(), (3, 1));
    }
}
