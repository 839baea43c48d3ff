//! Snapshot exporters: Prometheus text exposition and JSON (through the
//! shared `comet_obs::JsonValue` writer).
//!
//! Both iterate the snapshot's `BTreeMap`s, so output is sorted
//! by series name and label set — a pure function of the snapshot.

use std::fmt::Write as _;

use comet_obs::JsonValue;

use crate::histogram::HistogramSnapshot;
use crate::snapshot::{MetricKey, MetricsSnapshot, WindowSnapshot};

fn type_header(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = name.to_string();
    }
}

/// `name{labels,extra}` with one extra label appended in sorted order.
fn series_with(key: &MetricKey, extra_key: &str, extra_val: &str) -> String {
    let mut labels: Vec<(&str, &str)> =
        key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    labels.push((extra_key, extra_val));
    labels.sort();
    let mut k = MetricKey { name: key.name.clone(), labels: Vec::new() };
    k.labels = labels.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
    k.render()
}

impl MetricsSnapshot {
    /// Prometheus text exposition format (v0.0.4): `# TYPE` headers,
    /// one series per line, histograms as cumulative `_bucket{le=}`
    /// series plus `_sum`/`_count`, windows flattened to good/bad
    /// counters. Sorted and deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = String::new();
        for (key, v) in &self.counters {
            type_header(&mut out, &mut last, &key.name, "counter");
            let _ = writeln!(out, "{} {}", key.render(), v);
        }
        for (key, v) in &self.gauges {
            type_header(&mut out, &mut last, &key.name, "gauge");
            let _ = writeln!(out, "{} {}", key.render(), v);
        }
        for (key, h) in &self.histograms {
            type_header(&mut out, &mut last, &key.name, "histogram");
            let bucket_key =
                MetricKey { name: format!("{}_bucket", key.name), labels: key.labels.clone() };
            let mut cumulative = 0u64;
            for &(upper, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_with(&bucket_key, "le", &upper.to_string()),
                    cumulative
                );
            }
            let _ = writeln!(out, "{} {}", series_with(&bucket_key, "le", "+Inf"), h.count);
            let mut sum_key = key.clone();
            sum_key.name = format!("{}_sum", key.name);
            let _ = writeln!(out, "{} {}", sum_key.render(), h.sum);
            sum_key.name = format!("{}_count", key.name);
            let _ = writeln!(out, "{} {}", sum_key.render(), h.count);
        }
        for (key, w) in &self.windows {
            let (good, bad) = w.totals();
            let mut k = key.clone();
            k.name = format!("{}_good_total", key.name);
            type_header(&mut out, &mut last, &k.name, "counter");
            let _ = writeln!(out, "{} {}", k.render(), good);
            k.name = format!("{}_bad_total", key.name);
            type_header(&mut out, &mut last, &k.name, "counter");
            let _ = writeln!(out, "{} {}", k.render(), bad);
        }
        out
    }

    /// JSON document via the shared `JsonValue` pretty writer.
    pub fn to_json(&self) -> String {
        let histogram_value = |h: &HistogramSnapshot| {
            JsonValue::Obj(vec![
                ("count".into(), JsonValue::Num(h.count as f64)),
                ("sum".into(), JsonValue::Num(h.sum as f64)),
                ("min".into(), JsonValue::Num(h.min as f64)),
                ("max".into(), JsonValue::Num(h.max as f64)),
                ("p50".into(), JsonValue::Num(h.percentile(50.0) as f64)),
                ("p99".into(), JsonValue::Num(h.percentile(99.0) as f64)),
                (
                    "buckets".into(),
                    JsonValue::Arr(
                        h.buckets
                            .iter()
                            .map(|&(u, c)| {
                                JsonValue::Arr(vec![
                                    JsonValue::Num(u as f64),
                                    JsonValue::Num(c as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let window_value = |w: &WindowSnapshot| {
            JsonValue::Obj(vec![
                ("window_us".into(), JsonValue::Num(w.window_us as f64)),
                (
                    "cells".into(),
                    JsonValue::Arr(
                        w.cells
                            .iter()
                            .map(|&(i, g, b)| {
                                JsonValue::Arr(vec![
                                    JsonValue::Num(i as f64),
                                    JsonValue::Num(g as f64),
                                    JsonValue::Num(b as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let doc = JsonValue::Obj(vec![
            (
                "counters".into(),
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.render(), JsonValue::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                JsonValue::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.render(), JsonValue::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                JsonValue::Obj(
                    self.histograms.iter().map(|(k, h)| (k.render(), histogram_value(h))).collect(),
                ),
            ),
            (
                "windows".into(),
                JsonValue::Obj(
                    self.windows.iter().map(|(k, w)| (k.render(), window_value(w))).collect(),
                ),
            ),
        ]);
        doc.to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let t = ("tenant", "t00");
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert(MetricKey::new("comet_serve_requests_total", &[("kind", "apply"), t]), 3);
        snap.gauges.insert(MetricKey::new("comet_serve_queue_depth", &[t]), 2);
        let mut latency = HistogramSnapshot::default();
        let mut window = WindowSnapshot::new(100);
        for v in [5u64, 90, 90, 4000] {
            latency.observe(v);
            window.record(v, v < 1000);
        }
        snap.histograms.insert(MetricKey::new("comet_serve_latency_us", &[t]), latency);
        snap.windows.insert(MetricKey::new("comet_serve_slo", &[t]), window);
        snap
    }

    #[test]
    fn prometheus_exposition_has_types_buckets_and_sorted_series() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE comet_serve_requests_total counter"));
        assert!(text.contains("comet_serve_requests_total{kind=\"apply\",tenant=\"t00\"} 3"));
        assert!(text.contains("# TYPE comet_serve_latency_us histogram"));
        assert!(text.contains("comet_serve_latency_us_bucket{le=\"5\",tenant=\"t00\"} 1"));
        assert!(text.contains("comet_serve_latency_us_bucket{le=\"+Inf\",tenant=\"t00\"} 4"));
        assert!(text.contains("comet_serve_latency_us_count{tenant=\"t00\"} 4"));
        assert!(text.contains("comet_serve_slo_good_total{tenant=\"t00\"} 3"));
        assert!(text.contains("comet_serve_slo_bad_total{tenant=\"t00\"} 1"));
        // cumulative: the two 90µs observations land in one bucket
        assert!(text.contains("le=\"91\",tenant=\"t00\"} 3"), "{text}");
    }

    #[test]
    fn json_parses_and_round_trips_deterministically() {
        let snap = sample();
        let text = snap.to_json();
        let doc = comet_obs::JsonValue::parse(&text).expect("valid JSON");
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("comet_serve_latency_us{tenant=\"t00\"}"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(text, snap.to_json(), "exporter is a pure function");
    }
}
