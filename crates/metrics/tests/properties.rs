//! Property suite for the deterministic histogram/snapshot algebra.

use comet_metrics::{bucket_index, bucket_upper, HistogramSnapshot, MetricKey, MetricsSnapshot};
use proptest::prelude::*;

fn hist(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #[test]
    fn bucket_brackets_every_value(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(bucket_upper(idx) >= v);
        if idx > 0 {
            prop_assert!(bucket_upper(idx - 1) < v);
        }
    }

    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..40),
        b in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let (sa, sb) = (hist(&a), hist(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(any::<u64>(), 0..30),
        b in prop::collection::vec(any::<u64>(), 0..30),
        c in prop::collection::vec(any::<u64>(), 0..30),
    ) {
        let (sa, sb, sc) = (hist(&a), hist(&b), hist(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_observing_the_concatenation(
        a in prop::collection::vec(any::<u64>(), 0..40),
        b in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let mut merged = hist(&a);
        merged.merge(&hist(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, hist(&both));
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        values in prop::collection::vec(0u64..1_000_000, 1..60),
    ) {
        let s = hist(&values);
        let (p50, p90, p99) = (s.percentile(50.0), s.percentile(90.0), s.percentile(99.0));
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(p99 >= s.max || p99 >= *values.iter().max().unwrap());
        // nearest-rank on bucket uppers can overshoot by at most 1/16
        prop_assert!(p50 >= s.min);
    }

    #[test]
    fn snapshot_is_independent_of_tenant_order(
        series in prop::collection::vec(
            (0u8..4, prop::collection::vec(0u64..100_000, 0..20)),
            1..5,
        ),
    ) {
        // Label each tenant's series into one snapshot, visiting the
        // tenants in two different orders: the result must be
        // identical, which is what makes shard-count invariance
        // possible upstream. A tenant drawn twice adds to its series.
        let build = |order: &mut dyn Iterator<Item = &(u8, Vec<u64>)>| {
            let mut snap = MetricsSnapshot::default();
            for (tenant, values) in order {
                let name = format!("t{tenant:02}");
                let labels = [("tenant", name.as_str())];
                *snap.counters.entry(MetricKey::new("req_total", &labels)).or_insert(0) +=
                    values.len() as u64;
                let h = snap.histograms.entry(MetricKey::new("lat_us", &labels)).or_default();
                for &v in values {
                    h.observe(v);
                }
            }
            snap
        };
        let forward = build(&mut series.iter());
        let backward = build(&mut series.iter().rev());
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(forward.to_prometheus(), backward.to_prometheus());
    }
}
