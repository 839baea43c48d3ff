//! Exact log-linear latency histograms.
//!
//! The bucket layout is fixed at compile time and every observation
//! lands in exactly one bucket via integer arithmetic, so two runs
//! that observe the same multiset of values produce byte-identical
//! snapshots — no probabilistic sketch, no floating-point binning.
//!
//! Layout: values below 16 get one bucket each (exact); above that,
//! each power of two is split into 16 linear sub-buckets (a log-linear
//! scheme with 4 sub-bucket bits), which bounds the relative error of
//! any decoded bound at 1/16.

/// Number of linear sub-buckets per power of two (2^4 = 16).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;

/// Total number of addressable buckets (`u64::MAX` lands in the last).
pub const NUM_BUCKETS: usize = (64 - 3) * SUBS;

/// Map a value to its bucket index. Total and deterministic.
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let sub = ((v >> (top - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (top as usize - 3) * SUBS + sub
    }
}

/// Inclusive upper bound of the value range covered by bucket `idx`.
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let oct = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        let top = oct + 3;
        let lower = (SUBS as u64 + sub) << (top - SUB_BITS);
        lower + ((1u64 << (top - SUB_BITS)) - 1)
    }
}

/// A histogram: exact total count/sum/min/max plus the non-zero
/// buckets as `(inclusive_upper_bound, count)` pairs sorted by bound.
/// Observations insert straight into the sorted bucket list, so a
/// series pays only for the buckets it uses. Two runs observing the
/// same values compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Exact (saturating) sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-zero buckets as `(upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let upper = bucket_upper(bucket_index(v));
        match self.buckets.binary_search_by_key(&upper, |&(bound, _)| bound) {
            Ok(at) => self.buckets[at].1 += 1,
            Err(at) => self.buckets.insert(at, (upper, 1)),
        }
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merge another snapshot into this one. Associative and
    /// commutative: bucket counts add bucket-wise, extrema combine.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            let take_left = match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(a), Some(b)) => {
                    if a.0 == b.0 {
                        merged.push((a.0, a.1 + b.1));
                        i += 1;
                        j += 1;
                        continue;
                    }
                    a.0 < b.0
                }
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_left {
                merged.push(self.buckets[i]);
                i += 1;
            } else {
                merged.push(other.buckets[j]);
                j += 1;
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile, reported as the matching bucket's
    /// inclusive upper bound (relative error ≤ 1/16). `0` when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return upper;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bounds_bracket_the_value_within_one_sixteenth() {
        let probes = [16u64, 17, 31, 32, 33, 100, 1000, 65_535, 1 << 40, u64::MAX - 1, u64::MAX];
        for &v in &probes {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            // the previous bucket's bound must be below the value
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "value {v} not past bucket {}", idx - 1);
            }
            if v >= 16 {
                let err = (upper - v) as f64 / v as f64;
                assert!(err <= 1.0 / 16.0, "relative error {err} too large for {v}");
            }
        }
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing_and_total() {
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let upper = bucket_upper(idx);
            if let Some(p) = prev {
                assert!(upper > p, "bucket {idx} bound {upper} not above {p}");
            }
            prev = Some(upper);
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn percentile_is_nearest_rank_on_bucket_bounds() {
        let mut s = HistogramSnapshot::default();
        for v in [1u64, 2, 3, 4, 1000] {
            s.observe(v);
        }
        assert_eq!(s.percentile(50.0), 3);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!(s.percentile(99.0) >= 1000);
        assert_eq!(HistogramSnapshot::default().percentile(99.0), 0);
    }

    #[test]
    fn merge_equals_observing_the_union() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut both = HistogramSnapshot::default();
        for v in [3u64, 90, 700, 700, 16_000] {
            a.observe(v);
            both.observe(v);
        }
        for v in [5u64, 90, 1 << 30] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
