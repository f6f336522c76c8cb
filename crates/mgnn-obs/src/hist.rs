//! Log-bucketed latency histograms.
//!
//! Durations land in power-of-two buckets anchored at 1 ns, so 64 buckets
//! cover everything from sub-nanosecond (bucket 0) to ~584 years. Recording
//! is O(1) with no allocation after construction; quantiles (p50/p95/p99)
//! are answered from the bucket counts, clamped to the exact observed
//! min/max so degenerate distributions report exact values.

/// Lower bound of bucket 0, in seconds.
const BASE_S: f64 = 1.0e-9;
/// Number of buckets.
const NUM_BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed histogram of durations in seconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram. `const` so the live registry's lanes can sit in
    /// a static.
    pub const fn new() -> Self {
        LatencyHistogram {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum_s: 0.0,
            min_s: f64::INFINITY,
            max_s: 0.0,
        }
    }

    fn bucket_of(dur_s: f64) -> usize {
        if dur_s <= BASE_S {
            return 0;
        }
        let idx = (dur_s / BASE_S).log2() as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` in seconds.
    fn bucket_upper(i: usize) -> f64 {
        BASE_S * (1u64 << (i + 1).min(63)) as f64
    }

    /// Record one duration (negative durations are clamped to 0).
    pub fn record(&mut self, dur_s: f64) {
        let d = dur_s.max(0.0);
        self.counts[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.sum_s += d;
        self.min_s = self.min_s.min(d);
        self.max_s = self.max_s.max(d);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations (seconds).
    pub fn sum_s(&self) -> f64 {
        self.sum_s
    }

    /// Smallest recorded duration; 0.0 when empty.
    pub fn min_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_s
        }
    }

    /// Largest recorded duration; 0.0 when empty.
    pub fn max_s(&self) -> f64 {
        self.max_s
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the q-th recorded value, clamped to `[min, max]`. 0.0 when
    /// empty; `q ≤ 0` (and NaN) return the observed min, `q ≥ 1` the
    /// observed max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Boundary quantiles bypass the bucket walk: a NaN `q` would
        // otherwise silently truncate to the first bucket, and `q = 1`
        // could under-report the max when a recorded duration exceeds
        // the last bucket's nominal upper bound.
        if q.is_nan() || q <= 0.0 {
            return self.min_s();
        }
        if q >= 1.0 {
            return self.max_s();
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper(i).clamp(self.min_s, self.max_s);
            }
        }
        self.max_s
    }

    /// Median.
    pub fn p50_s(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95_s(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99_s(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(lower_bound_s, upper_bound_s, count)` rows.
    pub fn buckets(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 {
                    0.0
                } else {
                    BASE_S * (1u64 << i) as f64
                };
                (lo, Self::bucket_upper(i), c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_s(), 0.0);
        assert_eq!(h.min_s(), 0.0);
        assert_eq!(h.max_s(), 0.0);
    }

    #[test]
    fn single_value_exact() {
        let mut h = LatencyHistogram::new();
        h.record(3.2e-3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_s(), 3.2e-3);
        assert_eq!(h.max_s(), 3.2e-3);
        // Clamped to [min, max] ⇒ exact for a single sample.
        assert_eq!(h.p50_s(), 3.2e-3);
        assert_eq!(h.p99_s(), 3.2e-3);
    }

    #[test]
    fn quantiles_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1.0e-6);
        }
        assert!(h.p50_s() <= h.p95_s());
        assert!(h.p95_s() <= h.p99_s());
        assert!(h.p99_s() <= h.max_s());
        assert!(h.min_s() <= h.p50_s());
        // p50 of a uniform 1µs..1ms spread lands within a 2× bucket of
        // the true median.
        let true_median = 500.0e-6;
        assert!(h.p50_s() >= true_median / 2.0 && h.p50_s() <= true_median * 2.0);
    }

    #[test]
    fn zero_and_negative_durations() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(-1.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_s(), 0.0);
        assert_eq!(h.sum_s(), 0.0);
    }

    #[test]
    fn huge_duration_clamps_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1.0e30);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p99_s(), 1.0e30); // clamped to observed max
    }

    #[test]
    fn quantile_boundaries_pin_min_and_max() {
        let mut h = LatencyHistogram::new();
        h.record(1.0e-6);
        h.record(1.0e-3);
        h.record(1.0);
        // q ≤ 0 (including far out of range) is the observed min, q ≥ 1
        // the observed max — never a bucket bound.
        assert_eq!(h.quantile(0.0), 1.0e-6);
        assert_eq!(h.quantile(-3.0), 1.0e-6);
        assert_eq!(h.quantile(1.0), 1.0);
        assert_eq!(h.quantile(2.0), 1.0);
        // NaN asks for nothing meaningful; pin it to the min rather than
        // whatever bucket a silent NaN→0 cast used to land in.
        assert_eq!(h.quantile(f64::NAN), 1.0e-6);
        // Empty histograms answer 0.0 for every q, NaN included.
        let empty = LatencyHistogram::new();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0.0);
        }
    }

    #[test]
    fn quantile_of_sub_bucket_zero_durations() {
        // Durations at or below the 1 ns anchor all land in bucket 0;
        // the [min, max] clamp must keep quantiles at the observed
        // values instead of bucket 0's 2 ns upper bound.
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(0.0);
        }
        assert_eq!(h.p50_s(), 0.0);
        assert_eq!(h.p99_s(), 0.0);
        let mut tiny = LatencyHistogram::new();
        tiny.record(1.0e-10);
        tiny.record(5.0e-10);
        assert_eq!(tiny.quantile(0.0), 1.0e-10);
        assert_eq!(tiny.quantile(1.0), 5.0e-10);
        assert!(tiny.p50_s() <= 5.0e-10, "p50 left the observed range");
    }

    #[test]
    fn q_one_reports_max_beyond_last_bucket_bound() {
        // A duration past the last bucket's nominal upper bound used to
        // make q=1 report that bound (~2^63 ns) instead of the max.
        let mut h = LatencyHistogram::new();
        h.record(1.0);
        h.record(1.0e30);
        assert_eq!(h.quantile(1.0), 1.0e30);
        assert!(h.p50_s() >= 1.0);
    }

    #[test]
    fn buckets_report_nonempty_rows() {
        let mut h = LatencyHistogram::new();
        h.record(1.0e-6);
        h.record(1.1e-6);
        h.record(1.0e-3);
        let rows = h.buckets();
        assert_eq!(rows.iter().map(|r| r.2).sum::<u64>(), 3);
        for (lo, hi, _) in rows {
            assert!(lo < hi);
        }
    }
}
