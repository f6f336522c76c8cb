//! Hit-rate tracking (Eq. 8) with per-window series for the Fig. 10
//! progression plots.

use mgnn_obs::counters::hit_rate;

/// Records per-minibatch hit/miss counts and exposes cumulative and
/// windowed hit rates.
///
/// ```
/// use massivegnn::hitrate::HitRateTracker;
/// let mut t = HitRateTracker::new();
/// t.record(8, 2);
/// t.record(9, 1);
/// assert!((t.cumulative() - 0.85).abs() < 1e-12);
/// assert_eq!(t.windowed(1).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HitRateTracker {
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl HitRateTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one minibatch's lookup outcome.
    pub fn record(&mut self, hits: u64, misses: u64) {
        self.hits.push(hits);
        self.misses.push(misses);
    }

    /// Pre-size for `n` minibatches so steady-state `record` calls never
    /// reallocate (the engine reserves the whole run's step count up
    /// front).
    pub fn reserve(&mut self, n: usize) {
        self.hits.reserve(n);
        self.misses.reserve(n);
    }

    /// Number of recorded minibatches.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Cumulative hit rate `h/(h+m)` over everything recorded
    /// (0 when empty).
    pub fn cumulative(&self) -> f64 {
        hit_rate(self.hits.iter().sum(), self.misses.iter().sum())
    }

    /// Hit rate of minibatch `i`.
    pub fn at(&self, i: usize) -> f64 {
        hit_rate(self.hits[i], self.misses[i])
    }

    /// Non-overlapping window means: one point per `window` minibatches
    /// (ragged tail included) — the Fig. 10 series.
    ///
    /// Windows with no lookups at all are *skipped*, not emitted as 0.0:
    /// a minibatch that touched no halo nodes carries no hit-rate signal,
    /// and a spurious zero would drag both the plotted series and the
    /// [`trend`](Self::trend) slope down. (`cumulative` needs no such
    /// guard — empty batches contribute nothing to either sum.)
    pub fn windowed(&self, window: usize) -> Vec<f64> {
        assert!(window > 0);
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.len() {
            let end = (i + window).min(self.len());
            let h: u64 = self.hits[i..end].iter().sum();
            let m: u64 = self.misses[i..end].iter().sum();
            if h + m > 0 {
                out.push(hit_rate(h, m));
            }
            i = end;
        }
        out
    }

    /// Linear-regression slope of the windowed series — positive means
    /// the eviction scheme is improving the hit rate over time (§V-B3).
    pub fn trend(&self, window: usize) -> f64 {
        let ys = self.windowed(window);
        let n = ys.len();
        if n < 2 {
            return 0.0;
        }
        let nf = n as f64;
        let xmean = (nf - 1.0) / 2.0;
        let ymean = ys.iter().sum::<f64>() / nf;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in ys.iter().enumerate() {
            let dx = i as f64 - xmean;
            num += dx * (y - ymean);
            den += dx * dx;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_matches_eq8() {
        let mut t = HitRateTracker::new();
        t.record(3, 1);
        t.record(1, 3);
        assert!((t.cumulative() - 0.5).abs() < 1e-12);
        assert!((t.at(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(HitRateTracker::new().cumulative(), 0.0);
    }

    #[test]
    fn windowed_series() {
        let mut t = HitRateTracker::new();
        for _ in 0..4 {
            t.record(1, 1);
        }
        t.record(4, 0);
        let w = t.windowed(2);
        assert_eq!(w.len(), 3);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[2] - 1.0).abs() < 1e-12); // ragged tail
    }

    #[test]
    fn trend_positive_for_rising_series() {
        let mut t = HitRateTracker::new();
        for i in 0..20u64 {
            t.record(i, 20 - i);
        }
        assert!(t.trend(2) > 0.0);
        let mut flat = HitRateTracker::new();
        for _ in 0..20 {
            flat.record(5, 5);
        }
        assert!(flat.trend(2).abs() < 1e-9);
    }

    #[test]
    fn zero_lookups_minibatch() {
        let mut t = HitRateTracker::new();
        t.record(0, 0);
        assert_eq!(t.at(0), 0.0);
        // An all-empty window emits no series point at all.
        assert_eq!(t.windowed(1), Vec::<f64>::new());
    }

    #[test]
    fn empty_batches_do_not_drag_the_series() {
        // Perfect hit rate interleaved with zero-lookup minibatches: the
        // series must read 1.0 throughout, not dip to 0.0 on the gaps.
        let mut t = HitRateTracker::new();
        for i in 0..10 {
            if i % 2 == 0 {
                t.record(5, 0);
            } else {
                t.record(0, 0);
            }
        }
        let w = t.windowed(1);
        assert_eq!(w.len(), 5, "empty minibatches must be skipped");
        assert!(w.iter().all(|&y| y == 1.0));
        // Mixed windows still average over the batches that had lookups.
        let w2 = t.windowed(2);
        assert_eq!(w2.len(), 5);
        assert!(w2.iter().all(|&y| y == 1.0));
        // Cumulative stays exact (5 windows × 5 hits, 0 misses).
        assert_eq!(t.cumulative(), 1.0);
    }

    #[test]
    fn trend_is_flat_over_gappy_perfect_series() {
        // Before the fix the zero-lookup gaps alternated the windowed
        // series between 1.0 and 0.0, producing a bogus slope; now the
        // trend over a constant (gappy) hit rate is exactly flat.
        let mut t = HitRateTracker::new();
        for i in 0..20 {
            if i % 4 == 0 {
                t.record(0, 0);
            } else {
                t.record(3, 1);
            }
        }
        assert!(t.trend(1).abs() < 1e-12);
    }
}
