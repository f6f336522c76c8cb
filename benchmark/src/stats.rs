//! Order statistics over small samples of measurements.

/// Summary of the repetitions of one measurement. `q1`/`q3` follow
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so `compare`'s spread is the same number the accepting driver computes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// Raw values in the order they were measured.
    pub raw: Vec<f64>,
}

impl Summary {
    /// Summarise `raw` (must be non-empty).
    pub fn of(raw: Vec<f64>) -> Summary {
        assert!(!raw.is_empty(), "summary of no samples");
        let mut s = raw.clone();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s);
        Summary {
            median: median_sorted(&s),
            min: s[0],
            max: s[s.len() - 1],
            q1,
            q3,
            raw,
        }
    }

    /// A value that is exact: one sample, zero spread.
    pub fn exact(v: f64) -> Summary {
        Summary::of(vec![v])
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of unsorted samples; 0.0 for none (a layer that did no work).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

/// First and third quartile of sorted samples, exclusive method. With
/// fewer than two samples both collapse onto the only value.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100); 0.0 for
/// none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile the guide allows is the one with at least ten
/// samples beyond it: p95 needs 200 samples.
pub const P95_MIN_SAMPLES: usize = 200;

/// p95 when there are enough samples to stand behind it, else the
/// median (so the metric is always present and never an outlier of a
/// short run).
pub fn p95_or_median(values: &[f64]) -> f64 {
    if values.len() >= P95_MIN_SAMPLES {
        percentile(values, 95.0)
    } else {
        median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(p95_or_median(&v), 190.0);
        assert_eq!(p95_or_median(&v[..20]), 10.5);
        assert_eq!(median(&[]), 0.0);
    }
}
