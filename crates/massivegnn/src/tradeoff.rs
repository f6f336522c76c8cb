//! The Fig. 5 trade-off quadrants: combinations of decay factor `γ` and
//! eviction interval `Δ` and their expected behaviour.

/// One of the four (γ, Δ) regimes of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quadrant {
    /// Low decay (γ→1) + short interval: hit-rate stagnation risk, high
    /// inspection overhead.
    LowDecayShortInterval,
    /// High decay (γ→0) + short interval: aggressive eviction, hit-rate
    /// swings, highest overhead.
    HighDecayShortInterval,
    /// High decay + long interval: delayed bulk evictions, possible hit
    /// drops, low overhead.
    HighDecayLongInterval,
    /// Low decay + long interval: the paper's recommended regime —
    /// strategic eviction, consistent hit-rate growth, low overhead.
    LowDecayLongInterval,
}

/// γ at or above this is "low decay" (the paper's empirical boundary from
/// Fig. 13: γ ≥ 0.9 yields the best hit rates).
pub const LOW_DECAY_GAMMA: f64 = 0.9;
/// Δ at or above this is a "long" interval (paper sweeps 16–1024; its
/// optimal settings cluster at 64+).
pub const LONG_INTERVAL_DELTA: usize = 64;

/// Classify a (γ, Δ) pair.
///
/// ```
/// use massivegnn::tradeoff::{classify, Quadrant};
/// assert_eq!(classify(0.995, 512), Quadrant::LowDecayLongInterval);
/// assert_eq!(classify(0.5, 16), Quadrant::HighDecayShortInterval);
/// ```
pub fn classify(gamma: f64, delta: usize) -> Quadrant {
    let low_decay = gamma >= LOW_DECAY_GAMMA;
    let long_interval = delta >= LONG_INTERVAL_DELTA;
    match (low_decay, long_interval) {
        (true, false) => Quadrant::LowDecayShortInterval,
        (false, false) => Quadrant::HighDecayShortInterval,
        (false, true) => Quadrant::HighDecayLongInterval,
        (true, true) => Quadrant::LowDecayLongInterval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_settings_land_in_recommended_quadrant() {
        // Table IV's most common CPU settings: γ ∈ {0.95, 0.995}, Δ ≥ 64.
        for (g, d) in [(0.95, 64), (0.995, 128), (0.9995, 1024), (0.995, 512)] {
            assert_eq!(classify(g, d), Quadrant::LowDecayLongInterval, "({g}, {d})");
        }
    }

    #[test]
    fn quadrants_distinct() {
        assert_eq!(classify(0.99, 16), Quadrant::LowDecayShortInterval);
        assert_eq!(classify(0.5, 16), Quadrant::HighDecayShortInterval);
        assert_eq!(classify(0.5, 512), Quadrant::HighDecayLongInterval);
        assert_eq!(classify(0.99, 512), Quadrant::LowDecayLongInterval);
    }
}
