//! Fig. 13: execution time and hit rate across the decay factor γ ∈ [0, 1),
//! with error bars over the Δ range — the paper's empirical basis for
//! choosing γ ≥ 0.9 ("low decay" retains the best hit rates at good time).
//! It reads Fig. 12's grid ([`fig12::sweep`]) over its own γ values.

use crate::figures::fig12;
use crate::harness::Opts;
use std::fmt;

/// Aggregated stats for one γ across the Δ range.
#[derive(Debug, Clone)]
pub struct Point {
    /// Decay factor.
    pub gamma: f64,
    /// Mean makespan over Δ values (s).
    pub time_mean_s: f64,
    /// Min/max makespan over Δ (error bar).
    pub time_range_s: (f64, f64),
    /// Mean hit rate over Δ.
    pub hit_mean: f64,
    /// Min/max hit rate over Δ (error bar).
    pub hit_range: (f64, f64),
}

/// The figure.
pub struct Fig13 {
    /// One point per γ.
    pub points: Vec<Point>,
}

/// Sweep γ over a [0, 1) grid × the Δ range, products on 4 CPU nodes
/// (Fig. 12's grid, [`fig12::sweep`]).
pub fn run(opts: &Opts) -> Fig13 {
    let gammas = [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.995];
    let grid = fig12::sweep(opts, &gammas);
    let points = grid
        .chunks(grid.len() / gammas.len())
        .map(|row| {
            let mean =
                |v: fn(&fig12::Point) -> f64| row.iter().map(v).sum::<f64>() / row.len() as f64;
            let range = |v: fn(&fig12::Point) -> f64| {
                (
                    row.iter().map(v).fold(f64::INFINITY, f64::min),
                    row.iter().map(v).fold(f64::NEG_INFINITY, f64::max),
                )
            };
            Point {
                gamma: row[0].gamma,
                time_mean_s: mean(|p| p.time_s),
                time_range_s: range(|p| p.time_s),
                hit_mean: mean(|p| p.hit_rate),
                hit_range: range(|p| p.hit_rate),
            }
        })
        .collect();
    Fig13 { points }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 13 — varying decay γ across intervals Δ (products, 4 CPU nodes; ranges over Δ)"
        )?;
        writeln!(
            f,
            "{:>7} {:>10} {:>19} {:>8} {:>15}",
            "gamma", "time(s)", "time range", "hit(%)", "hit range(%)"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>7} {:>10.3} [{:>7.3}, {:>7.3}] {:>8.1} [{:>5.1}, {:>5.1}]",
                p.gamma,
                p.time_mean_s,
                p.time_range_s.0,
                p.time_range_s.1,
                100.0 * p.hit_mean,
                100.0 * p.hit_range.0,
                100.0 * p.hit_range.1
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The γ sweep at 3 epochs (30 on the long-run profile), run once
    /// for the tests that read it.
    fn three_epoch_fig() -> &'static Fig13 {
        use std::sync::OnceLock;
        static FIG: OnceLock<Fig13> = OnceLock::new();
        FIG.get_or_init(|| {
            let mut opts = Opts::quick();
            opts.epochs = 3;
            run(&opts)
        })
    }

    #[test]
    fn low_decay_hit_rate_at_least_matches_high_decay() {
        let fig = three_epoch_fig();
        let hit_at = |g: f64| fig.points.iter().find(|p| p.gamma == g).unwrap().hit_mean;
        // γ ≥ 0.9 should retain hit rates at least as good as aggressive
        // decay (the paper's Fig. 13 conclusion).
        assert!(
            hit_at(0.95) + 0.03 >= hit_at(0.1),
            "low decay {} vs high decay {}",
            hit_at(0.95),
            hit_at(0.1)
        );
        assert!(format!("{fig}").contains("Fig. 13"));
    }

    #[test]
    fn sweep_is_gamma_dependent() {
        // Regression for the Eq. 1 boundary bug: the strict `S_E < α`
        // compare disabled eviction entirely, making every γ produce the
        // identical hit rate. γ must influence the outcome through the
        // score swap (an evicted node re-enters the S_A race at γ^idle).
        // That eviction fires at all is `fig12`'s Δ 16 assertion.
        let fig = three_epoch_fig();
        let min = fig
            .points
            .iter()
            .map(|p| p.hit_mean)
            .fold(f64::INFINITY, f64::min);
        let max = fig
            .points
            .iter()
            .map(|p| p.hit_mean)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max > min,
            "hit rate is γ-invariant ({min} == {max}): eviction is dead"
        );
    }

    #[test]
    fn ranges_bracket_means() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let fig = run(&opts);
        for p in &fig.points {
            // Same slack as the hit rates: when every Δ gives the same
            // time (perfect overlap), the mean of equal values can land
            // one ulp outside them.
            assert!(
                p.time_range_s.0 <= p.time_mean_s + 1e-12
                    && p.time_mean_s <= p.time_range_s.1 + 1e-12,
                "{p:?}"
            );
            assert!(p.hit_range.0 <= p.hit_mean + 1e-12 && p.hit_mean <= p.hit_range.1 + 1e-12);
        }
    }
}
