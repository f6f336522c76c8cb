//! Fig. 13: execution time and hit rate across the decay factor γ ∈ [0, 1),
//! with error bars over the Δ range — the paper's empirical basis for
//! choosing γ ≥ 0.9 ("low decay" retains the best hit rates at good time).

use crate::harness::{delta_values, engine_config, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
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

/// Sweep γ over a [0, 1) grid × the Δ range, products on 4 CPU nodes.
pub fn run(opts: &Opts) -> Fig13 {
    let gammas = [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.995];
    let opts = opts.longrun_of();
    let base = engine_config(&opts, DatasetKind::Products, Backend::Cpu, 4);
    let mut points = Vec::new();
    for &gamma in &gammas {
        let mut times = Vec::new();
        let mut hits = Vec::new();
        for delta in delta_values(opts.full) {
            let mut cfg = base.clone();
            cfg.mode = Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma,
                delta,
                ..Default::default()
            });
            let r = Engine::build(cfg).run();
            times.push(r.makespan_s);
            hits.push(r.hit_rate());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let range = |v: &[f64]| {
            (
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        points.push(Point {
            gamma,
            time_mean_s: mean(&times),
            time_range_s: range(&times),
            hit_mean: mean(&hits),
            hit_range: range(&hits),
        });
    }
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

    #[test]
    fn low_decay_hit_rate_at_least_matches_high_decay() {
        let mut opts = Opts::quick();
        opts.epochs = 3;
        let fig = run(&opts);
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
        let mut opts = Opts::quick();
        opts.epochs = 3;
        if cfg!(debug_assertions) {
            // The swap effect needs the release-size profile to move the
            // top-k ordering; at the Unit debug scale every γ legitimately
            // selects the same replacements. Assert the bug's direct
            // signature instead: eviction must actually fire.
            let base = engine_config(&opts.longrun_of(), DatasetKind::Products, Backend::Cpu, 4);
            let mut cfg = base.clone();
            cfg.mode = Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma: 0.95,
                delta: 16,
                ..Default::default()
            });
            let r = Engine::build(cfg).run();
            let agg = r.aggregate_metrics();
            assert!(agg.evictions > 0, "eviction is dead at the Eq. 1 boundary");
            assert_eq!(agg.evictions, agg.replacements_fetched);
            return;
        }
        let fig = run(&opts);
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
