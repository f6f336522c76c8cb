//! Fig. 12: execution time and hit rate while varying the eviction
//! interval Δ for each decay factor γ (4 nodes).

use crate::harness::{delta_values, engine_config, gamma_values, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One (γ, Δ) measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Decay factor.
    pub gamma: f64,
    /// Eviction interval.
    pub delta: usize,
    /// Makespan (s).
    pub time_s: f64,
    /// Cumulative hit rate.
    pub hit_rate: f64,
    /// Total evictions performed.
    pub evictions: u64,
}

/// The figure.
pub struct Fig12 {
    /// All sweep points.
    pub points: Vec<Point>,
}

/// The γ × Δ grid Figs. 12 and 13 read: products on 4 CPU nodes under
/// the long-run profile, `f_p^h` 0.25, one run per `(γ, Δ)`, γ-major
/// then Δ-minor over [`delta_values`], all on one built engine.
pub fn sweep(opts: &Opts, gammas: &[f64]) -> Vec<Point> {
    let opts = opts.longrun_of();
    let engine = Engine::build(engine_config(&opts, DatasetKind::Products, Backend::Cpu, 4));
    let mut points = Vec::new();
    for &gamma in gammas {
        for delta in delta_values(opts.full) {
            let mode = Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma,
                delta,
                ..Default::default()
            });
            let r = engine.run_as(mode).unwrap();
            points.push(Point {
                gamma,
                delta,
                time_s: r.makespan_s,
                hit_rate: r.hit_rate(),
                evictions: r.aggregate_metrics().evictions,
            });
        }
    }
    points
}

/// Sweep Δ per γ on products, 4 CPU nodes.
pub fn run(opts: &Opts) -> Fig12 {
    Fig12 {
        points: sweep(opts, &gamma_values()),
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 12 — varying eviction interval Δ per decay γ (products, 4 CPU nodes)"
        )?;
        writeln!(
            f,
            "{:>8} {:>6} {:>10} {:>8} {:>10}",
            "gamma", "delta", "time(s)", "hit(%)", "evictions"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>8} {:>6} {:>10.3} {:>8.1} {:>10}",
                p.gamma,
                p.delta,
                p.time_s,
                100.0 * p.hit_rate,
                p.evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_delta_means_more_eviction_rounds() {
        let mut opts = Opts::quick();
        opts.epochs = 4;
        let fig = run(&opts);
        // For a fixed γ with aggressive decay, smaller Δ must evict at
        // least as much (more rounds, lower threshold per round interacts,
        // but round count strictly dominates at γ=0.95).
        let at = |g: f64, d: usize| {
            fig.points
                .iter()
                .find(|p| p.gamma == g && p.delta == d)
                .unwrap()
        };
        let small = at(0.95, 16);
        let large = at(0.95, 256);
        // Regression for the Eq. 1 boundary bug, whose strict `S_E < α`
        // compare left eviction dead at every point.
        assert!(small.evictions > 0, "eviction is dead at γ 0.95, Δ 16");
        assert!(
            small.evictions >= large.evictions,
            "Δ=16 evictions {} < Δ=256 {}",
            small.evictions,
            large.evictions
        );
        assert!(format!("{fig}").contains("Fig. 12"));
    }

    #[test]
    fn all_grid_points_present() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let fig = run(&opts);
        assert_eq!(
            fig.points.len(),
            gamma_values().len() * delta_values(false).len()
        );
        assert!(fig.points.iter().all(|p| p.time_s > 0.0));
    }
}
