//! Fig. 10: hit-rate progression across minibatches on a long run, with
//! eviction points marked, plus the fraction of the partition's halo set
//! sampled per minibatch. The paper trains 1000 epochs and watches the
//! hit rate climb at each eviction point and plateau (≈95% papers, ≈75%
//! products).

use crate::harness::{engine_config, layout_for, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One dataset's progression.
#[derive(Debug, Clone)]
pub struct Series {
    /// Dataset name.
    pub dataset: &'static str,
    /// Windowed hit-rate series (trainer 0).
    pub hit_series: Vec<f64>,
    /// Window width in minibatches.
    pub window: usize,
    /// Eviction interval Δ (vertical dashed lines fall every Δ steps).
    pub delta: usize,
    /// Cumulative final hit rate.
    pub final_hit_rate: f64,
    /// Linear trend of the windowed series (per window).
    pub trend: f64,
    /// Mean fraction of halo nodes sampled per minibatch.
    pub remote_sampled_frac: f64,
}

/// The figure.
pub struct Fig10 {
    /// Series for products and papers.
    pub series: Vec<Series>,
}

/// Long run (harness long-run profile: larger graph, small batch, many
/// epochs) on 4 CPU nodes.
pub fn run(opts: &Opts) -> Fig10 {
    let opts = opts.longrun_of();
    let opts = &opts;
    let mut series = Vec::new();
    for kind in [DatasetKind::Products, DatasetKind::Papers] {
        let mut cfg = engine_config(opts, kind, Backend::Cpu, 4);
        let delta = 32;
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            f_h: 0.25,
            gamma: 0.995,
            delta,
            layout: layout_for(kind),
            ..Default::default()
        });
        let report = Engine::build(cfg).run();
        let t0 = &report.trainers[0];
        let window = (t0.hits.len() / 24).max(1);
        series.push(Series {
            dataset: kind.name(),
            hit_series: t0.hits.windowed(window),
            window,
            delta,
            final_hit_rate: report.hit_rate(),
            trend: t0.hits.trend(window),
            remote_sampled_frac: t0.remote_sampled_frac,
        });
    }
    Fig10 { series }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 10 — hit-rate progression over minibatches (4 CPU nodes, long run)"
        )?;
        for s in &self.series {
            writeln!(
                f,
                "{} (Δ={}, window={} minibatches, final hit {:.1}%, trend {:+.4}/win, remote-sampled {:.1}%):",
                s.dataset,
                s.delta,
                s.window,
                100.0 * s.final_hit_rate,
                s.trend,
                100.0 * s.remote_sampled_frac
            )?;
            write!(f, "  hit% ")?;
            for h in &s.hit_series {
                write!(f, "{:>5.1}", 100.0 * h)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_grows_then_plateaus() {
        let mut opts = Opts::quick();
        opts.epochs = 3; // 30 on the long-run profile
        let fig = run(&opts);
        for s in &fig.series {
            assert!(s.hit_series.len() >= 4, "{}: series too short", s.dataset);
            let early: f64 = s.hit_series[..2].iter().sum::<f64>() / 2.0;
            let late_n = s.hit_series.len();
            let late: f64 = s.hit_series[late_n - 2..].iter().sum::<f64>() / 2.0;
            // Windows fluctuate a few points; the claim is "no
            // collapse", not monotonicity.
            assert!(
                late >= early - 0.07,
                "{}: hit rate should not collapse ({early:.3} -> {late:.3})",
                s.dataset
            );
            assert!(
                s.trend >= -1e-3,
                "{}: negative trend {}",
                s.dataset,
                s.trend
            );
            assert!(
                s.final_hit_rate > 0.2,
                "{}: final {}",
                s.dataset,
                s.final_hit_rate
            );
        }
        assert!(format!("{fig}").contains("Fig. 10"));
    }
}
