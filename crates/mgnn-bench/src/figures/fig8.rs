//! Fig. 8: prefetcher initialization cost (component-wise) for products
//! and papers on 4 CPU nodes, and its share of total training time —
//! the paper finds it below 1% of end-to-end time.

use crate::harness::{engine_config, layout_for, per_trainer_mean, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One dataset's initialization profile.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Mean per-trainer selection time (s).
    pub selection_s: f64,
    /// Mean per-trainer bulk-fetch time (s).
    pub fetch_s: f64,
    /// Mean per-trainer buffer-populate time (s).
    pub populate_s: f64,
    /// Mean per-trainer scoreboard-init time (s).
    pub scoreboard_s: f64,
    /// Initialization share of total training time (%).
    pub pct_of_training: f64,
}

/// The figure.
pub struct Fig8 {
    /// One row per dataset.
    pub rows: Vec<Row>,
}

/// Profile initialization on 4 CPU nodes for products and papers.
pub fn run(opts: &Opts) -> Fig8 {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Products, DatasetKind::Papers] {
        let mut cfg = engine_config(opts, kind, Backend::Cpu, 4);
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            f_h: 0.25,
            layout: layout_for(kind),
            ..Default::default()
        });
        let report = Engine::build(cfg).run();
        rows.push(Row {
            dataset: kind.name(),
            selection_s: per_trainer_mean(&report, |t| t.init.selection_s),
            fetch_s: per_trainer_mean(&report, |t| t.init.fetch_s),
            populate_s: per_trainer_mean(&report, |t| t.init.populate_s),
            scoreboard_s: per_trainer_mean(&report, |t| t.init.scoreboard_s),
            pct_of_training: 100.0 * report.total_init_s()
                / (report.trainers.iter().map(|t| t.sim_time_s).sum::<f64>()),
        });
    }
    Fig8 { rows }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8 — prefetcher initialization cost (4 CPU nodes, per trainer)"
        )?;
        writeln!(
            f,
            "{:<10} {:>12} {:>10} {:>12} {:>13} {:>12}",
            "dataset", "selection(s)", "fetch(s)", "populate(s)", "scoreboard(s)", "% of train"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>12.6} {:>10.6} {:>12.6} {:>13.6} {:>12.2}",
                r.dataset,
                r.selection_s,
                r.fetch_s,
                r.populate_s,
                r.scoreboard_s,
                r.pct_of_training
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_cost_amortizes_with_epochs() {
        // The paper's "<1% of training" holds at 100 epochs; the testable
        // invariant at quick scale is that the one-time cost's share
        // shrinks as training lengthens.
        let mut short = Opts::quick();
        short.epochs = 2;
        let fig_short = run(&short);
        let mut long = Opts::quick();
        long.epochs = 10;
        let fig_long = run(&long);
        for (s, l) in fig_short.rows.iter().zip(&fig_long.rows) {
            assert!(
                l.pct_of_training < s.pct_of_training,
                "{}: share should amortize ({:.1}% -> {:.1}%)",
                s.dataset,
                s.pct_of_training,
                l.pct_of_training
            );
            assert!(
                l.pct_of_training < 15.0,
                "{}: {:.1}%",
                l.dataset,
                l.pct_of_training
            );
            assert!(s.fetch_s > 0.0);
            // RPC fetch dominates the other components (bulk features).
            assert!(s.fetch_s > s.populate_s);
        }
        assert!(format!("{fig_short}").contains("Fig. 8"));
    }
}
