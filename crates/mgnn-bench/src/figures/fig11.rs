//! Fig. 11: remote nodes fetched per trainer, prefetch vs baseline, plus
//! the communication-time reduction (§V-B5: 23% fewer remote fetches in
//! papers, 15% in products; communication time cut ~44–50%).

use crate::harness::{engine_config, layout_for, per_trainer_mean, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One dataset's comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Remote nodes fetched per trainer, baseline (mean).
    pub baseline_remote: f64,
    /// Remote nodes fetched per trainer, prefetch (mean, including
    /// initialization and replacement fetches).
    pub prefetch_remote: f64,
    /// Baseline communication stall time (s, mean per trainer):
    /// `t_RPC − t_copy` (Eq. 9).
    pub baseline_comm_s: f64,
    /// Prefetch communication stall time (s).
    pub prefetch_comm_s: f64,
}

impl Row {
    /// Reduction in remote nodes fetched (%).
    pub fn remote_reduction_pct(&self) -> f64 {
        crate::harness::improvement_pct(self.baseline_remote, self.prefetch_remote)
    }

    /// Reduction in communication time (%).
    pub fn comm_reduction_pct(&self) -> f64 {
        crate::harness::improvement_pct(self.baseline_comm_s, self.prefetch_comm_s)
    }
}

/// The figure.
pub struct Fig11 {
    /// Products and papers rows.
    pub rows: Vec<Row>,
}

/// Compare on 4 nodes (16 trainers, as in the paper's Fig. 11).
pub fn run(opts: &Opts) -> Fig11 {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Products, DatasetKind::Papers] {
        let engine = Engine::build(engine_config(opts, kind, Backend::Cpu, 4));
        let baseline = engine.run();
        let prefetch = engine
            .run_as(Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma: 0.995,
                delta: 64,
                layout: layout_for(kind),
                ..Default::default()
            }))
            .unwrap();
        let remote = |r| per_trainer_mean(r, |t| t.metrics.remote_nodes_fetched as f64);
        let comm = |r| per_trainer_mean(r, |t| t.breakdown.communication_stall_s());
        rows.push(Row {
            dataset: kind.name(),
            baseline_remote: remote(&baseline),
            prefetch_remote: remote(&prefetch),
            baseline_comm_s: comm(&baseline),
            prefetch_comm_s: comm(&prefetch),
        });
    }
    Fig11 { rows }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 11 — remote nodes fetched & communication time (16 trainers)"
        )?;
        writeln!(
            f,
            "{:<10} {:>14} {:>14} {:>9} | {:>12} {:>12} {:>9}",
            "dataset",
            "base remote",
            "pref remote",
            "red(%)",
            "base comm(s)",
            "pref comm(s)",
            "red(%)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>14.0} {:>14.0} {:>9.1} | {:>12.4} {:>12.4} {:>9.1}",
                r.dataset,
                r.baseline_remote,
                r.prefetch_remote,
                r.remote_reduction_pct(),
                r.baseline_comm_s,
                r.prefetch_comm_s,
                r.comm_reduction_pct()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_reduces_remote_and_comm() {
        let mut opts = Opts::quick();
        opts.epochs = 3;
        let fig = run(&opts);
        for r in &fig.rows {
            assert!(
                r.remote_reduction_pct() > 0.0,
                "{}: remote fetches should drop, got {:.1}%",
                r.dataset,
                r.remote_reduction_pct()
            );
            assert!(
                r.comm_reduction_pct() > 0.0,
                "{}: communication should drop, got {:.1}%",
                r.dataset,
                r.comm_reduction_pct()
            );
        }
        assert!(format!("{fig}").contains("Fig. 11"));
    }
}
