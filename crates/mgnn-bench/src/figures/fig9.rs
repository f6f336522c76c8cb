//! Fig. 9: component-wise time breakdown of *current-minibatch training*
//! overlapped with *next-minibatch preparation*, and the resulting overlap
//! efficiency — 100% on CPU (training long enough to hide preparation),
//! 60–70% on GPU in the paper.

use crate::harness::{engine_config, layout_for, per_trainer_mean, Opts};
use massivegnn::engine::TrainerReport;
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One (dataset, backend) breakdown.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Backend name.
    pub backend: &'static str,
    /// Mean per-trainer sampling time (s).
    pub sampling_s: f64,
    /// Mean lookup time (s).
    pub lookup_s: f64,
    /// Mean scoring time (s).
    pub scoring_s: f64,
    /// Mean eviction time (s).
    pub evict_s: f64,
    /// Mean RPC time (s).
    pub rpc_s: f64,
    /// Mean local copy time (s).
    pub copy_s: f64,
    /// Mean DDP training time (s).
    pub train_s: f64,
    /// Mean stall time (s).
    pub stall_s: f64,
    /// Mean overlap efficiency [0, 1].
    pub overlap_efficiency: f64,
}

/// The figure.
pub struct Fig9 {
    /// Rows across datasets × backends.
    pub rows: Vec<Row>,
}

/// Breakdown on 4 nodes, products and papers, both backends.
pub fn run(opts: &Opts) -> Fig9 {
    let mut rows = Vec::new();
    // The paper trains with hidden size 256; the CPU-perfect / GPU-partial
    // overlap split is a property of that compute weight, so this figure
    // pins it rather than using the harness default.
    let mut opts = opts.clone();
    opts.hidden_dim = opts.hidden_dim.max(256);
    let opts = &opts;
    for kind in [DatasetKind::Products, DatasetKind::Papers] {
        for backend in [Backend::Cpu, Backend::Gpu] {
            let mut cfg = engine_config(opts, kind, backend, 4);
            cfg.mode = Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma: 0.995,
                delta: 64,
                layout: layout_for(kind),
                ..Default::default()
            });
            let report = Engine::build(cfg).run();
            let b = |f: fn(&TrainerReport) -> f64| per_trainer_mean(&report, f);
            rows.push(Row {
                dataset: kind.name(),
                backend: backend.name(),
                sampling_s: b(|t| t.breakdown.sampling_s),
                lookup_s: b(|t| t.breakdown.lookup_s),
                scoring_s: b(|t| t.breakdown.scoring_s),
                evict_s: b(|t| t.breakdown.evict_s),
                rpc_s: b(|t| t.breakdown.rpc_s),
                copy_s: b(|t| t.breakdown.copy_s),
                train_s: b(|t| t.breakdown.train_s),
                stall_s: b(|t| t.stall_s),
                overlap_efficiency: report.mean_overlap_efficiency(),
            });
        }
    }
    Fig9 { rows }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 9 — per-trainer component breakdown with prefetching (4 nodes)"
        )?;
        writeln!(
            f,
            "{:<10} {:<4} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}",
            "dataset",
            "dev",
            "sample(s)",
            "lookup",
            "score",
            "evict",
            "rpc",
            "copy",
            "train(s)",
            "stall",
            "overlap%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:<4} {:>9.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>9.4} {:>8.4} {:>9.0}",
                r.dataset,
                r.backend,
                r.sampling_s,
                r.lookup_s,
                r.scoring_s,
                r.evict_s,
                r.rpc_s,
                r.copy_s,
                r.train_s,
                r.stall_s,
                100.0 * r.overlap_efficiency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_overlap_exceeds_gpu() {
        let mut opts = Opts::quick();
        opts.hidden_dim = 128; // compute-heavy enough for the CPU regime
        let fig = run(&opts);
        for kind in ["products", "papers"] {
            let cpu = fig
                .rows
                .iter()
                .find(|r| r.dataset == kind && r.backend == "CPU")
                .unwrap();
            let gpu = fig
                .rows
                .iter()
                .find(|r| r.dataset == kind && r.backend == "GPU")
                .unwrap();
            assert!(
                cpu.overlap_efficiency >= gpu.overlap_efficiency,
                "{kind}: cpu {} < gpu {}",
                cpu.overlap_efficiency,
                gpu.overlap_efficiency
            );
            assert!(
                cpu.train_s > gpu.train_s,
                "{kind}: CPU training must be slower"
            );
        }
        assert!(format!("{fig}").contains("Fig. 9"));
    }
}
