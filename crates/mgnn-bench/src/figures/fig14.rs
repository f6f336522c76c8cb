//! Fig. 14: peak memory in the deliberately extreme configuration
//! (`f_p^h = 0.5`, `Δ = 1`, `γ = 0.95` — evicting every minibatch) on the
//! papers-like input, 2 CPU nodes, 2 epochs: initialization allocations
//! are prefetch-only (~buffer + scoreboards); training peaks differ
//! mildly (the paper reports ~10% extra).

use crate::harness::{engine_config, layout_for, per_trainer_mean, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// Peak-memory comparison.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// Mean per-trainer persistent prefetcher bytes (init phase).
    pub init_bytes_per_trainer: usize,
    /// Mean per-trainer peak bytes during baseline training.
    pub baseline_train_peak: usize,
    /// Mean per-trainer peak bytes during prefetch training.
    pub prefetch_train_peak: usize,
    /// Evictions performed (sanity: Δ=1 must evict very often).
    pub evictions: u64,
}

impl Fig14 {
    /// Training-phase overhead of prefetching (%).
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_train_peak == 0 {
            0.0
        } else {
            100.0 * (self.prefetch_train_peak as f64 / self.baseline_train_peak as f64 - 1.0)
        }
    }
}

/// Run the extreme configuration.
pub fn run(opts: &Opts) -> Fig14 {
    let mut base = engine_config(opts, DatasetKind::Papers, Backend::Cpu, 2);
    base.epochs = 2;
    let engine = Engine::build(base);
    let baseline = engine.run();
    let prefetch = engine
        .run_as(Mode::Prefetch(PrefetchConfig {
            f_h: 0.5,
            gamma: 0.95,
            delta: 1,
            layout: layout_for(DatasetKind::Papers),
            ..Default::default()
        }))
        .unwrap();
    Fig14 {
        init_bytes_per_trainer: per_trainer_mean(&prefetch, |t| t.init.persistent_bytes),
        baseline_train_peak: per_trainer_mean(&baseline, |t| t.peak_bytes),
        prefetch_train_peak: per_trainer_mean(&prefetch, |t| t.peak_bytes),
        evictions: prefetch.aggregate_metrics().evictions,
    }
}

impl fmt::Display for Fig14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 14 — peak memory, papers-like on 2 CPU nodes, extreme config (f=0.5, Δ=1, γ=0.95)"
        )?;
        writeln!(
            f,
            "init (prefetch only):     {:>12} KiB/trainer",
            self.init_bytes_per_trainer / 1024
        )?;
        writeln!(
            f,
            "training peak (baseline): {:>12} KiB/trainer",
            self.baseline_train_peak / 1024
        )?;
        writeln!(
            f,
            "training peak (prefetch): {:>12} KiB/trainer  (+{:.1}%)",
            self.prefetch_train_peak / 1024,
            self.overhead_pct()
        )?;
        writeln!(f, "evictions under Δ=1:      {:>12}", self.evictions)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_config_behaves_like_paper() {
        let opts = Opts::quick();
        let fig = run(&opts);
        // Init allocations exist only in prefetch mode.
        assert!(fig.init_bytes_per_trainer > 0);
        // Prefetch training peak exceeds baseline but not absurdly.
        assert!(fig.prefetch_train_peak > fig.baseline_train_peak);
        // Δ=1 with γ=0.95 evicts a lot.
        assert!(fig.evictions > 0);
        assert!(format!("{fig}").contains("Fig. 14"));
    }
}
