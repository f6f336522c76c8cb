//! Convergence check (the paper's §V claim: "The GNN's accuracy remains
//! unchanged from the baseline version because our prefetching scheme
//! optimizes the pre-training data pipeline without altering the
//! underlying training process"): run real tensor math in both modes and
//! report per-epoch loss/accuracy plus final validation accuracy — they
//! must be *identical*, not merely close.

use crate::harness::{engine_config, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// The convergence comparison.
pub struct Convergence {
    /// Per-epoch mean loss, baseline.
    pub baseline_loss: Vec<f32>,
    /// Per-epoch mean loss, prefetch.
    pub prefetch_loss: Vec<f32>,
    /// Per-epoch mean minibatch accuracy (identical in both modes).
    pub epoch_acc: Vec<f64>,
    /// Validation accuracy of the final baseline model.
    pub baseline_val_acc: f64,
    /// Validation accuracy of the final prefetch model.
    pub prefetch_val_acc: f64,
    /// Whether the final parameters were bitwise identical.
    pub params_identical: bool,
}

/// Train products-like with real math in both modes and compare.
pub fn run(opts: &Opts) -> Convergence {
    let mut cfg = engine_config(opts, DatasetKind::Products, Backend::Cpu, 2);
    cfg.train_math = true;
    cfg.epochs = (opts.epochs * 2).max(5);
    let engine = Engine::build(cfg);
    let baseline = engine.run();
    let prefetch = engine
        .run_as(Mode::Prefetch(PrefetchConfig {
            f_h: 0.35,
            gamma: 0.995,
            delta: 16,
            ..Default::default()
        }))
        .unwrap();

    Convergence {
        baseline_val_acc: engine.evaluate(&baseline.final_params),
        prefetch_val_acc: engine.evaluate(&prefetch.final_params),
        params_identical: baseline.final_params == prefetch.final_params,
        baseline_loss: baseline.epoch_loss,
        prefetch_loss: prefetch.epoch_loss,
        epoch_acc: prefetch.epoch_acc,
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Convergence — real training math, baseline vs prefetch (products, 2 nodes)"
        )?;
        writeln!(
            f,
            "{:>6} {:>14} {:>14} {:>10}",
            "epoch", "baseline loss", "prefetch loss", "train acc"
        )?;
        for (i, (b, p)) in self
            .baseline_loss
            .iter()
            .zip(&self.prefetch_loss)
            .enumerate()
        {
            writeln!(
                f,
                "{:>6} {:>14.4} {:>14.4} {:>10.3}",
                i, b, p, self.epoch_acc[i]
            )?;
        }
        writeln!(
            f,
            "validation accuracy: baseline {:.3} | prefetch {:.3}",
            self.baseline_val_acc, self.prefetch_val_acc
        )?;
        writeln!(
            f,
            "final parameters bitwise identical: {}",
            self.params_identical
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_identical_and_learning() {
        let mut opts = Opts::quick();
        opts.epochs = 3;
        let c = run(&opts);
        assert!(c.params_identical, "prefetch altered training");
        assert_eq!(c.baseline_loss, c.prefetch_loss);
        assert_eq!(c.baseline_val_acc, c.prefetch_val_acc);
        // And training actually learns.
        let first = c.baseline_loss[0];
        let last = *c.baseline_loss.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
        assert!(format!("{c}").contains("Convergence"));
    }
}
