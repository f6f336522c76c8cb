//! Eq. 6 validation: the analytical improvement factor
//! `t_RPC/t_DDP + 1` against the *simulated* end-to-end improvement, as a
//! function of the communication/compute ratio. The model should track the
//! simulation in the perfect-overlap (CPU) regime and over-predict once
//! overlap breaks (GPU regime) — exactly the caveat §IV-C spells out.

use crate::harness::{engine_config, per_trainer_mean, Opts};
use massivegnn::perfmodel;
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One point of the model-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Point {
    /// Backend name.
    pub backend: &'static str,
    /// Measured mean `t_RPC / t_DDP` ratio in the baseline run.
    pub rpc_over_ddp: f64,
    /// Eq. 6's predicted improvement factor (`ratio + 1`).
    pub predicted_factor: f64,
    /// Simulated improvement factor `T_baseline / T_prefetch`.
    pub measured_factor: f64,
    /// Overlap efficiency of the prefetch run.
    pub overlap_efficiency: f64,
}

/// The comparison.
pub struct PerfModel {
    /// CPU and GPU points.
    pub points: Vec<Point>,
}

/// Run baseline + prefetch on both backends and compare with Eq. 6.
pub fn run(opts: &Opts) -> PerfModel {
    let mut points = Vec::new();
    for backend in [Backend::Cpu, Backend::Gpu] {
        let engine = Engine::build(engine_config(opts, DatasetKind::Products, backend, 2));
        let baseline = engine.run();
        let prefetch = engine
            .run_as(Mode::Prefetch(PrefetchConfig {
                f_h: 0.5,
                gamma: 0.995,
                delta: 64,
                ..Default::default()
            }))
            .unwrap();

        let rpc = per_trainer_mean(&baseline, |t| t.breakdown.rpc_s);
        let ddp = per_trainer_mean(&baseline, |t| t.breakdown.train_s);
        points.push(Point {
            backend: backend.name(),
            rpc_over_ddp: rpc / ddp,
            predicted_factor: perfmodel::improvement_factor_simplified(&perfmodel::Components {
                t_rpc: rpc,
                t_ddp: ddp,
                ..Default::default()
            }),
            measured_factor: baseline.makespan_s / prefetch.makespan_s,
            overlap_efficiency: prefetch.mean_overlap_efficiency(),
        });
    }
    PerfModel { points }
}

impl fmt::Display for PerfModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Eq. 6 — analytical improvement factor vs simulation (products, 2 nodes)"
        )?;
        writeln!(
            f,
            "{:<4} {:>12} {:>16} {:>15} {:>10}",
            "dev", "t_RPC/t_DDP", "predicted factor", "measured factor", "overlap%"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:<4} {:>12.3} {:>16.3} {:>15.3} {:>10.0}",
                p.backend,
                p.rpc_over_ddp,
                p.predicted_factor,
                p.measured_factor,
                100.0 * p.overlap_efficiency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation_in_overlap_regime() {
        let mut opts = Opts::quick();
        opts.hidden_dim = 128;
        opts.epochs = 3;
        let pm = run(&opts);
        let cpu = pm.points.iter().find(|p| p.backend == "CPU").unwrap();
        // Perfect overlap: measured should approach the prediction but the
        // prediction is an upper bound (hit rate < 100%, Eq. 6's
        // assumptions are optimistic).
        assert!(
            cpu.measured_factor > 1.0,
            "measured {}",
            cpu.measured_factor
        );
        assert!(
            cpu.predicted_factor >= cpu.measured_factor * 0.8,
            "prediction {} should not undercut measurement {} badly",
            cpu.predicted_factor,
            cpu.measured_factor
        );
        let gpu = pm.points.iter().find(|p| p.backend == "GPU").unwrap();
        assert!(
            gpu.rpc_over_ddp > cpu.rpc_over_ddp,
            "GPU shifts the ratio up"
        );
        assert!(format!("{pm}").contains("Eq. 6"));
    }
}
