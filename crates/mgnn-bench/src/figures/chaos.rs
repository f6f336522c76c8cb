//! Chaos experiment: the same seeded training run twice — once clean,
//! once under a deterministic fault profile — with real tensor math.
//!
//! The faulted run exercises the whole robustness ladder (retry with
//! exponential backoff, a respawn booked for the crash, stale buffer
//! rows, zero-fill degradation) and the report reconciles the fault
//! counters against the loss trajectory: training must *complete* and
//! the final-epoch loss must stay within a tolerance of the clean run,
//! because degradation only ever zero-fills the rare rows whose every
//! retry failed. The verdict line carries a machine-readable marker so
//! `repro` can exit non-zero when a chaos run diverges (CI gates on it).
//!
//! Every drop, delay and truncation is keyed on the request (its id and
//! attempt), and the crash of `heavy` meets one request of the
//! designated trainer, counted in that trainer's own order. So chaos
//! runs on the threaded engine, a thread per trainer, and the same
//! `--fault-seed` replays the exact same drops/delays/crash — and the
//! report of the sequential engine — at any `MGNN_THREADS`.

use crate::harness::{engine_config, Opts};
use massivegnn::{Engine, EngineConfig, FaultProfile, Mode, PrefetchConfig, RunReport};
use mgnn_graph::DatasetKind;
use mgnn_net::{Backend, MetricsSnapshot};
use std::fmt;

/// Marker printed on a passing verdict line.
pub const OK_MARKER: &str = "CHAOS VERDICT: OK";
/// Marker printed when the degraded run's loss left the tolerance band;
/// `repro` greps for this and exits non-zero.
pub const DIVERGED_MARKER: &str = "CHAOS VERDICT: DIVERGED";

/// Relative final-loss divergence allowed before the verdict fails.
pub const LOSS_TOLERANCE: f64 = 0.25;

/// Clean-vs-chaos comparison of one seeded training run.
pub struct Chaos {
    /// Profile name that was injected (`light` unless `--fault-profile`).
    pub profile: String,
    /// Chaos seed (`--fault-seed`).
    pub fault_seed: u64,
    /// Per-epoch mean loss without faults.
    pub clean_loss: Vec<f32>,
    /// Per-epoch mean loss under the fault profile.
    pub chaos_loss: Vec<f32>,
    /// Aggregate counters of the faulted run (retries, timeouts,
    /// truncations, disconnects, delays, respawns, stale, degraded).
    pub counters: MetricsSnapshot,
    /// Clean-run makespan (modeled seconds).
    pub clean_makespan_s: f64,
    /// Faulted-run makespan — never smaller: delays, retries and
    /// backoff all charge the simulated clock.
    pub chaos_makespan_s: f64,
    /// `|Δ final loss| / max(|clean|, ε)`.
    pub divergence: f64,
    /// Whether divergence exceeded [`LOSS_TOLERANCE`].
    pub diverged: bool,
}

/// Train products-like clean and under the selected fault profile.
pub fn run(opts: &Opts) -> Chaos {
    let profile = opts
        .fault()
        .unwrap_or_else(|| FaultProfile::light(opts.fault_seed));
    let profile_name = opts.fault_profile.clone().unwrap_or_else(|| "light".into());
    let clean = Engine::build(config(opts, None)).run();
    let chaos = Engine::build(config(opts, Some(profile))).run();

    let divergence = final_loss_divergence(&clean, &chaos);
    Chaos {
        profile: profile_name,
        fault_seed: opts.fault_seed,
        clean_makespan_s: clean.makespan_s,
        chaos_makespan_s: chaos.makespan_s,
        counters: chaos.aggregate_metrics(),
        divergence,
        diverged: divergence > LOSS_TOLERANCE,
        clean_loss: clean.epoch_loss,
        chaos_loss: chaos.epoch_loss,
    }
}

/// The experiment's products-like run, threaded, under `fault`.
fn config(opts: &Opts, fault: Option<FaultProfile>) -> EngineConfig {
    EngineConfig {
        train_math: true,
        parallel: true,
        mode: Mode::Prefetch(PrefetchConfig {
            f_h: 0.25,
            gamma: 0.995,
            delta: 16,
            ..Default::default()
        }),
        fault,
        ..engine_config(opts, DatasetKind::Products, Backend::Cpu, 2)
    }
}

fn final_loss_divergence(clean: &RunReport, chaos: &RunReport) -> f64 {
    match (clean.epoch_loss.last(), chaos.epoch_loss.last()) {
        (Some(&c), Some(&f)) => ((f - c).abs() as f64) / (c.abs() as f64).max(1e-6),
        // A chaos run that produced no losses at all is maximally
        // diverged — the run was supposed to train.
        _ => f64::INFINITY,
    }
}

impl fmt::Display for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chaos — seeded fault injection vs clean run (profile `{}`, fault seed {:#x})",
            self.profile, self.fault_seed
        )?;
        writeln!(
            f,
            "{:>6} {:>12} {:>12}",
            "epoch", "clean loss", "chaos loss"
        )?;
        for (i, (c, x)) in self.clean_loss.iter().zip(&self.chaos_loss).enumerate() {
            writeln!(f, "{:>6} {:>12.4} {:>12.4}", i, c, x)?;
        }
        let m = &self.counters;
        writeln!(
            f,
            "faults: {} retries, {} timeouts, {} truncations, {} disconnects, \
             {} delays, {} respawns",
            m.rpc_retries,
            m.rpc_timeouts,
            m.rpc_truncations,
            m.rpc_disconnects,
            m.rpc_delays,
            m.server_respawns
        )?;
        writeln!(
            f,
            "degradation: {} stale rows kept, {} rows zero-filled",
            m.stale_served, m.degraded_rows
        )?;
        writeln!(
            f,
            "makespan: clean {:.3}s -> chaos {:.3}s (+{:.1}%)",
            self.clean_makespan_s,
            self.chaos_makespan_s,
            (self.chaos_makespan_s / self.clean_makespan_s - 1.0) * 100.0
        )?;
        let marker = if self.diverged {
            DIVERGED_MARKER
        } else {
            OK_MARKER
        };
        writeln!(
            f,
            "{marker} (final-loss divergence {:.4} vs tolerance {:.2})",
            self.divergence, LOSS_TOLERANCE
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn light_chaos_trains_within_tolerance() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let c = run(&opts);
        assert_eq!(c.clean_loss.len(), c.chaos_loss.len());
        assert!(
            c.chaos_makespan_s >= c.clean_makespan_s,
            "faults must never make the simulated run faster"
        );
        assert!(!c.diverged, "light chaos diverged: {}", c.divergence);
        let text = format!("{c}");
        assert!(text.contains(OK_MARKER));
        assert!(!text.contains(DIVERGED_MARKER));
    }

    #[test]
    fn heavy_chaos_reports_fault_activity() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        opts.fault_profile = Some("heavy".into());
        opts.fault_seed = 99;
        let c = run(&opts);
        let m = &c.counters;
        assert!(
            m.rpc_retries + m.rpc_delays + m.rpc_disconnects > 0,
            "heavy profile injected nothing"
        );
        assert_eq!(m.server_respawns, 1, "one crash, one respawn");
        assert!(c.chaos_makespan_s > c.clean_makespan_s);
        assert!(format!("{c}").contains("respawns"));
        // The threaded run is the sequential one, crash included.
        let threaded = config(&opts, opts.fault());
        assert!(threaded.parallel);
        let sequential = EngineConfig {
            parallel: false,
            ..threaded.clone()
        };
        let report = |cfg| {
            let r = Engine::build(cfg).run();
            (serde_json::to_string(&r.to_value()), r.final_params)
        };
        assert_eq!(report(threaded), report(sequential));
    }
}
