//! Prefetch-policy study (beyond the paper's figures): the paper's
//! future work proposes "options to prefetch future minibatches … towards
//! a sustainable 'perfect overlap' model". Because the sampler and the
//! epoch plan are both seeded, every future minibatch's halo needs are
//! *computable* — the lookahead policy (DESIGN §10) samples the memoized
//! epoch plan a window of `depth + 1` steps at a time and pulls the
//! window's not-yet-resident rows in one request before they are due,
//! off the critical RPC path. This study compares the
//! paper's reactive scoreboard against lookahead at increasing depths on
//! the same seed: cumulative hit rate should approach 100% and the
//! critical-path remote-fetch time should collapse into `planned_s`.
//! Communication volume is printed beside time, as RapidGNN reports it:
//! a planner that re-fetches what it has just evicted shows up in
//! `remote MB` and `planned rows` before it shows up anywhere else.

use crate::harness::{engine_config, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig, PrefetchPolicyKind};
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One policy's outcome on the shared seed.
#[derive(Debug, Clone)]
pub struct Point {
    /// Report label (`Mode::label()`).
    pub label: String,
    /// Cumulative buffer hit rate over the whole run.
    pub hit_rate: f64,
    /// Critical-path remote fetch time (breakdown `rpc_s`, all trainers).
    pub rpc_s: f64,
    /// Planner pull time charged off the critical path (`planned_s`).
    pub planned_s: f64,
    /// Rows the planner's pulls carried (all trainers).
    pub planned_rows: u64,
    /// Communication volume: every byte that crossed the network, demand
    /// and planned alike (all trainers, MB).
    pub remote_mb: f64,
    /// Makespan (s).
    pub time_s: f64,
    /// Mean stall per trainer (s).
    pub stall_s: f64,
}

/// The study: scoreboard vs lookahead-at-depths, plus the DistDGL
/// baseline for reference.
pub struct Lookahead {
    /// First point is the scoreboard; the rest are lookahead depths.
    pub points: Vec<Point>,
    /// Baseline (DistDGL) time for reference.
    pub baseline_s: f64,
}

fn measure(cfg: massivegnn::EngineConfig) -> Point {
    let label = cfg.mode.label();
    let r = Engine::build(cfg).run();
    let n = r.trainers.len() as f64;
    let agg = r.aggregate_metrics();
    Point {
        label,
        hit_rate: r.hit_rate(),
        rpc_s: r.trainers.iter().map(|t| t.breakdown.rpc_s).sum(),
        planned_s: r.trainers.iter().map(|t| t.breakdown.planned_s).sum(),
        planned_rows: agg.planned_rows,
        remote_mb: agg.remote_bytes as f64 / 1e6,
        time_s: r.makespan_s,
        stall_s: r.trainers.iter().map(|t| t.stall_s).sum::<f64>() / n,
    }
}

/// Run scoreboard and lookahead on the same seed. With `--policy
/// lookahead --depth N` only that depth is measured; otherwise depths
/// {1, 2, 4} are swept. One planned pull serves `depth + 1` steps, so a
/// deeper horizon is cheaper whenever the buffer holds the window's
/// working set (it does here, at `f_h` 0.5) and no worse when it does
/// not: the planner then comes back as rows fall due.
pub fn run(opts: &Opts) -> Lookahead {
    // Pin the sampling shape: with the repro CLI's paper-shaped batch
    // size and fanouts on a unit-scale graph, a single minibatch
    // samples most of the halo and *every* policy degenerates to
    // capacity starvation (cf. `Opts::longrun_of` for the eviction
    // figures). A modest sampled set keeps the depth sweep meaningful.
    let mut sopts = opts.clone();
    sopts.batch_size = sopts.batch_size.min(96);
    sopts.fanouts = vec![5, 10];
    let mut base = engine_config(&sopts, DatasetKind::Products, Backend::Gpu, 2);
    base.epochs = (opts.epochs * 2).max(4); // several steady epochs
    let baseline = Engine::build(base.clone()).run();
    let pcfg = PrefetchConfig {
        f_h: 0.5,
        gamma: 0.995,
        delta: 64,
        ..Default::default()
    };
    let mut points = Vec::new();
    let mut cfg = base.clone();
    cfg.mode = Mode::Prefetch(pcfg);
    points.push(measure(cfg));
    let depths: Vec<usize> = match opts.policy {
        PrefetchPolicyKind::Lookahead { depth } => vec![depth],
        PrefetchPolicyKind::Scoreboard => vec![1, 2, 4],
    };
    for depth in depths {
        let mut cfg = base.clone();
        cfg.mode = Mode::Prefetch(pcfg.with_lookahead_policy(depth));
        points.push(measure(cfg));
    }
    Lookahead {
        points,
        baseline_s: baseline.makespan_s,
    }
}

impl fmt::Display for Lookahead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Prefetch policy study — scoreboard vs deterministic lookahead (baseline {:.3}s)",
            self.baseline_s
        )?;
        writeln!(
            f,
            "{:>28} {:>8} {:>10} {:>11} {:>13} {:>10} {:>10} {:>10}",
            "policy",
            "hit%",
            "rpc(s)",
            "planned(s)",
            "planned rows",
            "remote MB",
            "time(s)",
            "stall(s)"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>28} {:>8.2} {:>10.4} {:>11.4} {:>13} {:>10.3} {:>10.4} {:>10.4}",
                p.label,
                100.0 * p.hit_rate,
                p.rpc_s,
                p.planned_s,
                p.planned_rows,
                p.remote_mb,
                p.time_s,
                p.stall_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_beats_scoreboard_on_hits_and_critical_path() {
        let mut opts = Opts::quick();
        opts.epochs = 3;
        let study = run(&opts);
        let scoreboard = &study.points[0];
        assert!(scoreboard.label.contains("Evict"));
        assert_eq!(scoreboard.planned_s, 0.0, "scoreboard must not plan");
        assert_eq!(scoreboard.planned_rows, 0, "scoreboard must not plan");
        assert!(scoreboard.remote_mb > 0.0);
        for p in &study.points[1..] {
            assert!(p.label.contains("Lookahead"));
            assert!(
                p.hit_rate > scoreboard.hit_rate,
                "{}: hit rate {:.4} not above scoreboard {:.4}",
                p.label,
                p.hit_rate,
                scoreboard.hit_rate
            );
            assert!(
                p.rpc_s < scoreboard.rpc_s,
                "{}: critical-path rpc {:.4}s not below scoreboard {:.4}s",
                p.label,
                p.rpc_s,
                scoreboard.rpc_s
            );
            assert!(p.planned_s > 0.0, "{}: planner never pulled", p.label);
            // Volume beside time: every planned row is a row on the wire.
            assert!(p.planned_rows > 0, "{}: no planned rows", p.label);
            assert!(p.remote_mb > 0.0, "{}: no bytes moved", p.label);
        }
        // The planner re-runs the exact future sampler, so steady-state
        // demand lookups should essentially always hit.
        let deepest = study.points.last().unwrap();
        assert!(
            deepest.hit_rate > 0.95,
            "deepest lookahead hit rate {:.4} not near 1",
            deepest.hit_rate
        );
        assert!(format!("{study}").contains("policy study"));
    }
}
