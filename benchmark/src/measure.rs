//! The untraced pass: timed repetitions of `Engine::build` + `run`, the
//! end-to-end metrics they give, and the output check.

use crate::host;
use crate::stats::Summary;
use crate::workloads::Workload;
use massivegnn::{Engine, EngineConfig, Mode, RunReport};
use mgnn_net::MetricsSnapshot;
use std::time::Instant;

/// A timed repetition never runs fewer times than this, whatever
/// `--seconds` says: a median of two is not a median.
pub const MIN_REPS: usize = 3;
/// Upper limit on repetitions, should a later change make one very short.
const MAX_REPS: usize = 40;

/// Where a number comes from, which decides whether it must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `RunReport` of an untraced run: exact counts and simulated
    /// seconds, bit-equal between runs of one commit at one seed.
    Report,
    /// Wall clock, CPU time or RSS of untraced engine runs.
    Wall,
    /// Wall clock of calls the layer drive makes, and counts it reads.
    Drive,
    /// Traced or telemetry-on engine run against the untraced ones.
    Traced,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Report => "R",
            Source::Wall => "W",
            Source::Drive => "D",
            Source::Traced => "T",
        }
    }
}

/// One named measurement with the spread of its repetitions.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub source: Source,
    pub summary: Summary,
}

impl Measured {
    pub fn exact(name: &'static str, source: Source, v: f64) -> Measured {
        Measured {
            name,
            source,
            summary: Summary::exact(v),
        }
    }

    pub fn of(name: &'static str, source: Source, raw: Vec<f64>) -> Measured {
        Measured {
            name,
            source,
            summary: Summary::of(raw),
        }
    }
}

/// One verdict of the output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// One `Engine::build` + `run`, timed from outside.
pub struct Rep {
    pub build_s: f64,
    pub run_s: f64,
    /// Process CPU time (user + system) across `run`.
    pub cpu_s: f64,
    pub report: RunReport,
}

/// Build and run `cfg` once. The engine is built per repetition because
/// the fault plans index requests per server: a reused cluster would not
/// replay the same verdicts.
pub fn repetition(cfg: &EngineConfig) -> Rep {
    let t0 = Instant::now();
    let engine = Engine::build(cfg.clone());
    let build_s = t0.elapsed().as_secs_f64();
    let cpu0 = host::cpu_time_s();
    let t1 = Instant::now();
    let report = engine.run();
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_time_s() - cpu0;
    Rep {
        build_s,
        run_s,
        cpu_s,
        report,
    }
}

/// Synchronized steps of one run.
pub fn total_steps(cfg: &EngineConfig, report: &RunReport) -> usize {
    cfg.epochs * report.steps_per_epoch
}

/// An operation is one remote feature row requested over RPC (misses,
/// replacements, planned and initial rows alike).
pub fn attempted_ops(agg: &MetricsSnapshot) -> u64 {
    agg.remote_nodes_fetched
}

/// A failed operation is a row a trainer consumed zero-filled, or a
/// stale resident served because its replacement never arrived.
pub fn failed_ops(agg: &MetricsSnapshot) -> u64 {
    agg.degraded_rows + agg.stale_served
}

/// `failed_ops / attempted_ops`, 0 when nothing was requested.
pub fn failed_ops_frac(agg: &MetricsSnapshot) -> f64 {
    match attempted_ops(agg) {
        0 => 0.0,
        n => failed_ops(agg) as f64 / n as f64,
    }
}

/// Everything a run computes must repeat bit for bit: simulated time,
/// every counter, every loss and parameter. Returns what differed.
pub fn same_outputs(a: &RunReport, b: &RunReport) -> Result<(), String> {
    if a.makespan_s.to_bits() != b.makespan_s.to_bits() {
        return Err(format!("makespan_s {} vs {}", a.makespan_s, b.makespan_s));
    }
    if (a.steps_per_epoch, a.world) != (b.steps_per_epoch, b.world) {
        return Err("steps_per_epoch/world differ".into());
    }
    for (t, (x, y)) in a.trainers.iter().zip(&b.trainers).enumerate() {
        if x.metrics != y.metrics {
            return Err(format!(
                "trainer {t} counters {:?} vs {:?}",
                x.metrics, y.metrics
            ));
        }
        if x.sim_time_s.to_bits() != y.sim_time_s.to_bits() {
            return Err(format!(
                "trainer {t} sim_time_s {} vs {}",
                x.sim_time_s, y.sim_time_s
            ));
        }
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&a.epoch_loss) != bits(&b.epoch_loss) {
        return Err(format!(
            "epoch_loss {:?} vs {:?}",
            a.epoch_loss, b.epoch_loss
        ));
    }
    if bits(&a.final_params) != bits(&b.final_params) {
        return Err("final_params differ".into());
    }
    Ok(())
}

/// The per-workload part of the output check, on one run's report.
fn workload_checks(cfg: &EngineConfig, report: &RunReport, quick: bool, out: &mut Vec<Check>) {
    let agg = report.aggregate_metrics();
    if cfg.train_math {
        let finite = report.epoch_loss.iter().all(|l| l.is_finite());
        let (first, last) = (
            report.epoch_loss.first().copied().unwrap_or(f32::NAN),
            report.epoch_loss.last().copied().unwrap_or(f32::NAN),
        );
        out.push(Check::new(
            "loss_finite_and_decreasing",
            finite && last < first && report.epoch_loss.len() == cfg.epochs,
            format!("epoch_loss {:?}", report.epoch_loss),
        ));
    }
    if matches!(cfg.mode, Mode::Baseline) {
        // Baseline pulls every sampled halo row and nothing else. The
        // report keeps the sampled count only as a per-batch mean share
        // of the halo set; undo the division (exact up to f64 rounding).
        let sampled: u64 = report
            .trainers
            .iter()
            .map(|t| {
                (t.remote_sampled_frac * t.hits.len() as f64 * t.num_halo as f64).round() as u64
            })
            .sum();
        out.push(Check::new(
            "baseline_bypasses_buffer",
            report.hit_rate() == 0.0 && agg.remote_nodes_fetched == sampled && sampled > 0,
            format!(
                "hit_rate {} remote_rows {} sampled_halo_rows {sampled}",
                report.hit_rate(),
                agg.remote_nodes_fetched
            ),
        ));
    }
    if cfg.fault.is_some() {
        out.push(Check::new(
            "fault_ladder_worked",
            agg.rpc_retries > 0 && agg.server_respawns == 1,
            format!(
                "retries {} respawns {} timeouts {} truncations {}",
                agg.rpc_retries, agg.server_respawns, agg.rpc_timeouts, agg.rpc_truncations
            ),
        ));
    } else {
        out.push(Check::new(
            "no_faults_without_profile",
            !agg.had_faults(),
            format!(
                "retries {} timeouts {} truncations {} delays {} respawns {}",
                agg.rpc_retries,
                agg.rpc_timeouts,
                agg.rpc_truncations,
                agg.rpc_delays,
                agg.server_respawns
            ),
        ));
    }
    if let Mode::Prefetch(p) = cfg.mode {
        let lookahead = p.policy.name() == "lookahead";
        out.push(Check::new(
            "policy_counters_match_policy",
            (agg.planned_pulls > 0) == lookahead && (lookahead || quick || agg.evictions > 0),
            format!(
                "policy {} planned_pulls {} evictions {}",
                p.policy.name(),
                agg.planned_pulls,
                agg.evictions
            ),
        ));
    }
    out.push(Check::new(
        "no_failed_operations",
        failed_ops(&agg) == 0,
        format!(
            "degraded_rows {} stale_served {} of {} rows",
            agg.degraded_rows,
            agg.stale_served,
            attempted_ops(&agg)
        ),
    ));
}

/// Result of the untraced pass.
pub struct EndToEnd {
    pub metrics: Vec<Measured>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub steps: usize,
    pub reps: usize,
    /// Report of the first timed repetition (all are identical).
    pub report: RunReport,
    /// Wall seconds of each timed `run()`, in order.
    pub run_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

/// When the timed repetitions of a pass end.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once this many seconds of `run()` wall time have been measured,
    /// and never before [`MIN_REPS`] repetitions.
    AfterSeconds(f64),
    /// After exactly this many repetitions.
    AfterReps(usize),
}

/// One warm-up, then timed repetitions until `stop` says so. Tracing and
/// telemetry are off.
pub fn end_to_end(w: &Workload, seed: u64, stop: Stop, quick: bool) -> EndToEnd {
    let cfg = w.config(seed, quick);
    assert!(!cfg.trace && !cfg.telemetry, "end-to-end runs are untraced");

    // Warm-up: page in the binary, size the allocator's arenas, spin up
    // the kernel pool. A trainer pays none of this per epoch.
    drop(repetition(&cfg));

    let mut run_s = Vec::new();
    let mut build_s = Vec::new();
    let mut cpu_s = Vec::new();
    let mut first: Option<RunReport> = None;
    let mut checks = Vec::new();
    let mut mismatch = None;
    loop {
        let rep = repetition(&cfg);
        run_s.push(rep.run_s);
        build_s.push(rep.build_s);
        cpu_s.push(rep.cpu_s);
        match &first {
            None => first = Some(rep.report),
            // A count that differs between repetitions (a spurious
            // timeout, say) is a failed run, not something to average.
            Some(f) => {
                if let Err(e) = same_outputs(f, &rep.report) {
                    mismatch.get_or_insert(format!("repetition {}: {e}", run_s.len()));
                }
            }
        }
        let n = run_s.len();
        let done = match stop {
            Stop::AfterReps(r) => n >= r,
            Stop::AfterSeconds(s) => n >= MIN_REPS && run_s.iter().sum::<f64>() >= s,
        };
        if done || n >= MAX_REPS {
            break;
        }
    }
    let report = first.expect("at least one repetition ran");
    checks.push(Check::new(
        "repetitions_identical",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| format!("{} repetitions bit-equal", run_s.len())),
    ));
    workload_checks(&cfg, &report, quick, &mut checks);

    let steps = total_steps(&cfg, &report);
    let agg = report.aggregate_metrics();
    let epochs = cfg.epochs as f64;
    let per_step = |v: &[f64], scale: f64| v.iter().map(|x| x * scale / steps as f64).collect();
    let metrics = vec![
        Measured::of(
            "steps_per_s",
            Source::Wall,
            run_s.iter().map(|s| steps as f64 / s).collect(),
        ),
        Measured::of("cpu_ms_per_step", Source::Wall, per_step(&cpu_s, 1e3)),
        Measured::exact(
            "sim_step_ms",
            Source::Report,
            report.makespan_s * 1e3 / steps as f64,
        ),
        Measured::exact(
            "remote_mb_per_step",
            Source::Report,
            agg.remote_bytes as f64 / 1e6 / steps as f64,
        ),
        Measured::exact("peak_rss_mb", Source::Wall, host::peak_rss_mb()),
        Measured::of("setup_s", Source::Wall, build_s.clone()),
        Measured::exact(
            crate::spec::FAILED_OPS_FRAC,
            Source::Report,
            failed_ops_frac(&agg),
        ),
        Measured::exact("sim_epoch_s", Source::Report, report.makespan_s / epochs),
        Measured::exact(
            "remote_mb_per_epoch",
            Source::Report,
            agg.remote_bytes as f64 / 1e6 / epochs,
        ),
    ];
    EndToEnd {
        metrics,
        checks,
        attempted: attempted_ops(&agg),
        failed: failed_ops(&agg),
        steps,
        reps: run_s.len(),
        report,
        run_s,
        build_s,
    }
}
