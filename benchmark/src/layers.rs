//! The traced pass: per-layer metrics from three sources.
//!
//! * **[R]** the `RunReport` of an untraced run: exact counts and
//!   simulated seconds. Event counts are summed over trainers; simulated
//!   seconds and state sizes are the mean over trainers (so
//!   `sim_train_s_per_epoch` is a floor of `sim_epoch_s`); `_per_epoch`
//!   divides by the epochs of one repetition.
//! * **[D]** the layer drive ([`crate::drive`]): wall time of each call,
//!   p50 and — with at least 200 samples — p95.
//! * **[T]** a traced (and on `papers-pipeline` a telemetry-on) engine run
//!   against the untraced repetitions.

use crate::drive::{self, Drive};
use crate::measure::{self, repetition, same_outputs, Check, Measured, Source, Stop};
use crate::output;
use crate::stats::{median, p95_or_median};
use crate::workloads::Workload;
use massivegnn::{EngineConfig, RunReport};
use serde::{Serialize, Value};

/// Untraced repetitions the `[T]` ratios are taken against.
const REFERENCE_REPS: usize = 3;
/// Steps the drive replays; p95 needs 200 samples.
const DRIVE_STEPS: usize = 200;
const QUICK_DRIVE_STEPS: usize = 20;

/// Result of the traced pass.
pub struct PerLayer {
    pub metrics: Vec<Measured>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Vec<(&'static str, Value)>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `[R]`: what the untraced run's report says about each layer.
fn from_report(cfg: &EngineConfig, r: &RunReport, m: &mut Vec<Measured>) {
    let agg = r.aggregate_metrics();
    let epochs = cfg.epochs as f64;
    let sim = |f: fn(&massivegnn::engine::Breakdown) -> f64| {
        mean(r.trainers.iter().map(|t| f(&t.breakdown))) / epochs
    };
    let per_epoch = |count: u64| count as f64 / epochs;
    let mut put = |name, v: f64| m.push(Measured::exact(name, Source::Report, v));

    put("mgnn-sampling.sim_s_per_epoch", sim(|b| b.sampling_s));
    put("massivegnn.buffer.hit_rate", r.hit_rate());
    put(
        "massivegnn.buffer.capacity_rows",
        mean(r.trainers.iter().map(|t| t.init.buffer_nodes as f64)),
    );
    put(
        "massivegnn.scoreboard.evictions_per_epoch",
        per_epoch(agg.evictions),
    );
    put(
        "massivegnn.scoreboard.replacements_per_epoch",
        per_epoch(agg.replacements_fetched),
    );
    put(
        "massivegnn.scoreboard.sim_scoring_s_per_epoch",
        sim(|b| b.scoring_s),
    );
    put(
        "massivegnn.scoreboard.sim_evict_s_per_epoch",
        sim(|b| b.evict_s),
    );
    put(
        "massivegnn.prefetcher.peak_step_mb",
        r.trainers
            .iter()
            .map(|t| t.peak_bytes as f64 / 1e6)
            .fold(0.0, f64::max),
    );
    put(
        "massivegnn.prefetcher.sim_lookup_s_per_epoch",
        sim(|b| b.lookup_s),
    );
    put(
        "massivegnn.prefetcher.sim_copy_s_per_epoch",
        sim(|b| b.copy_s),
    );
    put(
        "massivegnn.policy.planned_pulls_per_epoch",
        per_epoch(agg.planned_pulls),
    );
    put(
        "massivegnn.policy.planned_rows_per_epoch",
        per_epoch(agg.planned_rows),
    );
    put(
        "massivegnn.policy.sim_planned_s_per_epoch",
        sim(|b| b.planned_s),
    );
    put(
        "massivegnn.pipeline.sim_stall_s_per_epoch",
        mean(r.trainers.iter().map(|t| t.stall_s)) / epochs,
    );
    put(
        "massivegnn.pipeline.overlap_efficiency",
        r.mean_overlap_efficiency(),
    );
    put("massivegnn.engine.load_imbalance", r.load_imbalance());
    put(
        "mgnn-net.rows_per_pull",
        ratio(agg.remote_nodes_fetched as f64, agg.rpc_calls as f64),
    );
    put("mgnn-net.rpc_calls_per_epoch", per_epoch(agg.rpc_calls));
    put("mgnn-net.sim_rpc_s_per_epoch", sim(|b| b.rpc_s));
    put("mgnn-net.fault.retries", agg.rpc_retries as f64);
    put("mgnn-net.fault.timeouts", agg.rpc_timeouts as f64);
    put("mgnn-net.fault.truncations", agg.rpc_truncations as f64);
    put("mgnn-net.fault.delays", agg.rpc_delays as f64);
    put("mgnn-net.fault.respawns", agg.server_respawns as f64);
    put("mgnn-net.fault.degraded_rows", agg.degraded_rows as f64);
    put("mgnn-net.fault.stale_served", agg.stale_served as f64);
    // An attempt is one bulk pull or one retry of one partition's share.
    let failed_attempts = agg.rpc_timeouts + agg.rpc_truncations + agg.rpc_disconnects;
    put(
        "mgnn-net.fault.attempt_fail_frac",
        ratio(
            failed_attempts as f64,
            (agg.rpc_calls + agg.rpc_retries) as f64,
        ),
    );
    put(
        "mgnn-model.loss_final",
        r.epoch_loss.last().map_or(0.0, |&l| l as f64),
    );
    put(
        "mgnn-model.acc_final",
        r.epoch_acc.last().copied().unwrap_or(0.0),
    );
    put("mgnn-model.sim_train_s_per_epoch", sim(|b| b.train_s));
}

/// `[D]`: wall time of each call into a layer, from the drive's spans.
fn from_drive(d: &Drive, m: &mut Vec<Measured>) {
    let t = &d.tracer;
    let ms = |name: &str| t.durations_ms(name);
    let first_s = |name: &str| ms(name).first().map_or(0.0, |v| v / 1e3);
    let mut put = |name, v: f64| m.push(Measured::exact(name, Source::Drive, v));

    put("mgnn-graph.generate_s", first_s("generate"));
    put("mgnn-graph.nodes", d.nodes as f64);
    put("mgnn-graph.edges", d.edges as f64);
    put(
        "mgnn-partition.multilevel_s",
        first_s("multilevel_partition"),
    );
    put(
        "mgnn-partition.halo_build_s",
        first_s("build_local_partitions"),
    );
    put("mgnn-partition.edge_cut_frac", d.edge_cut_frac);
    put("mgnn-partition.halo_frac", d.halo_frac);
    let sample = ms("sample_into");
    put("mgnn-sampling.sample_ms_p50", median(&sample));
    put("mgnn-sampling.sample_ms_p95", p95_or_median(&sample));
    put("mgnn-sampling.epoch_plan_ms", median(&ms("epoch_plan")));
    put("mgnn-sampling.edges_per_step", d.edges_per_step);
    put(
        "massivegnn.buffer.probe_ms_p50",
        median(&ms("probe_batch_into")),
    );
    put(
        "massivegnn.scoreboard.increment_ms_p50",
        median(&ms("increment_batch")),
    );
    put(
        "massivegnn.scoreboard.topk_ms_p50",
        median(&ms("top_k_candidates")),
    );
    put(
        "massivegnn.prefetcher.init_s",
        first_s("initialize_prefetcher"),
    );
    let prepare = ms("prepare");
    put("massivegnn.prefetcher.prepare_ms_p50", median(&prepare));
    put(
        "massivegnn.prefetcher.prepare_ms_p95",
        p95_or_median(&prepare),
    );
    put(
        "massivegnn.prefetcher.self_ms_p50",
        median(&d.prepare_self_ms),
    );
    put("massivegnn.prefetcher.heap_mb", d.heap_bytes as f64 / 1e6);
    put("massivegnn.pipeline.batches_per_s", d.batches_per_s);
    let pull = ms("pull_grouped_checked");
    put("mgnn-net.pull_ms_p50", median(&pull));
    put("mgnn-net.pull_ms_p95", p95_or_median(&pull));
    put("mgnn-net.kv_gather_ms_p50", median(&ms("kvstore_pull")));
    put(
        "mgnn-net.pull_rows_per_s",
        ratio(d.pull_rows as f64, d.pull_ms / 1e3),
    );
    put("mgnn-net.cluster_spawn_s", first_s("cluster_spawn"));
    let matmul = median(&ms("matmul"));
    put("mgnn-tensor.matmul_ms_p50", matmul);
    put(
        "mgnn-tensor.matmul_gflops",
        ratio(d.matmul_flops / 1e9, matmul / 1e3),
    );
    put("mgnn-tensor.t_matmul_ms_p50", median(&ms("t_matmul")));
    put("mgnn-tensor.matmul_t_ms_p50", median(&ms("matmul_t")));
    put("mgnn-tensor.spmm_ms_p50", median(&ms("spmm")));
    put("mgnn-tensor.spmm_nnz", d.spmm_nnz);
    let train = ms("train");
    put("mgnn-model.fwd_bwd_ms_p50", median(&train));
    put("mgnn-model.fwd_bwd_ms_p95", p95_or_median(&train));
    put("mgnn-model.allreduce_ms_p50", median(&ms("allreduce")));
    put("mgnn-model.optim_step_ms_p50", median(&ms("optim")));
    put("mgnn-model.gat_fwd_bwd_ms_p50", median(&ms("gat_fwd_bwd")));
    put("mgnn-model.macs_per_step", d.macs_per_step);
}

/// Of the retries the fault ladder made, the share that came back with
/// rows. From the correlated event log of the traced run: a ladder opens
/// with a retry numbered 1 and either ends in rows or in a `zero_fill`.
fn retry_useful_frac(events: &[mgnn_obs::events::TraceEvent]) -> f64 {
    let (mut retries, mut ladders, mut exhausted) = (0.0, 0.0, 0.0);
    for e in events {
        match e.kind {
            "retry" => {
                retries += 1.0;
                if e.attempt == 1 {
                    ladders += 1.0;
                }
            }
            "zero_fill" => exhausted += 1.0,
            _ => {}
        }
    }
    ratio(f64::max(ladders - exhausted, 0.0), retries)
}

/// A run under another setting must compute what the reference computed,
/// bit for bit.
fn identity_check(
    name: &'static str,
    reference: &RunReport,
    other: &RunReport,
    equal_to: &str,
) -> Check {
    let verdict = same_outputs(reference, other);
    Check::new(
        name,
        verdict.is_ok(),
        verdict
            .err()
            .unwrap_or_else(|| format!("bit-equal to {equal_to}")),
    )
}

/// Run the traced pass for one workload.
pub fn per_layer(w: &Workload, seed: u64, quick: bool) -> Result<PerLayer, String> {
    let cfg = w.config(seed, quick);

    // Untraced reference: same repetitions as the end-to-end pass, fewer.
    let reps = if quick { 1 } else { REFERENCE_REPS };
    let reference = measure::end_to_end(w, seed, Stop::AfterReps(reps), quick);
    let mut checks = reference.checks.clone();
    // The end-to-end quantities `BENCHMARK.json` lists under `per_layer`
    // are on this pass's result line too, from the reference repetitions.
    let mut m: Vec<Measured> = reference
        .metrics
        .iter()
        .filter(|m| {
            crate::spec::END_TO_END_UNBOUNDED
                .iter()
                .any(|d| d.name == m.name)
        })
        .cloned()
        .collect();
    let run_s = median(&reference.run_s);
    let steps = reference.steps as f64;
    m.push(Measured::of(
        "massivegnn.engine.run_s_p50",
        Source::Wall,
        reference.run_s.clone(),
    ));
    m.push(Measured::of(
        "massivegnn.engine.build_s_p50",
        Source::Wall,
        reference.build_s.clone(),
    ));
    from_report(&cfg, &reference.report, &mut m);

    // [T] traced run: same report, more wall.
    let with_events = cfg.fault.is_some();
    if with_events {
        mgnn_obs::events::install();
    }
    let traced = repetition(&EngineConfig {
        trace: true,
        ..cfg.clone()
    });
    let events = if with_events {
        mgnn_obs::events::uninstall()
    } else {
        Vec::new()
    };
    checks.push(identity_check(
        "traced_run_identical",
        &reference.report,
        &traced.report,
        "untraced",
    ));
    let spans: u64 = traced
        .report
        .traces
        .iter()
        .map(|t| t.events.len() as u64 + t.dropped)
        .sum();
    let mut traced_row = |name, v: f64| m.push(Measured::exact(name, Source::Traced, v));
    traced_row("mgnn-obs.trace_overhead_frac", traced.run_s / run_s - 1.0);
    traced_row("mgnn-obs.spans_per_step", spans as f64 / steps);
    traced_row(
        "mgnn-net.fault.retry_useful_frac",
        retry_useful_frac(&events),
    );
    drop(traced);

    let telemetry = if w.measure_telemetry {
        let on = repetition(&EngineConfig {
            telemetry: true,
            ..cfg.clone()
        });
        // `run` leaves the registry armed for a final scrape.
        mgnn_obs::registry::disable();
        checks.push(identity_check(
            "telemetry_run_identical",
            &reference.report,
            &on.report,
            "untraced",
        ));
        on.run_s / run_s - 1.0
    } else {
        0.0
    };
    m.push(Measured::exact(
        "mgnn-obs.telemetry_overhead_frac",
        Source::Traced,
        telemetry,
    ));

    // One sequential repetition of a threaded workload: the speed-up's
    // base, and the bitwise-identity check.
    let speedup = if cfg.parallel {
        let seq = repetition(&EngineConfig {
            parallel: false,
            ..cfg.clone()
        });
        checks.push(identity_check(
            "sequential_run_identical",
            &reference.report,
            &seq.report,
            "threaded (final_params and counters)",
        ));
        seq.run_s / run_s
    } else {
        0.0
    };
    m.push(Measured::exact(
        "massivegnn.engine.parallel_speedup",
        Source::Wall,
        speedup,
    ));

    // [D] the layer drive.
    let d = drive::drive(
        &cfg,
        if quick {
            QUICK_DRIVE_STEPS
        } else {
            DRIVE_STEPS
        },
    );
    from_drive(&d, &mut m);
    let drive_step_ms = median(&d.tracer.durations_ms("step"));
    // Where loop overhead would surface: what a sequential engine step
    // costs beyond every trainer's replayed step. Approximate — the
    // replay runs each trainer alone and warm.
    let replayed_ms = drive_step_ms + d.peer_step_ms.iter().sum::<f64>();
    m.push(Measured::exact(
        "massivegnn.engine.residual_ms_per_step",
        Source::Drive,
        if cfg.parallel {
            0.0
        } else {
            run_s * 1e3 / steps - replayed_ms
        },
    ));
    let trace_path = output::write_out(
        &format!("{}.trace.json", w.name),
        &d.tracer.to_json(w.name, seed),
    )
    .map_err(|e| format!("writing spans: {e}"))?;

    let info = vec![
        ("steps_per_repetition", reference.steps.to_value()),
        ("reference_repetitions", reference.reps.to_value()),
        ("drive_steps", d.steps.to_value()),
        ("drive_step_ms_p50", drive_step_ms.to_value()),
        ("spans_written", d.tracer.spans().len().to_value()),
        ("span_file", trace_path.display().to_string().to_value()),
    ];
    Ok(PerLayer {
        metrics: m,
        checks,
        attempted: reference.attempted,
        failed: reference.failed,
        info,
    })
}
