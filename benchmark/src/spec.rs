//! The benchmark's declared metrics: name, unit, direction and — for
//! end-to-end metrics — the regression bound. `BENCHMARK.json` at the
//! repo root carries the same table for the accepting driver; the
//! `quick` test fails when the two disagree.

use serde::{Serialize, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Smallest worsening of `setup_s` that counts, in seconds: below this
/// a relative bound on a sub-second set-up is timer noise.
pub const SETUP_ABS_BOUND_S: f64 = 0.1;

/// `failed_ops_frac` may rise by this much (absolute) before `compare`
/// calls it worse; it has no relative bound because its expected value
/// is exactly 0.
pub const FAILED_OPS_ABS_BOUND: f64 = 0.002;

/// What a user of the system sees, and the accepting driver holds to a
/// bound. Every one is reported on every workload by a `--trace 0` run,
/// from untraced repetitions only.
///
/// The driver draws a fresh `--seed` per run and requires the quartile
/// spread of each of these over ten such runs to stay inside its bound,
/// so a bound has to cover the seed-to-seed spread of the generated
/// graphs, not only run-to-run noise at one seed (README, "Bounds"). That
/// is also why the two simulated-clock figures are per step: an epoch is
/// 8 or 9 steps on `reddit-baseline-rpc` depending on the seed.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("sim_step_ms", "sim_ms", Lower, 0.15),
    e2e("remote_mb_per_step", "MB", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Its expected value is exactly 0; `compare` holds it to
/// [`FAILED_OPS_ABS_BOUND`].
pub const FAILED_OPS_FRAC: &str = "failed_ops_frac";

/// End-to-end quantities the driver's rules cannot hold to a bound.
/// `BENCHMARK.json` lists them first under `per_layer` (no bound, no
/// spread rule), both passes print them, and `compare` judges the ones
/// that carry a bound here.
///
/// * The two wall-clock figures: on the shared 2-vCPU capture host their
///   ten-seed quartile spread reached 25–27 % in two sweeps of three
///   (whole minutes run 30 % slow), above the largest bound the driver
///   accepts. A gain or loss in them has to be shown on ten alternating
///   pairs (choosing-metrics §8), not against a bound.
/// * `failed_ops_frac`: the driver refuses end-to-end metrics that can be
///   0 and carries failures as `failed`/`attempted` on every result.
/// * The per-epoch forms of the simulated-clock figures: the paper's
///   reported quantity, and what the `_per_epoch` layer rows add up to.
pub const END_TO_END_UNBOUNDED: &[MetricSpec] = &[
    e2e("steps_per_s", "steps/s", Higher, 0.25),
    e2e("cpu_ms_per_step", "ms", Lower, 0.25),
    layer(FAILED_OPS_FRAC, "ratio", Lower),
    layer("sim_epoch_s", "sim_s", Lower),
    layer("remote_mb_per_epoch", "MB", Lower),
];

/// Single-layer metrics, printed by a `--trace 1` run. A metric whose
/// layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // mgnn-graph
    layer("mgnn-graph.generate_s", "s", Lower),
    layer("mgnn-graph.nodes", "count", Higher),
    layer("mgnn-graph.edges", "count", Higher),
    // mgnn-partition
    layer("mgnn-partition.multilevel_s", "s", Lower),
    layer("mgnn-partition.halo_build_s", "s", Lower),
    layer("mgnn-partition.edge_cut_frac", "ratio", Lower),
    layer("mgnn-partition.halo_frac", "ratio", Lower),
    // mgnn-sampling
    layer("mgnn-sampling.sample_ms_p50", "ms", Lower),
    layer("mgnn-sampling.sample_ms_p95", "ms", Lower),
    layer("mgnn-sampling.epoch_plan_ms", "ms", Lower),
    layer("mgnn-sampling.edges_per_step", "count", Lower),
    layer("mgnn-sampling.sim_s_per_epoch", "sim_s", Lower),
    // massivegnn::buffer
    layer("massivegnn.buffer.probe_ms_p50", "ms", Lower),
    layer("massivegnn.buffer.hit_rate", "ratio", Higher),
    layer("massivegnn.buffer.capacity_rows", "count", Lower),
    // massivegnn::scoreboard
    layer("massivegnn.scoreboard.increment_ms_p50", "ms", Lower),
    layer("massivegnn.scoreboard.topk_ms_p50", "ms", Lower),
    layer("massivegnn.scoreboard.evictions_per_epoch", "count", Lower),
    layer(
        "massivegnn.scoreboard.replacements_per_epoch",
        "count",
        Lower,
    ),
    layer(
        "massivegnn.scoreboard.sim_scoring_s_per_epoch",
        "sim_s",
        Lower,
    ),
    layer(
        "massivegnn.scoreboard.sim_evict_s_per_epoch",
        "sim_s",
        Lower,
    ),
    // massivegnn::prefetcher
    layer("massivegnn.prefetcher.init_s", "s", Lower),
    layer("massivegnn.prefetcher.prepare_ms_p50", "ms", Lower),
    layer("massivegnn.prefetcher.prepare_ms_p95", "ms", Lower),
    layer("massivegnn.prefetcher.self_ms_p50", "ms", Lower),
    layer("massivegnn.prefetcher.heap_mb", "MB", Lower),
    layer("massivegnn.prefetcher.peak_step_mb", "MB", Lower),
    layer(
        "massivegnn.prefetcher.sim_lookup_s_per_epoch",
        "sim_s",
        Lower,
    ),
    layer("massivegnn.prefetcher.sim_copy_s_per_epoch", "sim_s", Lower),
    // massivegnn::policy
    layer("massivegnn.policy.planned_pulls_per_epoch", "count", Lower),
    layer("massivegnn.policy.planned_rows_per_epoch", "count", Lower),
    layer("massivegnn.policy.sim_planned_s_per_epoch", "sim_s", Lower),
    // massivegnn::pipeline
    layer("massivegnn.pipeline.batches_per_s", "1/s", Higher),
    layer("massivegnn.pipeline.sim_stall_s_per_epoch", "sim_s", Lower),
    layer("massivegnn.pipeline.overlap_efficiency", "ratio", Higher),
    // massivegnn::engine
    layer("massivegnn.engine.run_s_p50", "s", Lower),
    layer("massivegnn.engine.build_s_p50", "s", Lower),
    layer("massivegnn.engine.parallel_speedup", "ratio", Higher),
    layer("massivegnn.engine.residual_ms_per_step", "ms", Lower),
    layer("massivegnn.engine.load_imbalance", "ratio", Lower),
    // mgnn-net
    layer("mgnn-net.pull_ms_p50", "ms", Lower),
    layer("mgnn-net.pull_ms_p95", "ms", Lower),
    layer("mgnn-net.kv_gather_ms_p50", "ms", Lower),
    layer("mgnn-net.pull_rows_per_s", "rows/s", Higher),
    layer("mgnn-net.cluster_spawn_s", "s", Lower),
    layer("mgnn-net.rows_per_pull", "count", Higher),
    layer("mgnn-net.rpc_calls_per_epoch", "count", Lower),
    layer("mgnn-net.sim_rpc_s_per_epoch", "sim_s", Lower),
    layer("mgnn-net.fault.retries", "count", Lower),
    layer("mgnn-net.fault.timeouts", "count", Lower),
    layer("mgnn-net.fault.truncations", "count", Lower),
    layer("mgnn-net.fault.delays", "count", Lower),
    layer("mgnn-net.fault.respawns", "count", Lower),
    layer("mgnn-net.fault.degraded_rows", "count", Lower),
    layer("mgnn-net.fault.stale_served", "count", Lower),
    layer("mgnn-net.fault.attempt_fail_frac", "ratio", Lower),
    layer("mgnn-net.fault.retry_useful_frac", "ratio", Higher),
    // mgnn-tensor
    layer("mgnn-tensor.matmul_ms_p50", "ms", Lower),
    layer("mgnn-tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("mgnn-tensor.t_matmul_ms_p50", "ms", Lower),
    layer("mgnn-tensor.matmul_t_ms_p50", "ms", Lower),
    layer("mgnn-tensor.spmm_ms_p50", "ms", Lower),
    layer("mgnn-tensor.spmm_nnz", "count", Lower),
    // mgnn-model
    layer("mgnn-model.fwd_bwd_ms_p50", "ms", Lower),
    layer("mgnn-model.fwd_bwd_ms_p95", "ms", Lower),
    layer("mgnn-model.allreduce_ms_p50", "ms", Lower),
    layer("mgnn-model.optim_step_ms_p50", "ms", Lower),
    layer("mgnn-model.gat_fwd_bwd_ms_p50", "ms", Lower),
    layer("mgnn-model.macs_per_step", "count", Lower),
    layer("mgnn-model.loss_final", "nats", Lower),
    layer("mgnn-model.acc_final", "ratio", Higher),
    layer("mgnn-model.sim_train_s_per_epoch", "sim_s", Lower),
    // mgnn-obs
    layer("mgnn-obs.trace_overhead_frac", "ratio", Lower),
    layer("mgnn-obs.telemetry_overhead_frac", "ratio", Lower),
    layer("mgnn-obs.spans_per_step", "count", Lower),
];

/// Seconds of `run()` wall time one pass measures when `--seconds` is
/// absent, and the `run_seconds` the accepting driver passes.
pub const RUN_SECONDS: u64 = 12;

/// The command the accepting driver appends `--workload … --seed …
/// --seconds … --trace …` to, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Everything declared, in printing order: bounded end-to-end metrics,
/// unbounded ones, layers.
pub fn all() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(END_TO_END_UNBOUNDED)
        .chain(PER_LAYER)
}

/// The metrics a pass must put on its result line: `end_to_end` of
/// `BENCHMARK.json` untraced, `per_layer` traced.
pub fn declared_for(traced: bool) -> Vec<&'static MetricSpec> {
    if traced {
        END_TO_END_UNBOUNDED.iter().chain(PER_LAYER).collect()
    } else {
        END_TO_END.iter().collect()
    }
}

/// What `BENCHMARK.json` must say, in its own shape (`spec` prints it;
/// the `quick` test compares the file against it).
pub fn declaration() -> Value {
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut fields = vec![
            ("name", m.name.to_value()),
            ("unit", m.unit.to_value()),
            ("better", m.better.as_str().to_value()),
        ];
        if let (true, Some(b)) = (bounded, m.bound) {
            fields.push(("bound", b.to_value()));
        }
        Value::obj(fields)
    };
    Value::obj([
        ("command", COMMAND.to_value()),
        ("paths", ["benchmark"].to_value()),
        ("run_seconds", RUN_SECONDS.to_value()),
        (
            "workloads",
            Value::arr(
                crate::workloads::ALL
                    .iter()
                    .map(|w| Value::obj([("name", w.name.to_value()), ("why", w.why.to_value())])),
            ),
        ),
        (
            "end_to_end",
            Value::arr(declared_for(false).into_iter().map(|m| metric(m, true))),
        ),
        (
            "per_layer",
            Value::arr(declared_for(true).into_iter().map(|m| metric(m, false))),
        ),
    ])
}

/// Position of a metric in the declared order, for printing; undeclared
/// names sort last.
pub fn order(name: &str) -> usize {
    all().position(|m| m.name == name).unwrap_or(usize::MAX)
}

/// Look a declared metric up by name.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    all().find(|m| m.name == name)
}
