//! The four named workloads. Each is a pure function of `--seed`: the
//! engine receives only the generated config.

use massivegnn::{EngineConfig, FaultProfile, Mode, PrefetchConfig, RetryPolicy};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_model::ModelKind;

/// One workload: a name, the reason it exists, and its config.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// `MGNN_THREADS` the process must run under, set before the kernel
    /// pool first spins up.
    pub mgnn_threads: Option<&'static str>,
    /// Whether the traced pass also times a telemetry-on run. Only where
    /// counters tick fastest, the data-path-bound workload; elsewhere the
    /// row reads 0.
    pub measure_telemetry: bool,
    /// Epochs per timed repetition (a `--quick` run uses [`QUICK_EPOCHS`]).
    epochs: usize,
    shape: fn(u64) -> EngineConfig,
}

/// Epochs per repetition of a `--quick` run.
pub const QUICK_EPOCHS: usize = 2;

/// XORed into `--seed` for the fault plans, so drop/truncate verdicts are
/// not correlated with the graph the same seed generates.
const FAULT_SEED_SALT: u64 = 0xFA01;

/// Shared by all four: the paper's sampler and a batch small enough
/// that a Small-scale partition yields tens of steps per epoch.
fn common(seed: u64) -> EngineConfig {
    EngineConfig {
        batch_size: 128,
        fanouts: vec![10, 25],
        hidden_dim: 64,
        model: ModelKind::Sage,
        seed,
        ..Default::default()
    }
}

fn sage_math_threaded(seed: u64) -> EngineConfig {
    EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Small,
        num_parts: 2,
        trainers_per_part: 1,
        mode: Mode::Prefetch(PrefetchConfig::default()),
        train_math: true,
        parallel: true,
        ..common(seed)
    }
}

fn papers_pipeline(seed: u64) -> EngineConfig {
    EngineConfig {
        dataset: DatasetKind::Papers,
        scale: Scale::Bench,
        num_parts: 4,
        trainers_per_part: 1,
        mode: Mode::Prefetch(PrefetchConfig::default()),
        ..common(seed)
    }
}

fn reddit_baseline_rpc(seed: u64) -> EngineConfig {
    EngineConfig {
        dataset: DatasetKind::Reddit,
        scale: Scale::Small,
        num_parts: 4,
        trainers_per_part: 1,
        mode: Mode::Baseline,
        ..common(seed)
    }
}

fn chaos_lookahead(seed: u64) -> EngineConfig {
    EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Small,
        num_parts: 2,
        trainers_per_part: 2,
        // At the default f_h = 0.25 partition 0's buffer is smaller than
        // the planner's three-step window on about half of all seeds, and
        // the simulated step time is bimodal across seeds (demand misses
        // land on the critical path or do not); 0.35 keeps every seed on
        // the same side, with Belady eviction still running every step.
        mode: Mode::Prefetch(
            PrefetchConfig {
                f_h: 0.35,
                ..Default::default()
            }
            .with_lookahead_policy(2),
        ),
        // Truncations, delays and the crash of `heavy` drive the ladder
        // (retry, respawn, retry) deterministically. Drops are off: a drop
        // is detected by a wall-clock timeout, and on a shared 2-core host
        // a timeout short enough to be cheap (40 ms) also fired spuriously
        // about once in 25 000 requests, which makes the counts of a
        // repetition unrepeatable. Four retries make an exhausted ladder
        // (a zero-filled row) a 1-in-10^4 event per ladder: a few hundred
        // ladders run per repetition, and no operation may fail.
        fault: Some(FaultProfile {
            drop_prob: 0.0,
            truncate_prob: 0.10,
            ..FaultProfile::heavy(seed ^ FAULT_SEED_SALT)
        }),
        retry: RetryPolicy {
            max_retries: 4,
            ..Default::default()
        },
        ..common(seed)
    }
}

/// The workloads, in the order `run` executes them.
pub const ALL: &[Workload] = &[
    Workload {
        name: "sage-math-threaded",
        why: "Paper's deployment shape: real trainer + prepare threads, barrier, GradExchange; \
              compute-bound, so mgnn-tensor/mgnn-model do most of the work and the data path little",
        mgnn_threads: Some("1"),
        measure_telemetry: false,
        epochs: 6,
        shape: sage_math_threaded,
    },
    Workload {
        name: "papers-pipeline",
        why: "Data-path-bound: sampler, buffer probe, S_E/S_A, evict-and-replace and miss pulls on a \
              heavy-tailed 120K-node graph; tensor kernels idle; largest setup_s; perfect-overlap regime",
        mgnn_threads: None,
        measure_telemetry: true,
        epochs: 6,
        shape: papers_pipeline,
    },
    Workload {
        name: "reddit-baseline-rpc",
        why: "Mode::Baseline on 602-wide rows: one bulk pull of every sampled halo row per step; \
              bypasses prefetcher, buffer, scoreboard and policy, so their changes must not show here",
        mgnn_threads: None,
        measure_telemetry: false,
        epochs: 12,
        shape: reddit_baseline_rpc,
    },
    Workload {
        name: "chaos-lookahead",
        why: "Only workload where policy.rs (planned pulls, Belady eviction) and the fault ladder \
              (truncation, crash, retry, respawn) work; sequential, because verdict order is racy under threads",
        mgnn_threads: None,
        measure_telemetry: false,
        epochs: 24,
        shape: chaos_lookahead,
    },
];

impl Workload {
    /// The config of one repetition.
    pub fn config(&self, seed: u64, quick: bool) -> EngineConfig {
        EngineConfig {
            epochs: if quick { QUICK_EPOCHS } else { self.epochs },
            ..(self.shape)(seed)
        }
    }
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
