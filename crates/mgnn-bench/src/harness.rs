//! Shared experiment plumbing: option handling, engine-config presets,
//! parameter sweeps and report formatting.

use massivegnn::{
    Engine, EngineConfig, Mode, PrefetchConfig, PrefetchPolicyKind, RunReport, ScoreLayout,
};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_model::ModelKind;
use mgnn_net::{Backend, FaultProfile, RetryPolicy};
use mgnn_obs::Phase;

/// Harness-wide options (size/effort knobs shared by all experiments).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Dataset generation scale.
    pub scale: Scale,
    /// Training epochs per run.
    pub epochs: usize,
    /// Per-trainer batch size.
    pub batch_size: usize,
    /// Sampler fanouts (input layer first; the paper uses {10, 25}).
    pub fanouts: Vec<usize>,
    /// Hidden dimension of the 2-layer models.
    pub hidden_dim: usize,
    /// Run the complete paper grid (slow) instead of the representative
    /// subset.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Record per-step spans, histograms and series (`mgnn-obs`) in every
    /// engine the experiments build. Off by default: the disabled path is
    /// a no-op and leaves `RunReport` bitwise identical.
    pub trace: bool,
    /// Named chaos profile (`off`/`light`/`heavy`, see
    /// [`FaultProfile::NAMES`]) injected into every engine the
    /// experiments build; `None` disables the fault machinery entirely.
    pub fault_profile: Option<String>,
    /// Seed for the chaos profile (independent of the run seed so the
    /// same training run can be replayed under different fault
    /// schedules).
    pub fault_seed: u64,
    /// Prefetch policy selected on the CLI (`--policy`/`--depth`).
    /// Honored by the policy-aware experiments (the `lookahead` study
    /// measures exactly this policy against the scoreboard); the
    /// paper-figure experiments always use the paper's scoreboard.
    pub policy: PrefetchPolicyKind,
    /// Expose the trainers' counters through the live-telemetry registry
    /// (`--telemetry-port`/`--metrics-out`). Wall-clock only; reports
    /// stay bitwise identical.
    pub telemetry: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: Scale::Unit,
            epochs: 3,
            batch_size: 128,
            fanouts: vec![10, 25],
            hidden_dim: 64,
            full: false,
            seed: 42,
            trace: false,
            fault_profile: None,
            fault_seed: 0xFA01,
            policy: PrefetchPolicyKind::Scoreboard,
            telemetry: false,
        }
    }
}

impl Opts {
    /// The [`FaultProfile`] these options select, or `None` when chaos
    /// is off. Panics on an unknown profile name (the CLI validates).
    pub fn fault(&self) -> Option<FaultProfile> {
        self.fault_profile.as_deref().map(|name| {
            FaultProfile::named(name, self.fault_seed)
                .unwrap_or_else(|| panic!("unknown fault profile {name:?}"))
        })
    }

    /// The paper-shaped profile used by the repro CLI by default.
    pub fn standard() -> Self {
        Opts::default()
    }

    /// The long-run profile used by the eviction-dynamics figures
    /// (Figs. 10, 12, 13): a larger graph (so the halo set dwarfs one
    /// minibatch's sampled set, as at paper scale), smaller batches and
    /// enough epochs for many Δ intervals to elapse.
    ///
    /// Debug builds keep the Unit scale and fewer epochs so `cargo test`
    /// stays fast; the figure *shapes* asserted by tests hold at both
    /// sizes, and release runs (`repro`) use the full profile.
    pub fn longrun_of(&self) -> Opts {
        let mut o = self.clone();
        if cfg!(debug_assertions) {
            o.batch_size = o.batch_size.min(48);
            o.epochs = (o.epochs * 4).max(8);
            return o;
        }
        if matches!(o.scale, Scale::Unit) {
            o.scale = Scale::Small;
        }
        o.batch_size = o.batch_size.min(64);
        o.epochs = (o.epochs * 10).max(20);
        o
    }
}

/// Base engine config for `(dataset, backend, num_parts)` under `opts`.
/// `trainers_per_part` is fixed at the paper's 4.
pub fn engine_config(
    opts: &Opts,
    dataset: DatasetKind,
    backend: Backend,
    num_parts: usize,
) -> EngineConfig {
    EngineConfig {
        dataset,
        scale: opts.scale,
        num_parts,
        trainers_per_part: 4,
        batch_size: opts.batch_size,
        epochs: opts.epochs,
        fanouts: opts.fanouts.clone(),
        sampling: mgnn_sampling::SamplingStrategy::Uniform,
        hidden_dim: opts.hidden_dim,
        model: ModelKind::Sage,
        gat_heads: 2,
        backend,
        mode: Mode::Baseline,
        seed: opts.seed,
        cost: Default::default(),
        train_math: false,
        parallel: false,
        trace: opts.trace,
        fault: opts.fault(),
        retry: RetryPolicy::default(),
        pooling: true,
        telemetry: opts.telemetry,
    }
}

/// Cross-check a traced run's spans against its own report: for every
/// trainer, every phase must have exactly one span per minibatch, the
/// span durations must sum to the corresponding [`Breakdown`] field
/// within 1e-6 s, and the per-step anchors/series must cover every step.
/// Panics with a descriptive message on any mismatch.
///
/// [`Breakdown`]: massivegnn::engine::Breakdown
pub fn assert_trace_consistent(report: &RunReport) {
    assert_eq!(
        report.traces.len(),
        report.trainers.len(),
        "traced run must carry one trace per trainer"
    );
    for (trace, tr) in report.traces.iter().zip(&report.trainers) {
        assert_eq!(trace.part_id, tr.part_id);
        let steps = tr.minibatches;
        assert_eq!(trace.anchors.len() as u64, steps, "one anchor per step");
        assert_eq!(trace.series.len() as u64, steps, "one sample per step");
        for phase in Phase::ALL {
            let stats = trace
                .phase(phase)
                .unwrap_or_else(|| panic!("trainer {}: no {} spans", trace.trainer, phase.name()));
            assert_eq!(
                stats.count,
                steps,
                "trainer {}: {} span count != minibatches",
                trace.trainer,
                phase.name()
            );
            if let Some(expect) = tr.breakdown.phase_s(phase) {
                assert!(
                    (stats.sum_s - expect).abs() < 1e-6,
                    "trainer {}: {} spans sum to {} but breakdown says {}",
                    trace.trainer,
                    phase.name(),
                    stats.sum_s,
                    expect
                );
            }
        }
        for ev in &trace.events {
            let abs = trace.absolute_start_s(ev).unwrap_or_else(|| {
                panic!(
                    "trainer {}: {} span at step {} has no anchor",
                    trace.trainer,
                    ev.phase.name(),
                    ev.step
                )
            });
            assert!(abs >= 0.0 && abs.is_finite());
        }
    }
}

/// The paper's `f_p^h` sweep values.
pub fn f_h_values(full: bool) -> Vec<f64> {
    if full {
        vec![0.15, 0.25, 0.35, 0.5]
    } else {
        vec![0.25, 0.5]
    }
}

/// The paper's γ sweep values.
pub fn gamma_values() -> Vec<f64> {
    vec![0.95, 0.995, 0.9995]
}

/// The paper's Δ sweep values (subset unless `full`).
pub fn delta_values(full: bool) -> Vec<usize> {
    if full {
        vec![16, 32, 64, 128, 512, 1024]
    } else {
        vec![16, 64, 256]
    }
}

/// Default memory layout per dataset: the paper uses the memory-efficient
/// `S_A` for papers100M only.
pub fn layout_for(dataset: DatasetKind) -> ScoreLayout {
    match dataset {
        DatasetKind::Papers => ScoreLayout::MemEfficient,
        _ => ScoreLayout::Dense,
    }
}

/// Result of optimizing prefetch parameters for one cell of Fig. 6 /
/// Table IV: the best configuration found and its run.
pub struct Optimized {
    /// Best "prefetch without eviction" run and its `f_p^h`.
    pub no_evict: (f64, RunReport),
    /// Best "prefetch with eviction" run per γ: `(γ, Δ, report)`.
    pub with_evict: Vec<(f64, usize, RunReport)>,
}

/// Sweep `f_p^h` (no eviction), then Δ per γ on the optimal `f_p^h`,
/// choosing by lowest makespan — the paper's §V-A methodology
/// ("we always prioritize time over hit rate").
pub fn optimize_prefetch(base: &EngineConfig, full: bool) -> Optimized {
    let layout = layout_for(base.dataset);
    let mut best_ne: Option<(f64, RunReport)> = None;
    for f_h in f_h_values(full) {
        let mut cfg = base.clone();
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            f_h,
            layout,
            ..PrefetchConfig::default().without_eviction()
        });
        let r = Engine::build(cfg).run();
        if best_ne
            .as_ref()
            .is_none_or(|(_, b)| r.makespan_s < b.makespan_s)
        {
            best_ne = Some((f_h, r));
        }
    }
    let best_f = best_ne.as_ref().unwrap().0;

    let mut with_evict = Vec::new();
    for gamma in gamma_values() {
        let mut best: Option<(usize, RunReport)> = None;
        for delta in delta_values(full) {
            let mut cfg = base.clone();
            cfg.mode = Mode::Prefetch(PrefetchConfig {
                f_h: best_f,
                gamma,
                delta,
                eviction: true,
                layout,
                policy: PrefetchPolicyKind::Scoreboard,
            });
            let r = Engine::build(cfg).run();
            if best
                .as_ref()
                .is_none_or(|(_, b)| r.makespan_s < b.makespan_s)
            {
                best = Some((delta, r));
            }
        }
        let (delta, r) = best.unwrap();
        with_evict.push((gamma, delta, r));
    }
    Optimized {
        no_evict: best_ne.unwrap(),
        with_evict,
    }
}

/// Percent improvement of `new` over `old` (positive = faster).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        100.0 * (1.0 - new / old)
    }
}

#[cfg(test)]
impl Opts {
    /// A quick profile for the figures' smoke tests.
    pub fn quick() -> Self {
        Opts {
            epochs: 2,
            batch_size: 96,
            fanouts: vec![5, 10],
            hidden_dim: 32,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert!((improvement_pct(10.0, 7.0) - 30.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
        assert!(improvement_pct(10.0, 12.0) < 0.0);
    }

    #[test]
    fn sweep_values_match_paper() {
        assert_eq!(f_h_values(true), vec![0.15, 0.25, 0.35, 0.5]);
        assert_eq!(gamma_values(), vec![0.95, 0.995, 0.9995]);
        assert_eq!(delta_values(true), vec![16, 32, 64, 128, 512, 1024]);
    }

    #[test]
    fn papers_uses_mem_efficient_layout() {
        assert_eq!(layout_for(DatasetKind::Papers), ScoreLayout::MemEfficient);
        assert_eq!(layout_for(DatasetKind::Arxiv), ScoreLayout::Dense);
    }

    #[test]
    fn traced_run_passes_the_consistency_check() {
        let mut cfg = engine_config(&Opts::quick(), DatasetKind::Products, Backend::Cpu, 2);
        cfg.trainers_per_part = 2;
        cfg.trace = true;
        cfg.mode = Mode::Prefetch(PrefetchConfig::default());
        let report = Engine::build(cfg).run();
        assert_trace_consistent(&report);
    }
}
