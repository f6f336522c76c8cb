//! What an experiment is: [`Mode`] and [`EngineConfig`], and the check
//! that rejects a bad one before any work is done.

use crate::config::{PrefetchConfig, PrefetchPolicyKind};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_model::ModelKind;
use mgnn_net::{Backend, CostModel, FaultProfile, RetryPolicy};
use mgnn_sampling::SamplingStrategy;

/// Baseline DistDGL vs the paper's prefetch scheme.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// DistDGL semantics: every sampled halo feature fetched over RPC,
    /// serially with training.
    Baseline,
    /// MassiveGNN prefetch (+ optional eviction) with overlapped
    /// next-minibatch preparation.
    Prefetch(PrefetchConfig),
}

impl Mode {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Mode::Baseline => "DistDGL".into(),
            Mode::Prefetch(c) => {
                if let PrefetchPolicyKind::Lookahead { depth } = c.policy {
                    return format!("Prefetch+Lookahead(d={},f={})", depth, c.f_h);
                }
                if c.eviction {
                    format!("Prefetch+Evict(f={},γ={},Δ={})", c.f_h, c.gamma, c.delta)
                } else {
                    format!("Prefetch(f={})", c.f_h)
                }
            }
        }
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which OGB-like dataset preset.
    pub dataset: DatasetKind,
    /// Generation scale.
    pub scale: Scale,
    /// Number of graph partitions (= compute nodes; the paper uses
    /// #partitions = #nodes).
    pub num_parts: usize,
    /// Trainer PEs per compute node (4 in the paper).
    pub trainers_per_part: usize,
    /// Minibatch size per trainer (2000 in the paper, scaled here).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Sampler fanouts, input layer first ({10, 25} in the paper).
    pub fanouts: Vec<usize>,
    /// Neighbor-selection strategy (the paper's default is uniform).
    pub sampling: SamplingStrategy,
    /// Hidden dimension (256-class scale in the paper; scaled here).
    pub hidden_dim: usize,
    /// GraphSAGE or GAT.
    pub model: ModelKind,
    /// Attention heads for GAT (2 in the paper).
    pub gat_heads: usize,
    /// CPU or GPU training backend (cost model).
    pub backend: Backend,
    /// Baseline vs prefetch: what [`Engine::run`](super::Engine::run)
    /// runs. The build does not read it.
    pub mode: Mode,
    /// Master seed.
    pub seed: u64,
    /// Cost model parameters.
    pub cost: CostModel,
    /// Run real tensor math + DDP updates (slower; exact parameters) or
    /// only the data pipeline + cost accounting (fast; identical counts).
    pub train_math: bool,
    /// Which scheduler steps the trainers: every trainer on its own OS
    /// thread, meeting at a per-step DDP barrier (wall-clock
    /// parallelism), instead of round-robin on the calling thread. Both
    /// run the same step loop, so reports are bitwise-identical.
    ///
    /// Trainer threads are spawned *outside* the global kernel pool, so a
    /// `num_parts × trainers_per_part` world multiplies against the
    /// pool's size. On small machines set `MGNN_THREADS` (e.g. to 1) to
    /// keep `world × pool` within the core count; results are unaffected
    /// — the pool is bitwise-deterministic at any thread count.
    pub parallel: bool,
    /// Record per-phase spans, latency histograms, and per-step telemetry
    /// into [`RunReport::traces`](super::RunReport::traces). Off by
    /// default; when off, no recorder exists anywhere and the report is
    /// bitwise-identical to an untraced run.
    pub trace: bool,
    /// Deterministic fault profile injected into every RPC server.
    /// `None` disables the chaos machinery entirely; a profile whose
    /// probabilities are all zero (`FaultProfile::off`) keeps the
    /// machinery armed but produces a bitwise-identical report to
    /// `None` — the identity tests pin exactly that.
    pub fault: Option<FaultProfile>,
    /// Retry/backoff policy failed pulls follow when `fault` is active.
    /// Backoff is charged to the *simulated* clock, never slept.
    pub retry: RetryPolicy,
    /// Recycle the prepare scratch and the `PreparedBatch` carcasses, so
    /// steady-state preparation performs no heap allocation. Off prepares
    /// every batch into fresh ones; the gradient-exchange buffers and the
    /// optimizer scratch are reused either way, and reports are
    /// bitwise-identical either way.
    pub pooling: bool,
    /// Attach every trainer's counters to the process-global
    /// live-telemetry registry ([`mgnn_obs::registry`]) so a Prometheus
    /// scrape server can expose them mid-run, and record step counts and
    /// per-lane step latencies there. Perturbs only wall-clock, never
    /// the simulated clock: the [`RunReport`](super::RunReport) is
    /// bitwise-identical with telemetry on or off.
    pub telemetry: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataset: DatasetKind::Products,
            scale: Scale::Unit,
            num_parts: 2,
            trainers_per_part: 2,
            batch_size: 64,
            epochs: 2,
            fanouts: vec![10, 25],
            sampling: SamplingStrategy::Uniform,
            hidden_dim: 32,
            model: ModelKind::Sage,
            gat_heads: 2,
            backend: Backend::Cpu,
            mode: Mode::Baseline,
            seed: 42,
            cost: CostModel::default(),
            train_math: false,
            parallel: false,
            trace: false,
            fault: None,
            retry: RetryPolicy::default(),
            pooling: true,
            telemetry: false,
        }
    }
}

impl EngineConfig {
    /// Check the fields a run cannot survive being wrong; the first
    /// problem comes back as a message naming the field.
    /// [`Engine::build`](super::Engine::build) calls this before it
    /// generates anything.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("num_parts", self.num_parts),
            ("trainers_per_part", self.trainers_per_part),
            ("batch_size", self.batch_size),
            // A zero-wide hidden layer has no bias row to broadcast: the
            // first `train_math` step would panic inside the tensor kernel.
            ("hidden_dim", self.hidden_dim),
        ] {
            if value == 0 {
                return Err(format!("{name} must be >= 1"));
            }
        }
        if self.fanouts.is_empty() || self.fanouts.contains(&0) {
            return Err(format!(
                "fanouts {:?} must be non-empty with every entry >= 1",
                self.fanouts
            ));
        }
        // `make_model` builds `[in, hidden, classes]` whatever the sampler
        // depth, and a model consumes exactly one block per layer.
        if self.fanouts.len() != 2 {
            return Err(format!(
                "fanouts {:?} must have exactly 2 entries: every model is built with two \
                 layers and takes one sampled block per layer",
                self.fanouts
            ));
        }
        if matches!(self.model, ModelKind::Gat) && self.gat_heads == 0 {
            return Err("gat_heads must be >= 1 for a GAT model".into());
        }
        if let Mode::Prefetch(p) = &self.mode {
            p.validate()?;
        }
        if let Some(f) = &self.fault {
            f.validate(self.num_parts)?;
        }
        self.retry.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bad_field_is_rejected_by_name() {
        let prefetch = Mode::Prefetch;
        let d = EngineConfig::default;
        let p = PrefetchConfig::default;
        let f = || FaultProfile::heavy(7);
        let faulty = |fault| EngineConfig {
            fault: Some(fault),
            ..d()
        };
        let retrying = |retry| EngineConfig { retry, ..d() };
        let r = RetryPolicy::default;
        #[rustfmt::skip]
        let bad: [(&str, EngineConfig); 26] = [
            ("num_parts", EngineConfig { num_parts: 0, ..d() }),
            ("trainers_per_part", EngineConfig { trainers_per_part: 0, ..d() }),
            ("batch_size", EngineConfig { batch_size: 0, ..d() }),
            ("hidden_dim", EngineConfig { hidden_dim: 0, ..d() }),
            ("fanouts", EngineConfig { fanouts: vec![], ..d() }),
            ("fanouts", EngineConfig { fanouts: vec![10, 0], ..d() }),
            // `Model::forward` would panic at the first step ("blocks/layers
            // mismatch"); without `train_math`, `macs` would price the
            // wrong blocks into t_ddp.
            ("fanouts", EngineConfig { fanouts: vec![5], ..d() }),
            ("fanouts", EngineConfig { fanouts: vec![5, 5, 5], ..d() }),
            ("gat_heads", EngineConfig { model: ModelKind::Gat, gat_heads: 0, ..d() }),
            ("f_h", EngineConfig { mode: prefetch(PrefetchConfig { f_h: 1.5, ..p() }), ..d() }),
            ("gamma", EngineConfig { mode: prefetch(PrefetchConfig { gamma: 2.0, ..p() }), ..d() }),
            ("delta", EngineConfig { mode: prefetch(PrefetchConfig { delta: 0, ..p() }), ..d() }),
            // `alpha()` raises γ to `delta as i32`: past i32::MAX the
            // exponent wraps negative and α > 1 evicts every slot.
            ("delta", EngineConfig {
                mode: prefetch(PrefetchConfig { delta: i32::MAX as usize + 1, ..p() }),
                ..d()
            }),
            ("depth", EngineConfig { mode: prefetch(p().with_lookahead_policy(0)), ..d() }),
            ("fault.drop_prob", faulty(FaultProfile { drop_prob: f64::NAN, ..f() })),
            ("fault.drop_prob", faulty(FaultProfile { drop_prob: -0.1, ..f() })),
            ("fault.delay_prob", faulty(FaultProfile { delay_prob: 1.5, ..f() })),
            ("fault.truncate_prob", faulty(FaultProfile { truncate_prob: f64::INFINITY, ..f() })),
            // Each in range, together more than one verdict per request:
            // `FaultPlan::verdict` would silently never truncate.
            ("fault.drop_prob + fault.delay_prob + fault.truncate_prob",
             faulty(FaultProfile { drop_prob: 0.5, delay_prob: 0.4, truncate_prob: 0.2, ..f() })),
            ("fault.delay_factor", faulty(FaultProfile { delay_factor: 0, ..f() })),
            // The crash would silently never happen.
            ("fault.crash_part", faulty(FaultProfile { crash_part: Some(2), ..f() })),
            ("fault.crash_part",
             EngineConfig { num_parts: 4, ..faulty(FaultProfile { crash_part: Some(4), ..f() }) }),
            ("retry.base_backoff_s", retrying(RetryPolicy { base_backoff_s: -1e-3, ..r() })),
            ("retry.base_backoff_s", retrying(RetryPolicy { base_backoff_s: f64::NAN, ..r() })),
            ("retry.backoff_mult", retrying(RetryPolicy { backoff_mult: -2.0, ..r() })),
            ("retry.backoff_mult", retrying(RetryPolicy { backoff_mult: f64::INFINITY, ..r() })),
        ];
        for (field, cfg) in bad {
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field}: message {err:?}");
        }
        // Zero heads only matter to the model that has heads.
        assert!(EngineConfig {
            gat_heads: 0,
            ..d()
        }
        .validate()
        .is_ok());
        assert!(d().validate().is_ok());
        assert!(EngineConfig {
            mode: prefetch(p()),
            ..d()
        }
        .validate()
        .is_ok());
        // The named profiles, and the benchmark's `chaos-lookahead` one.
        let chaos_lookahead = FaultProfile {
            drop_prob: 0.0,
            truncate_prob: 0.10,
            ..f()
        };
        for profile in [
            FaultProfile::off(7),
            FaultProfile::light(7),
            f(),
            chaos_lookahead,
        ] {
            let cfg = EngineConfig {
                fault: Some(profile),
                retry: RetryPolicy {
                    max_retries: 4,
                    ..Default::default()
                },
                ..d()
            };
            assert_eq!(cfg.validate(), Ok(()), "{:?}", cfg.fault);
        }
        // A delay factor of 0 is what `off` carries: fine while nothing
        // is ever delayed.
        assert!(EngineConfig {
            fault: Some(FaultProfile {
                delay_prob: 0.0,
                delay_factor: 0,
                ..f()
            }),
            ..d()
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "batch_size must be >= 1")]
    fn build_refuses_a_bad_config_before_generating() {
        super::super::Engine::build(EngineConfig {
            batch_size: 0,
            // Bench scale would take seconds to generate; the panic must
            // come first.
            scale: Scale::Bench,
            ..Default::default()
        });
    }
}
