//! What a run hands back: the modeled time [`Breakdown`], one
//! [`TrainerReport`] per trainer and the whole-run [`RunReport`].

use crate::hitrate::HitRateTracker;
use crate::init::InitReport;
use crate::prefetcher::PrepareTiming;
use mgnn_net::metrics::MetricsSnapshot;
use mgnn_obs::{Phase, TrainerTrace};

/// Modeled time breakdown accumulated over a trainer's whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Neighbor sampling.
    pub sampling_s: f64,
    /// Buffer lookups.
    pub lookup_s: f64,
    /// Scoreboard maintenance.
    pub scoring_s: f64,
    /// Eviction rounds.
    pub evict_s: f64,
    /// Remote feature fetch.
    pub rpc_s: f64,
    /// Local feature copy.
    pub copy_s: f64,
    /// DDP training.
    pub train_s: f64,
    /// Planning rounds: lookahead-planned pulls and their bookkeeping,
    /// off the critical RPC path (0.0 without a planner).
    pub planned_s: f64,
}

impl Breakdown {
    pub(super) fn add_prepare(&mut self, t: &PrepareTiming) {
        self.sampling_s += t.t_sampling;
        self.lookup_s += t.t_lookup;
        self.scoring_s += t.t_scoring;
        self.evict_s += t.t_evict;
        self.rpc_s += t.t_rpc;
        self.copy_s += t.t_copy;
        self.planned_s += t.t_planned;
    }

    /// Sum of all components (serial work, ignoring overlap), in
    /// [`Phase::REPORTED`] order.
    pub fn total_serial(&self) -> f64 {
        Phase::REPORTED
            .iter()
            .filter_map(|&p| self.phase_s(p))
            .sum()
    }

    /// The paper's §V-B5 communication stall:
    /// `t_communication = t_RPC − t_copy` (clamped at 0).
    pub fn communication_stall_s(&self) -> f64 {
        (self.rpc_s - self.copy_s).max(0.0)
    }

    /// The field corresponding to a tracing [`Phase`] (`None` for
    /// [`Phase::Allreduce`], which is a sub-span of `train_s`, and for
    /// [`Phase::Fault`]). Every field is one phase's, so the total and
    /// the trace-consistency checks walk phases instead of hand-listing
    /// fields.
    pub fn phase_s(&self, phase: Phase) -> Option<f64> {
        match phase {
            Phase::Sampling => Some(self.sampling_s),
            Phase::Lookup => Some(self.lookup_s),
            Phase::Scoring => Some(self.scoring_s),
            Phase::Evict => Some(self.evict_s),
            Phase::Rpc => Some(self.rpc_s),
            Phase::Copy => Some(self.copy_s),
            Phase::Train => Some(self.train_s),
            // Out of `Phase::ALL` (a span only on steps that charged a
            // round), but its spans still sum to `planned_s`.
            Phase::Planned => Some(self.planned_s),
            Phase::Allreduce => None,
            // Fault time is already folded into `rpc_s`; its lane-level
            // span is an out-of-band annotation, not a breakdown field.
            Phase::Fault => None,
        }
    }
}

/// Per-trainer result.
#[derive(Debug, Clone)]
pub struct TrainerReport {
    /// Partition this trainer lives on.
    pub part_id: u32,
    /// Trainer index within the partition.
    pub trainer_id: u32,
    /// Simulated end-to-end time.
    pub sim_time_s: f64,
    /// Time the trainer waited for its next batch, the first batch's
    /// preparation excluded. In baseline mode, where nothing is prepared
    /// ahead, that is every later batch's whole preparation; §V-B5's
    /// communication stall is [`Breakdown::communication_stall_s`].
    pub stall_s: f64,
    /// The share of the waiting the batches did, not the trainer:
    /// `slack / (stall + slack)`. 1.0 = the paper's perfect overlap, 0.0 =
    /// none (baseline mode).
    pub overlap_efficiency: f64,
    /// Exact communication counters.
    pub metrics: MetricsSnapshot,
    /// Per-minibatch hit/miss history.
    pub hits: HitRateTracker,
    /// Modeled time breakdown.
    pub breakdown: Breakdown,
    /// Prefetcher initialization cost (zeroed in baseline mode).
    pub init: InitReport,
    /// Halo nodes visible to this trainer's partition.
    pub num_halo: usize,
    /// Minibatches processed.
    pub minibatches: u64,
    /// Mean fraction of the partition's halo set sampled per minibatch
    /// (Fig. 10's right-hand series).
    pub remote_sampled_frac: f64,
    /// Peak bytes: persistent prefetcher state + largest per-step
    /// transient (Fig. 14).
    pub peak_bytes: usize,
}

/// Whole-run result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mode that ran.
    pub mode_label: String,
    /// Per-trainer reports.
    pub trainers: Vec<TrainerReport>,
    /// Makespan: slowest trainer's simulated time.
    pub makespan_s: f64,
    /// Synchronized steps per epoch.
    pub steps_per_epoch: usize,
    /// World size (total trainers).
    pub world: usize,
    /// Mean loss per epoch (empty unless `train_math`).
    pub epoch_loss: Vec<f32>,
    /// Mean minibatch accuracy per epoch (empty unless `train_math`).
    pub epoch_acc: Vec<f64>,
    /// Final model parameters of trainer 0 (empty unless `train_math`) —
    /// lets tests assert baseline ≡ prefetch.
    pub final_params: Vec<f32>,
    /// Per-trainer observability traces (empty unless
    /// [`EngineConfig::trace`](super::EngineConfig::trace)).
    pub traces: Vec<TrainerTrace>,
}

impl RunReport {
    /// Aggregate cumulative hit rate over all trainers.
    pub fn hit_rate(&self) -> f64 {
        let agg = self.aggregate_metrics();
        agg.hit_rate()
    }

    /// Sum of all trainers' counters.
    pub fn aggregate_metrics(&self) -> MetricsSnapshot {
        self.trainers
            .iter()
            .fold(MetricsSnapshot::default(), |a, t| a.merge(&t.metrics))
    }

    /// Mean overlap efficiency over trainers.
    pub fn mean_overlap_efficiency(&self) -> f64 {
        if self.trainers.is_empty() {
            return 1.0;
        }
        self.trainers
            .iter()
            .map(|t| t.overlap_efficiency)
            .sum::<f64>()
            / self.trainers.len() as f64
    }

    /// Total initialization cost across trainers.
    pub fn total_init_s(&self) -> f64 {
        self.trainers.iter().map(|t| t.init.total_s()).sum()
    }

    /// Load-imbalance factor: slowest trainer's time over the mean.
    /// 1.0 = perfectly balanced. The paper attributes arxiv's extreme
    /// GPU-side gains to severe imbalance (§V-A2: "6x more time on
    /// communication and data movement than training").
    pub fn load_imbalance(&self) -> f64 {
        if self.trainers.is_empty() {
            return 1.0;
        }
        let mean =
            self.trainers.iter().map(|t| t.sim_time_s).sum::<f64>() / self.trainers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.makespan_s / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_serial_sums_all_components() {
        let b = Breakdown {
            sampling_s: 1.0,
            lookup_s: 2.0,
            scoring_s: 4.0,
            evict_s: 8.0,
            rpc_s: 16.0,
            copy_s: 32.0,
            train_s: 64.0,
            planned_s: 128.0,
        };
        assert_eq!(b.total_serial(), 255.0);
        assert_eq!(Breakdown::default().total_serial(), 0.0);
    }

    #[test]
    fn communication_stall_clamps_at_zero() {
        let mut b = Breakdown {
            rpc_s: 5.0,
            copy_s: 2.0,
            ..Default::default()
        };
        assert_eq!(b.communication_stall_s(), 3.0);
        // Copy dominating RPC must clamp to zero, not go negative.
        b.rpc_s = 1.0;
        b.copy_s = 4.0;
        assert_eq!(b.communication_stall_s(), 0.0);
        assert_eq!(Breakdown::default().communication_stall_s(), 0.0);
    }
}
