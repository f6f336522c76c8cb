//! Pluggable prefetch policies (DESIGN §10).
//!
//! The prefetcher's admission/eviction/pull decisions go through the
//! [`PrefetchPolicy`] trait. Two implementations ship:
//!
//! * [`ScoreboardPolicy`] — the paper's reactive S_E/S_A scheme. It is a
//!   pure marker: `reactive()` returns `true`, which keeps every
//!   scoreboard pass in [`crate::prefetcher::Prefetcher::prepare_reuse`]
//!   on its original code path, so scoreboard runs are bitwise-identical
//!   to the pre-trait prefetcher (pinned by the identity tests).
//! * [`LookaheadPolicy`] — a deterministic planner in the RapidGNN
//!   spirit. The sampler is seeded and [`DataLoader::epoch`] memoizes the
//!   full shuffled plan, so the exact halo rows every *future* minibatch
//!   needs are computable ahead of time. Each prepare step the planner
//!   walks the plan `depth` steps past the current one, re-runs the
//!   sampler against those future seeds, and issues one batched
//!   [`SimCluster::pull_rows`] for the not-yet-resident rows
//!   — before they are due. At steady state every probe hits and the
//!   critical-path `t_rpc` collapses to the empty-fetch cost.
//!
//! Contract (all policies):
//!
//! * **Determinism** — decisions may depend only on the policy's own
//!   seeded state and the (epoch, step) position; planning on the
//!   threaded engine's prepare thread must replay the sequential
//!   engine's decisions bit for bit.
//! * **Clock charging** — time spent planning is returned from
//!   [`PrefetchPolicy::plan`] and charged to the *prepare window*
//!   (`t_planned` of Eq. 3's extended form), never to the critical-path
//!   `t_rpc`; its spans land on [`mgnn_obs::Lane::Lookahead`].
//! * **Fault composition** — planned pulls go through the same
//!   retry/degradation ladder as demand fetches: a row whose fetch
//!   exhausts every retry is simply *not installed* (no zero rows ever
//!   enter the buffer), so the demand path later re-fetches it with its
//!   own full ladder. Learning math is therefore policy-independent.

use crate::buffer::PrefetchBuffer;
use mgnn_graph::NodeId;
use mgnn_net::{CommMetrics, CostModel, SimCluster};
use mgnn_partition::LocalPartition;
use mgnn_sampling::{DataLoader, NeighborSampler, SampledMinibatch, SamplerScratch};

/// Everything a policy may read or mutate during one planning round.
/// Borrowed out of the prefetcher at the head of each prepare call.
pub struct PlanCtx<'a> {
    /// The trainer's prefetch buffer (the policy installs planned rows
    /// here).
    pub buffer: &'a mut PrefetchBuffer,
    /// The trainer's partition.
    pub part: &'a LocalPartition,
    /// RPC cluster handle for planned pulls.
    pub cluster: &'a SimCluster,
    /// Simulated cost model (planned-pull time charging).
    pub cost: &'a CostModel,
    /// The trainer's counters/span recorder.
    pub metrics: &'a CommMetrics,
    /// Global step being prepared (continuous across epochs).
    pub step: u64,
}

/// A prefetch admission/eviction/pull policy (see the module docs for
/// the determinism / clock-charging / fault-composition contract).
pub trait PrefetchPolicy: Send {
    /// Stable name for reports and labels.
    fn name(&self) -> &'static str;

    /// Whether the prepare path runs the paper's reactive scoreboard
    /// passes (S_E decay, S_A increments, Δ-periodic evict-and-replace).
    /// `true` for the scoreboard policy; planners that manage the buffer
    /// themselves return `false`.
    fn reactive(&self) -> bool;

    /// One planning round at the head of `ctx.step`'s prepare window.
    /// Returns the modeled seconds of planned-pull work to charge to the
    /// prepare window (exactly `0.0` when nothing was pulled, keeping
    /// scoreboard timings bitwise-unchanged).
    fn plan(&mut self, ctx: PlanCtx<'_>) -> f64;
}

/// The paper-faithful reactive policy: all decisions stay on the
/// prefetcher's original S_E/S_A code path.
#[derive(Debug, Default)]
pub struct ScoreboardPolicy;

impl PrefetchPolicy for ScoreboardPolicy {
    fn name(&self) -> &'static str {
        "scoreboard"
    }

    fn reactive(&self) -> bool {
        true
    }

    fn plan(&mut self, _ctx: PlanCtx<'_>) -> f64 {
        0.0
    }
}

/// Deterministic lookahead planner (see the module docs).
///
/// Owns private clones of the trainer's [`DataLoader`] and
/// [`NeighborSampler`]: both are pure functions of `(epoch, step)` given
/// their construction seed, so re-running them here reproduces exactly
/// the minibatches the prepare loop will sample later — without
/// thrashing the prepare loop's single-slot epoch memo.
pub struct LookaheadPolicy {
    depth: usize,
    loader: DataLoader,
    sampler: NeighborSampler,
    steps_per_epoch: u64,
    total_steps: u64,
    /// First global step whose needs have not been planned yet.
    next_plan: u64,
    /// Per-halo-idx "needed through step f" marks, stored as `f + 1`
    /// (0 = never needed so far). A buffered row is evictable at step
    /// `s` iff `need_until <= s`.
    need_until: Vec<u64>,
    /// Stamp-dedup for the per-round want list (same mechanism as the
    /// prefetcher's `sampled_stamp`).
    want_stamp: Vec<u64>,
    stamp: u64,
    /// `(halo, due)` rows wanted but not yet installed: wants that found
    /// no room, plus still-needed occupants displaced by Belady
    /// eviction. Re-tried first every round while still needed: as their
    /// due approaches, earlier rows finish serving and free evictable
    /// slots, so a near-due want usually lands before the demand path
    /// would have missed on it.
    pending: Vec<(u32, u64)>,
    // Reusable planning scratch — allocation-free after warmup, like
    // `PrepareScratch`.
    mb: SampledMinibatch,
    samp: SamplerScratch,
    local_ids: Vec<u32>,
    halo_ids: Vec<u32>,
    /// `(due, halo)` wants for the current round, sorted earliest-first.
    want: Vec<(u64, u32)>,
    want_globals: Vec<NodeId>,
    evict_slots: Vec<u32>,
    /// `(need_until, slot)` Belady candidates, furthest-needed first.
    far_slots: Vec<(u64, u32)>,
}

impl LookaheadPolicy {
    /// Planner over this trainer's loader/sampler clones. `depth ≥ 1` is
    /// the planning horizon in minibatch steps past the one being
    /// prepared. `steps_per_epoch` must be the *engine's* value (the min
    /// across trainers), not this loader's `batches_per_epoch` — the
    /// global-step → (epoch, step) mapping has to replay the run loop's
    /// exactly.
    pub fn new(
        depth: usize,
        loader: DataLoader,
        sampler: NeighborSampler,
        steps_per_epoch: usize,
        epochs: usize,
        num_halo: usize,
    ) -> Self {
        assert!(depth >= 1, "lookahead depth must be >= 1");
        let steps_per_epoch = steps_per_epoch as u64;
        LookaheadPolicy {
            depth,
            loader,
            sampler,
            steps_per_epoch,
            total_steps: steps_per_epoch * epochs as u64,
            next_plan: 0,
            need_until: vec![0; num_halo],
            want_stamp: vec![0; num_halo],
            stamp: 0,
            pending: Vec::new(),
            mb: SampledMinibatch::default(),
            samp: SamplerScratch::default(),
            local_ids: Vec::new(),
            halo_ids: Vec::new(),
            want: Vec::new(),
            want_globals: Vec::new(),
            evict_slots: Vec::new(),
            far_slots: Vec::new(),
        }
    }

    /// Planning horizon in steps.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl PrefetchPolicy for LookaheadPolicy {
    fn name(&self) -> &'static str {
        "lookahead"
    }

    fn reactive(&self) -> bool {
        false
    }

    fn plan(&mut self, ctx: PlanCtx<'_>) -> f64 {
        if self.total_steps == 0 || self.steps_per_epoch == 0 {
            return 0.0;
        }
        let step = ctx.step;
        let horizon = (step + self.depth as u64).min(self.total_steps - 1);
        let num_local = ctx.part.num_local();

        // Collect this round's wants as (due, halo) pairs: carried-over
        // pending rows first (with their original dues, clamped up to
        // `step` once missed), then every not-yet-planned step up to the
        // horizon, re-sampling its minibatch to learn the exact halo ids
        // it will probe.
        self.stamp += 1;
        self.want.clear();
        for i in 0..self.pending.len() {
            let (h, due) = self.pending[i];
            if self.need_until[h as usize] > step
                && self.want_stamp[h as usize] != self.stamp
                && !ctx.buffer.contains(h)
            {
                self.want_stamp[h as usize] = self.stamp;
                self.want.push((due.max(step), h));
            }
        }
        for f in self.next_plan..=horizon {
            let epoch = f / self.steps_per_epoch;
            let s = (f % self.steps_per_epoch) as usize;
            let plan = self.loader.epoch(epoch);
            let seeds = &plan[s];
            self.sampler
                .sample_into(ctx.part, seeds, epoch, f, &mut self.mb, &mut self.samp);
            self.mb
                .split_local_halo_into(num_local, &mut self.local_ids, &mut self.halo_ids);
            for &lid in &self.halo_ids {
                let h = lid - num_local as u32;
                let due = f + 1;
                if self.need_until[h as usize] < due {
                    self.need_until[h as usize] = due;
                }
                if self.want_stamp[h as usize] != self.stamp && !ctx.buffer.contains(h) {
                    self.want_stamp[h as usize] = self.stamp;
                    self.want.push((f, h));
                }
            }
        }
        self.next_plan = horizon + 1;
        if self.want.is_empty() {
            self.pending.clear();
            return 0.0;
        }
        // Earliest-due first; halo id tiebreak keeps the order — and the
        // whole run — deterministic at any thread count.
        self.want.sort_unstable();

        // Room for installs, Belady-style: unused capacity first, then
        // occupants whose last planned use has passed, then — pairing
        // the latest wants against the furthest-needed occupants — an
        // occupant needed strictly *later* than the want being placed.
        // Such an occupant is re-pended with its own (later) due, so
        // displacement chains strictly increase in due and cannot churn;
        // never evicting an occupant needed sooner than the incoming
        // want is what keeps deep horizons from squatting on slots that
        // near-due rows need.
        let spare = ctx.buffer.capacity() - ctx.buffer.len();
        self.evict_slots.clear();
        if self.want.len() > spare {
            let needed = self.want.len() - spare;
            for slot in 0..ctx.buffer.len() as u32 {
                if self.evict_slots.len() == needed {
                    break;
                }
                let h = ctx.buffer.halo_at(slot);
                if self.need_until[h as usize] <= step {
                    self.evict_slots.push(slot);
                }
            }
            if self.evict_slots.len() < needed {
                self.far_slots.clear();
                for slot in 0..ctx.buffer.len() as u32 {
                    let h = ctx.buffer.halo_at(slot);
                    let need = self.need_until[h as usize];
                    if need > step {
                        self.far_slots.push((need, slot));
                    }
                }
                self.far_slots
                    .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut fi = 0;
                let mut wi = spare + self.evict_slots.len();
                while wi < self.want.len() && fi < self.far_slots.len() {
                    let (need, slot) = self.far_slots[fi];
                    // `need` is "needed through step need-1": evict only
                    // if that is strictly after the want's due.
                    if need <= self.want[wi].0 + 1 {
                        break;
                    }
                    self.evict_slots.push(slot);
                    fi += 1;
                    wi += 1;
                }
            }
        }
        // Wants that found no room carry over to the next round's
        // pending list, falling back to a demand fetch only if their due
        // step arrives first.
        let k = self.want.len().min(spare + self.evict_slots.len());
        self.pending.clear();
        self.pending
            .extend(self.want[k..].iter().map(|&(due, h)| (h, due)));
        if k == 0 {
            return 0.0;
        }
        self.want.truncate(k);

        // One batched pull for the whole round, through the same
        // retry/degradation ladder as demand fetches.
        let halo_nodes = &ctx.part.halo_nodes;
        self.want_globals.clear();
        self.want_globals
            .extend(self.want.iter().map(|&(_, h)| halo_nodes[h as usize]));
        let req_id = mgnn_obs::events::request_id(
            mgnn_obs::events::ORIGIN_PLANNED,
            ctx.metrics.trace_rank(),
            step,
        );
        let (rows, outcome) = ctx.cluster.pull_rows(&self.want_globals, req_id);
        let dim = ctx.cluster.dim();
        let t_fault = outcome.charge_s(ctx.cost, dim, ctx.cluster.retry_policy());
        let t_planned = ctx.cost.t_rpc(k, dim) + t_fault;
        ctx.metrics.record_planned(k as u64, dim);
        ctx.metrics.record_pull_outcome(&outcome);
        ctx.metrics.planned_span(step, 0.0, t_planned);
        if t_fault > 0.0 {
            ctx.metrics.fault_span_corr(step, 0.0, t_fault, req_id);
        }

        // Install the rows that survived the ladder. A failed row is
        // skipped — never zero-filled into the buffer — so the demand
        // path re-fetches it at its due step with full retries. An
        // evicted occupant that is still needed goes back on the pending
        // list with its own later due, to be re-pulled before then.
        let mut next_evict = 0usize;
        for (i, &(_, h)) in self.want.iter().enumerate() {
            if outcome.failed_rows.binary_search(&i).is_ok() {
                continue;
            }
            let decode = |slot_row: &mut [f32]| rows.decode_into(i, slot_row);
            if ctx.buffer.len() < ctx.buffer.capacity() {
                ctx.buffer.insert_with(h, decode);
            } else {
                let slot = self.evict_slots[next_evict];
                next_evict += 1;
                let old = ctx.buffer.replace_with(slot, h, decode);
                let need = self.need_until[old as usize];
                if need > step {
                    self.pending.push((old, need - 1));
                }
            }
        }
        t_planned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_policy_is_inert() {
        let p = ScoreboardPolicy;
        assert_eq!(p.name(), "scoreboard");
        assert!(p.reactive());
    }

    #[test]
    fn lookahead_policy_reports_shape() {
        let loader = DataLoader::new((0..32).collect(), 8, 7);
        let sampler = NeighborSampler::new(vec![2, 2], 9);
        let p = LookaheadPolicy::new(4, loader, sampler, 4, 2, 100);
        assert_eq!(p.name(), "lookahead");
        assert!(!p.reactive());
        assert_eq!(p.depth(), 4);
        assert_eq!(p.steps_per_epoch, 4);
        assert_eq!(p.total_steps, 8);
    }

    #[test]
    #[should_panic(expected = "depth must be >= 1")]
    fn zero_depth_rejected() {
        let loader = DataLoader::new((0..8).collect(), 8, 0);
        let sampler = NeighborSampler::new(vec![2], 0);
        let _ = LookaheadPolicy::new(0, loader, sampler, 1, 1, 10);
    }
}
