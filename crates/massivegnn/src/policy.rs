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
//!   needs are computable ahead of time. The planner works a window at a
//!   time: when the step being prepared is the first one it has not
//!   planned, it samples that step and the `depth` after it — each once,
//!   into a ring of [`window`](PrefetchPolicy::window) recycled
//!   minibatches — and issues one batched [`SimCluster::pull_rows`] for
//!   every row the window probes that is not resident. The look-ahead
//!   queue is as deep as that ring, so the pull lands behind a window of
//!   training, not one step of it. The steps in between plan nothing and
//!   pull nothing, and the prepare path takes each step's minibatch out
//!   of the ring ([`PrefetchPolicy::take_sampled`]) instead of sampling
//!   it a second time. At steady state every probe hits and the
//!   critical-path `t_rpc` collapses to the empty-fetch cost. A round
//!   that needs room evicts by Belady's rule inside its window and, on
//!   the rows the window does not probe, coldest first: fewest planned
//!   steps that probed the row so far, then lowest degree.
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
use std::sync::Arc;

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
    /// Whether the prepare path runs the paper's reactive scoreboard
    /// passes (S_E decay, S_A increments, Δ-periodic evict-and-replace).
    /// `true` for the scoreboard policy; planners that manage the buffer
    /// themselves return `false`.
    fn reactive(&self) -> bool;

    /// The head of `ctx.step`'s prepare window: plan, if this step calls
    /// for it. Returns the modeled seconds of the round to charge to the
    /// prepare window — the planned pull it issued plus its bookkeeping
    /// (exactly `0.0` when the step runs no round, keeping scoreboard
    /// timings bitwise-unchanged).
    fn plan(&mut self, ctx: PlanCtx<'_>) -> f64;

    /// Hand over the minibatch this policy has already sampled for
    /// exactly this call — this sampler, these seeds, this epoch and
    /// global step — by swapping it into `mb`, whose old buffers the
    /// policy keeps for a later step. `false`, with `mb` untouched, when
    /// it holds no such minibatch: the caller then samples. Policies that
    /// sample nothing keep the default.
    fn take_sampled(
        &mut self,
        _sampler: &NeighborSampler,
        _seeds: &[u32],
        _epoch: u64,
        _step: u64,
        _mb: &mut SampledMinibatch,
    ) -> bool {
        false
    }

    /// How many minibatches the policy makes ready in one go: the depth
    /// of the look-ahead queue between the prepare side and the trainer,
    /// in the engine's pipeline clock and in
    /// [`PrefetchPipeline`](crate::pipeline::PrefetchPipeline)'s channel
    /// alike. 1 — the paper's queue — unless the policy plans further.
    fn window(&self) -> usize {
        1
    }

    /// Persistent heap bytes of the policy's own state, counted into
    /// [`crate::prefetcher::Prefetcher::heap_bytes`]. The scoreboards
    /// belong to the prefetcher, so a policy that adds none reports 0.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The paper-faithful reactive policy: all decisions stay on the
/// prefetcher's original S_E/S_A code path.
#[derive(Debug, Default)]
pub struct ScoreboardPolicy;

impl PrefetchPolicy for ScoreboardPolicy {
    fn reactive(&self) -> bool {
        true
    }

    fn plan(&mut self, _ctx: PlanCtx<'_>) -> f64 {
        0.0
    }
}

/// Tag of a ring slot that holds no planned minibatch.
const UNPLANNED: u64 = u64::MAX;

/// One slot of the planner's window ring: the minibatch sampled for
/// global step `step`, kept until the prepare path takes it.
struct Planned {
    /// The step `mb` was sampled for, [`UNPLANNED`] once handed over.
    step: u64,
    /// The loader's seed list `mb` was sampled from.
    seeds: Option<Arc<[u32]>>,
    mb: SampledMinibatch,
    /// Halo indices `mb` probes (its input nodes past the local range).
    halo: Vec<u32>,
}

impl Planned {
    /// Bytes of the sampled structure held here.
    fn heap_bytes(&self) -> usize {
        let blocks: usize = self
            .mb
            .blocks
            .iter()
            .map(|b| b.src_nodes.len() + b.offsets.len() + b.indices.len())
            .sum();
        4 * (self.mb.seeds.len() + self.mb.input_nodes.len() + blocks + self.halo.len())
    }
}

/// Deterministic lookahead planner (see the module docs).
///
/// Owns private clones of the trainer's [`DataLoader`] and
/// [`NeighborSampler`]: both are pure functions of `(epoch, step)` given
/// their construction seed, so running them here produces exactly the
/// minibatches the prepare loop is going to ask for — without thrashing
/// the prepare loop's single-slot epoch memo.
pub struct LookaheadPolicy {
    /// Planning horizon in steps past the one being prepared, at most
    /// `total_steps − 1`.
    depth: u64,
    loader: DataLoader,
    sampler: NeighborSampler,
    steps_per_epoch: u64,
    total_steps: u64,
    /// The window: slot `f % (depth + 1)` holds planned step `f`. A step
    /// whose slot does not carry its tag has not been planned.
    ring: Vec<Planned>,
    /// Earliest step that probes a row the last round wanted and left
    /// out of the buffer — no room for it, its fetch failed, or Belady
    /// eviction displaced it. A round runs then, ahead of the window's
    /// end: by its due step earlier rows have finished serving and freed
    /// evictable slots. `u64::MAX` when every want was installed.
    next_due: u64,
    /// Per-halo-idx first step of the current round's window that probes
    /// the row; valid where `seen[h] == stamp`. A buffered row is
    /// evictable for free iff no step of the window probes it.
    next_use: Vec<u64>,
    /// Stamp marking the halo indices the current round's window probes
    /// (same mechanism as the prefetcher's `sampled_stamp`).
    seen: Vec<u64>,
    stamp: u64,
    /// Per-halo-idx number of planned steps that probed the row so far
    /// (saturating), counted once when a step is sampled into the ring —
    /// every step is, exactly once, so the count is a pure function of
    /// the schedule. Past the window it is the planner's estimate of how
    /// soon a row comes back: the paper's S_A, kept for every halo row.
    probed: Vec<u32>,
    /// High-water mark of the bytes the ring held right after a round.
    ring_peak_bytes: usize,
    // Reusable planning scratch — allocation-free after warmup, like
    // `PrepareScratch`.
    samp: SamplerScratch,
    /// `(due, halo)` wants of the current round, earliest-due first.
    want: Vec<(u64, u32)>,
    want_globals: Vec<NodeId>,
    evict_slots: Vec<u32>,
    /// `(probed, halo_degree, slot)` of the occupants no step of the
    /// window probes, coldest first.
    cold_slots: Vec<(u32, u32, u32)>,
    /// `(next_use, slot)` Belady candidates, furthest-needed first.
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
        let total_steps = steps_per_epoch * epochs as u64;
        // A run has no steps to plan past its last one. Clamped before
        // the ring is allocated: `depth` comes off the command line.
        let depth = (depth as u64).min(total_steps.saturating_sub(1));
        let ring = (0..=depth).map(|_| Planned {
            step: UNPLANNED,
            seeds: None,
            mb: SampledMinibatch::default(),
            halo: Vec::new(),
        });
        LookaheadPolicy {
            depth,
            loader,
            sampler,
            steps_per_epoch,
            total_steps,
            ring: ring.collect(),
            next_due: u64::MAX,
            next_use: vec![0; num_halo],
            seen: vec![0; num_halo],
            stamp: 0,
            probed: vec![0; num_halo],
            ring_peak_bytes: 0,
            samp: SamplerScratch::default(),
            want: Vec::new(),
            want_globals: Vec::new(),
            evict_slots: Vec::new(),
            cold_slots: Vec::new(),
            far_slots: Vec::new(),
        }
    }

    fn slot_of(&self, step: u64) -> usize {
        (step % self.ring.len() as u64) as usize
    }
}

impl PrefetchPolicy for LookaheadPolicy {
    fn reactive(&self) -> bool {
        false
    }

    fn plan(&mut self, ctx: PlanCtx<'_>) -> f64 {
        let step = ctx.step;
        if step >= self.total_steps {
            return 0.0;
        }
        // The window cadence: a step the ring already holds, with no
        // left-out row due yet, was planned by an earlier round.
        if self.ring[self.slot_of(step)].step == step && step < self.next_due {
            return 0.0;
        }
        let horizon = (step + self.depth).min(self.total_steps - 1);
        let num_local = ctx.part.num_local();

        // Walk the window: sample the steps the ring does not hold yet —
        // each exactly once, here — and collect, earliest step first,
        // every halo row the window probes that is not resident, due at
        // the first step that probes it.
        self.stamp += 1;
        self.want.clear();
        let (mut ring_bytes, mut counted) = (0, 0);
        for f in step..=horizon {
            let i = self.slot_of(f);
            let slot = &mut self.ring[i];
            if slot.step != f {
                let epoch = f / self.steps_per_epoch;
                let seeds =
                    Arc::clone(&self.loader.epoch(epoch)[(f % self.steps_per_epoch) as usize]);
                self.sampler
                    .sample_into(ctx.part, &seeds, epoch, f, &mut slot.mb, &mut self.samp);
                slot.halo.clear();
                slot.halo.extend(
                    slot.mb
                        .input_nodes
                        .iter()
                        .filter(|&&lid| lid as usize >= num_local)
                        .map(|&lid| lid - num_local as u32),
                );
                slot.seeds = Some(seeds);
                slot.step = f;
                for &h in &slot.halo {
                    let n = &mut self.probed[h as usize];
                    *n = n.saturating_add(1);
                }
                counted += slot.halo.len();
            }
            ring_bytes += slot.heap_bytes();
            for &h in &slot.halo {
                if self.seen[h as usize] != self.stamp {
                    self.seen[h as usize] = self.stamp;
                    self.next_use[h as usize] = f;
                    if !ctx.buffer.contains(h) {
                        self.want.push((f, h));
                    }
                }
            }
        }
        self.ring_peak_bytes = self.ring_peak_bytes.max(ring_bytes);
        self.next_due = u64::MAX;
        // The round's bookkeeping, charged with its pull: the count
        // updates here, the eviction scan below. The walk's `seen` /
        // `next_use` marks ride on the sampler pass and are not charged.
        let mut t_planned = ctx.cost.t_scoring(counted, false, 0);
        if self.want.is_empty() {
            return t_planned;
        }

        // Room for installs, Belady-style: unused capacity first, then
        // occupants no step of the window probes, then — pairing the
        // latest wants against the furthest-needed occupants — an
        // occupant whose next use is strictly *later* than the due of
        // the want being placed. Never evicting an occupant needed
        // sooner than the incoming want is what keeps deep horizons from
        // squatting on slots that near-due rows need; what the buffer
        // holds after a round is the earliest-needed rows it has room
        // for. Past the window the plan cannot see a next use, so the
        // second group leaves coldest first: fewest planned steps that
        // probed the row so far, then lowest degree — the paper's two
        // estimates of how soon a halo row comes back.
        let spare = ctx.buffer.capacity() - ctx.buffer.len();
        self.evict_slots.clear();
        if self.want.len() > spare {
            let needed = self.want.len() - spare;
            t_planned += ctx.cost.t_lookup(ctx.buffer.len());
            self.cold_slots.clear();
            for slot in 0..ctx.buffer.len() as u32 {
                let h = ctx.buffer.halo_at(slot) as usize;
                if self.seen[h] != self.stamp {
                    self.cold_slots
                        .push((self.probed[h], ctx.part.halo_degree[h], slot));
                }
            }
            // The slot makes every key distinct, so the unstable
            // selection and sort are deterministic at any thread count.
            if self.cold_slots.len() > needed {
                self.cold_slots.select_nth_unstable(needed);
                self.cold_slots.truncate(needed);
            }
            self.cold_slots.sort_unstable();
            self.evict_slots
                .extend(self.cold_slots.iter().map(|&(_, _, slot)| slot));
            if self.evict_slots.len() < needed {
                self.far_slots.clear();
                for slot in 0..ctx.buffer.len() as u32 {
                    let h = ctx.buffer.halo_at(slot) as usize;
                    if self.seen[h] == self.stamp {
                        self.far_slots.push((self.next_use[h], slot));
                    }
                }
                // Slot tiebreak keeps the order — and the whole run —
                // deterministic at any thread count.
                self.far_slots
                    .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let placed = spare + self.evict_slots.len();
                for (&(next_use, slot), &(due, _)) in
                    self.far_slots.iter().zip(&self.want[placed..])
                {
                    if next_use <= due {
                        break;
                    }
                    self.evict_slots.push(slot);
                }
            }
        }

        // One batched pull for everything that found room, through the
        // same retry/degradation ladder as demand fetches.
        let k = self.want.len().min(spare + self.evict_slots.len());
        if k > 0 {
            let halo_nodes = &ctx.part.halo_nodes;
            self.want_globals.clear();
            self.want_globals
                .extend(self.want[..k].iter().map(|&(_, h)| halo_nodes[h as usize]));
            let req_id = mgnn_obs::events::request_id(
                mgnn_obs::events::ORIGIN_PLANNED,
                ctx.metrics.trace_rank(),
                step,
            );
            let (rows, outcome) = ctx.cluster.pull_rows(&self.want_globals, req_id);
            let dim = ctx.cluster.dim();
            let t_fault = outcome.charge_s(ctx.cost, dim, ctx.cluster.retry_policy());
            t_planned += ctx.cost.t_rpc(k, dim) + t_fault;
            ctx.metrics.record_planned(k as u64, dim);
            ctx.metrics.record_pull_outcome(&outcome);
            ctx.metrics.planned_span(step, 0.0, t_planned);
            if t_fault > 0.0 {
                ctx.metrics.fault_span_corr(step, 0.0, t_fault, req_id);
            }

            // Install the rows that survived the ladder. A failed row is
            // skipped — never zero-filled into the buffer. An evicted
            // occupant the window still probes comes due at its next
            // use, like every want left out below.
            let mut next_evict = 0usize;
            for (i, &(_, h)) in self.want[..k].iter().enumerate() {
                if outcome.failed_rows.binary_search(&i).is_ok() {
                    continue;
                }
                let decode = |slot_row: &mut [f32]| rows.decode_into(i, slot_row);
                if ctx.buffer.len() < ctx.buffer.capacity() {
                    ctx.buffer.insert_with(h, decode);
                } else {
                    let slot = self.evict_slots[next_evict];
                    next_evict += 1;
                    let old = ctx.buffer.replace_with(slot, h, decode) as usize;
                    if self.seen[old] == self.stamp {
                        self.next_due = self.next_due.min(self.next_use[old]);
                    }
                }
            }
        }

        // Whatever stays wanted falls back to a demand fetch only if no
        // round can place it first: the planner comes back for it at its
        // due step — at the next step for a row this very step probes,
        // whose later uses only a fresh walk can tell.
        for &(due, h) in &self.want {
            if !ctx.buffer.contains(h) {
                self.next_due = self.next_due.min(due.max(step + 1));
            }
        }
        t_planned
    }

    fn window(&self) -> usize {
        self.ring.len()
    }

    fn take_sampled(
        &mut self,
        sampler: &NeighborSampler,
        seeds: &[u32],
        epoch: u64,
        step: u64,
        mb: &mut SampledMinibatch,
    ) -> bool {
        let i = self.slot_of(step);
        let slot = &mut self.ring[i];
        // A tagged slot implies a non-empty schedule, so the division is
        // defined whenever it is reached.
        let planned = slot.step == step
            && epoch == step / self.steps_per_epoch
            && slot.seeds.as_deref() == Some(seeds)
            && *sampler == self.sampler;
        if planned {
            std::mem::swap(&mut slot.mb, mb);
            slot.step = UNPLANNED;
        }
        planned
    }

    fn heap_bytes(&self) -> usize {
        (self.next_use.len() + self.seen.len()) * 8 + self.probed.len() * 4 + self.ring_peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;
    use mgnn_partition::{build_local_partitions, multilevel_partition};

    #[test]
    fn scoreboard_policy_is_inert() {
        let mut p = ScoreboardPolicy;
        assert!(p.reactive());
        // It samples nothing, so it has nothing to hand over or to count.
        let sampler = NeighborSampler::new(vec![2], 0);
        let mut mb = SampledMinibatch::default();
        assert!(!p.take_sampled(&sampler, &[0], 0, 0, &mut mb));
        assert_eq!(p.heap_bytes(), 0);
        assert_eq!(p.window(), 1, "the paper's one-deep queue");
    }

    #[test]
    fn lookahead_policy_reports_shape() {
        let loader = DataLoader::new((0..32).collect(), 8, 7);
        let sampler = NeighborSampler::new(vec![2, 2], 9);
        let mut p = LookaheadPolicy::new(4, loader, sampler.clone(), 4, 2, 100);
        assert!(!p.reactive());
        assert_eq!(p.depth, 4);
        assert_eq!(p.steps_per_epoch, 4);
        assert_eq!(p.total_steps, 8);
        // One slot per step of a window; nothing planned, nothing to take.
        assert_eq!(p.ring.len(), 5);
        assert_eq!(p.window(), 5);
        let mut mb = SampledMinibatch::default();
        assert!(!p.take_sampled(&sampler, &[0], 0, 0, &mut mb));
        // `next_use` + `seen`, 8 B each per halo node, and `probed`, 4 B.
        assert_eq!(p.heap_bytes(), 20 * 100);
    }

    #[test]
    fn past_the_window_the_coldest_occupants_leave_first() {
        let g = erdos_renyi(400, 4000, 21);
        let p = multilevel_partition(&g, 2, 21);
        let feats = FeatureStore::synthesize(&g, 8, 3, 4);
        let cluster = SimCluster::new(&feats, &p.assignment, 2);
        let train: Vec<u32> = (0..400).collect();
        let mut part = build_local_partitions(&g, &p, &train).remove(0);
        let shard = part
            .train_nodes
            .iter()
            .map(|&g| part.local_id(g).unwrap())
            .collect();
        let loader = DataLoader::new(shard, 8, 5);
        let sampler = NeighborSampler::new(vec![2, 2], 9);

        // The halo rows the first window (steps 0 and 1) probes, and
        // three it does not.
        let num_local = part.num_local();
        let mut in_window = vec![false; part.num_halo()];
        for f in 0..2 {
            let mb = sampler.sample(&part, &loader.epoch(0)[f], 0, f as u64);
            for &lid in mb.input_nodes.iter().filter(|&&l| l as usize >= num_local) {
                in_window[lid as usize - num_local] = true;
            }
        }
        let halo = |probed: bool| -> Vec<u32> {
            (0..part.num_halo() as u32)
                .filter(|&h| in_window[h as usize] == probed)
                .collect()
        };
        let window = halo(true);
        let [hub, wide, narrow] = halo(false)[..3] else {
            unreachable!()
        };

        // A full buffer: the hub in the lowest slot, the two cold rows
        // above it, then all but two of the window's rows.
        let mut policy = LookaheadPolicy::new(1, loader, sampler, 4, 1, part.num_halo());
        policy.probed[hub as usize] = 3;
        part.halo_degree[hub as usize] = 1;
        part.halo_degree[wide as usize] = 5;
        part.halo_degree[narrow as usize] = 2;
        let mut buffer = PrefetchBuffer::new(part.num_halo(), 3 + window.len() - 2, 8);
        for &h in [hub, wide, narrow].iter().chain(&window[2..]) {
            buffer.insert_with(h, |row| row.fill(0.0));
        }

        let (cost, metrics) = (CostModel::default(), CommMetrics::new());
        let t_planned = policy.plan(PlanCtx {
            buffer: &mut buffer,
            part: &part,
            cluster: &cluster,
            cost: &cost,
            metrics: &metrics,
            step: 0,
        });
        // (0, 2) goes first, then (0, 5); slot order would have taken
        // the hub.
        assert_eq!(policy.evict_slots, [2, 1]);
        assert!(buffer.contains(hub));
        assert!(!buffer.contains(wide) && !buffer.contains(narrow));
        assert!(window.iter().all(|&h| buffer.contains(h)));
        // The round's bookkeeping rides on the pull's charge.
        let probes = policy.ring.iter().map(|s| s.halo.len()).sum();
        let bookkeeping = cost.t_scoring(probes, false, 0) + cost.t_lookup(buffer.len());
        assert_eq!(t_planned, bookkeeping + cost.t_rpc(2, 8));
    }

    #[test]
    #[should_panic(expected = "depth must be >= 1")]
    fn zero_depth_rejected() {
        let loader = DataLoader::new((0..8).collect(), 8, 0);
        let sampler = NeighborSampler::new(vec![2], 0);
        let _ = LookaheadPolicy::new(0, loader, sampler, 1, 1, 10);
    }
}
