//! `PREFETCH_WITH_EVICTION` — Algorithm 2 of the paper.
//!
//! Per minibatch the prefetcher: samples the neighborhood (or takes the
//! sample a planning policy already made of this very step), splits it into
//! local (`V_p^{l|s}`) and halo (`V_p^{h|s}`) nodes, probes the buffer for
//! hits/misses, decays `S_E` of unsampled buffered nodes, increments `S_A`
//! of missed nodes (overlapped with the miss RPC in spirit — here the
//! scoring cost is charged to the model the same way), fetches miss
//! features over RPC, and on every Δ-th step runs `EVICT_AND_REPLACE`:
//! buffered slots with `S_E < α` are evicted and replaced by the
//! equally-many highest-`S_A` missing halo nodes, swapping scores.
//!
//! DistDGL's baseline (Eq. 2) is the same body with no prefetcher: no
//! buffer, so every sampled halo node is a miss, and nothing is probed,
//! scored, evicted or planned.
//!
//! Under a fault profile the fetch can partially fail even after the
//! cluster's retry ladder. Preparation stays infallible through graceful
//! degradation: a failed *replacement* fetch is cancelled (the stale
//! resident keeps serving and the candidate's `S_A` keeps accumulating),
//! a failed *miss* fetch serves a zero row, and both are counted in
//! [`CommMetrics`] (`stale_served`, `degraded_rows`). Fault time
//! (injected delays, retries, backoff) is charged to `t_rpc`, so Eq. 3/6
//! see the loss.
//!
//! Steady-state preparation is allocation-free: every per-step vector
//! lives in [`PrepareScratch`] (cleared, never dropped), the miss-row map
//! is a stamp-validated array instead of a `HashMap`, a recycled
//! [`PreparedBatch`] carcass donates its minibatch blocks, feature matrix
//! and label vector back to the next [`Prefetcher::prepare_reuse`] call,
//! and fetched rows are decoded off the cluster's recycled receive
//! buffers ([`mgnn_net::cluster::PulledRows`]) straight into the input
//! row or buffer slot they are for.

use crate::buffer::PrefetchBuffer;
use crate::config::{PrefetchConfig, ScoreLayout};
use crate::policy::{PlanCtx, PrefetchPolicy};
use crate::scoreboard::{AccessScores, EvictionScores, Scoreboards};
use mgnn_graph::NodeId;
use mgnn_net::cluster::PulledRows;
use mgnn_net::{CommMetrics, CostModel, KvStore, PullOutcome, SimCluster};
use mgnn_obs::Phase;
use mgnn_partition::LocalPartition;
use mgnn_sampling::{NeighborSampler, SampledMinibatch, SamplerScratch};
use mgnn_tensor::Tensor;

/// Modeled time breakdown of one minibatch preparation (Eq. 3 terms).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareTiming {
    /// Neighbor sampling.
    pub t_sampling: f64,
    /// Buffer membership probes.
    pub t_lookup: f64,
    /// Scoreboard maintenance (decay + miss increments).
    pub t_scoring: f64,
    /// Eviction-round overhead (candidate scan), nonzero on Δ steps.
    pub t_evict: f64,
    /// Remote feature fetch (misses + replacements).
    pub t_rpc: f64,
    /// Local feature gather.
    pub t_copy: f64,
    /// A planning round (rows fetched for future minibatches by the
    /// lookahead planner, and its bookkeeping). Exactly 0.0 on every step
    /// that ran no round, so on every step without a planner.
    pub t_planned: f64,
}

impl PrepareTiming {
    /// Eq. 3: `t_prepare = t_sampling + t_lookup + t_scoring (+ eviction)
    /// (+ planned pulls) + max(t_RPC, t_copy)`. The planned-pull term is
    /// exactly 0.0 without a planner, keeping its sums bitwise-unchanged.
    pub fn t_prepare(&self) -> f64 {
        self.t_sampling
            + self.t_lookup
            + self.t_scoring
            + self.t_evict
            + self.t_planned
            + self.t_rpc.max(self.t_copy)
    }
}

/// What the trainer reads of one preparation's halo traffic. Every other
/// event of the step is a [`CommMetrics`] counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareCounts {
    /// Halo nodes in the sampled minibatch (`|V_p^{h|s}|`).
    pub halo: usize,
    /// Buffer hits.
    pub hits: usize,
    /// Buffer misses: every sampled halo node without a buffer.
    pub misses: usize,
}

/// A minibatch ready for training: blocks + gathered input features +
/// labels, with the timing/counts of its preparation.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// The sampled structure.
    pub minibatch: SampledMinibatch,
    /// Input features aligned with `minibatch.input_nodes`.
    pub input: Tensor,
    /// Labels of the seed nodes.
    pub labels: Vec<u32>,
    /// Modeled preparation time breakdown.
    pub timing: PrepareTiming,
    /// Exact event counts.
    pub counts: PrepareCounts,
}

/// Reusable per-step scratch of one preparation pipeline. Every vector is
/// cleared (never shrunk) at the start of each step, so after a warmup
/// epoch has touched the high-water mark the prepare path performs no
/// heap allocation. The miss-row map is a stamp-validated pair of arrays
/// indexed by halo idx — `row_stamp[h] == stamp` marks `row_val[h]` as
/// this step's fetch row for halo `h` (the same mechanism as the
/// prefetcher's `sampled_stamp` dedup).
#[derive(Debug, Default)]
pub struct PrepareScratch {
    sampler: SamplerScratch,
    local_ids: Vec<u32>,
    halo_ids: Vec<u32>,
    halo_idx: Vec<u32>,
    hits: Vec<u32>,
    misses: Vec<u32>,
    fetch_ids: Vec<NodeId>,
    replacements: Vec<(u32, u32)>,
    replacement_rows: Vec<usize>,
    protect: Vec<u32>,
    /// halo idx -> fetch row, valid when `row_stamp[h] == stamp`.
    row_stamp: Vec<u64>,
    row_val: Vec<u32>,
    stamp: u64,
}

/// Give the input matrix `len` elements for an assembly that overwrites
/// every one of them: only growth is zero-filled, and what a recycled
/// matrix held stays until its row is written.
fn size_for_overwrite(v: &mut Vec<f32>, len: usize) {
    mgnn_net::kvstore::make_room(v, len);
    v.resize(len, 0.0);
}

/// One bulk pull with its simulated cost.
pub(crate) struct ChargedPull<'c> {
    /// Deterministic request id: a pure function of (origin, rank,
    /// step), so it is identical across the sequential and threaded
    /// engines and across pool widths.
    pub(crate) req_id: u64,
    pub(crate) rows: PulledRows<'c>,
    pub(crate) outcome: PullOutcome,
    /// Simulated time the fault ladder added; exactly 0.0 when nothing
    /// fired.
    pub(crate) t_fault: f64,
    /// Ideal RPC cost of the request plus `t_fault`.
    pub(crate) t_rpc: f64,
}

/// Every pull the prefetcher makes — Algorithm 1's initial fill, a
/// planning round's, a step's demand fetch — goes through here: tag it
/// with `origin`'s request id for `step`, pull `ids`, price the pull and
/// book its fault counters. Faults charge simulated time on top of the
/// ideal RPC cost: injected delays multiply the request's latency and
/// every retry re-pays it plus deterministic backoff (Eq. 6 still sees
/// the loss through `t_prepare`). `charge_s` is exactly 0.0 on the
/// fault-free path, so `t_rpc` is bitwise-unchanged there. Traffic
/// counters and spans are the caller's: what the pull was for decides
/// both.
pub(crate) fn pull_and_charge<'c>(
    origin: u8,
    ids: &[NodeId],
    step: u64,
    cluster: &'c SimCluster,
    cost: &CostModel,
    metrics: &CommMetrics,
) -> ChargedPull<'c> {
    let dim = cluster.dim();
    let req_id = mgnn_obs::events::request_id(origin, metrics.trace_rank(), step);
    let (rows, outcome) = cluster.pull_rows(ids, req_id);
    metrics.record_pull_outcome(&outcome);
    let t_fault = outcome.charge_s(cost, dim, cluster.retry_policy());
    ChargedPull {
        req_id,
        rows,
        outcome,
        t_fault,
        t_rpc: cost.t_rpc(ids.len(), dim) + t_fault,
    }
}

/// Every span of `step`'s prepare window, laid out once from its Eq. 3
/// terms: a planning round at the head (lookahead lane) whenever one was
/// charged, the serial prefix sampling → lookup → scoring → evict as a
/// running sum, then RPC — tagged with the pull's request id, its fault
/// time beside it on the fault lane — and copy, side by side from where
/// evict ends. Zero-length spans are kept, so every phase has one span
/// per step in both modes. Records nothing when tracing is off.
fn record_window(metrics: &CommMetrics, step: u64, t: &PrepareTiming, req_id: u64, t_fault: f64) {
    let Some(rec) = metrics.recorder() else {
        return;
    };
    if t.t_planned > 0.0 {
        rec.record(step, Phase::Planned, 0.0, t.t_planned);
    }
    let mut at = t.t_planned;
    for (phase, dur) in [
        (Phase::Sampling, t.t_sampling),
        (Phase::Lookup, t.t_lookup),
        (Phase::Scoring, t.t_scoring),
        (Phase::Evict, t.t_evict),
    ] {
        rec.record(step, phase, at, dur);
        at += dur;
    }
    rec.record_corr(step, Phase::Rpc, at, t.t_rpc, req_id);
    if t_fault > 0.0 {
        rec.record_corr(step, Phase::Fault, at, t_fault, req_id);
    }
    rec.record(step, Phase::Copy, at, t.t_copy);
}

/// Assemble input features in input-node order: local rows from the
/// partition's own KVStore, halo rows resident in `buffer` (the baseline
/// has none) from their slot, the rest decoded straight off the fetched
/// payload at the row `row_val` maps their halo idx to. Row-parallel:
/// each output row selects its source independently and receives the
/// same bytes the sequential assembly would, so the matrix is
/// bitwise-identical at any thread count. Every row is overwritten in
/// full (`decode_into` writes a failed row as zeros), so a recycled
/// matrix is not cleared first.
#[allow(clippy::too_many_arguments)]
fn gather_rows(
    input_vec: &mut Vec<f32>,
    input_nodes: &[u32],
    dim: usize,
    part: &LocalPartition,
    local_store: &KvStore,
    buffer: Option<&PrefetchBuffer>,
    scratch: &PrepareScratch,
    rstamp: u64,
    fetched: &PulledRows<'_>,
) {
    size_for_overwrite(input_vec, input_nodes.len() * dim);
    if dim == 0 {
        return;
    }
    use rayon::prelude::*;
    let num_local = part.num_local();
    let row_stamp = &scratch.row_stamp;
    let row_val = &scratch.row_val;
    input_vec
        .par_chunks_mut(dim)
        .enumerate()
        .for_each(|(idx, row)| {
            let lid = input_nodes[idx];
            if (lid as usize) < num_local {
                row.copy_from_slice(local_store.row(part.local_nodes[lid as usize]));
                return;
            }
            let h = lid - num_local as u32;
            if let Some(resident) = buffer.and_then(|b| b.slot_of(h).map(|slot| b.row(slot))) {
                // Careful: a replacement installed *this step*
                // occupies a slot but was fetched fresh; either
                // path yields the same bytes.
                row.copy_from_slice(resident);
            } else {
                debug_assert_eq!(row_stamp[h as usize], rstamp);
                fetched.decode_into(row_val[h as usize] as usize, row);
            }
        });
}

/// Per-trainer prefetcher state (`BUF_p^i`, `S_E`, `S_A`).
pub struct Prefetcher {
    /// Configuration in force.
    pub cfg: PrefetchConfig,
    /// The feature buffer.
    pub buffer: PrefetchBuffer,
    /// Per-slot eviction scores.
    pub s_e: EvictionScores,
    /// Per-halo access scores.
    pub s_a: AccessScores,
    /// Stamp array marking which halo indices were sampled this step.
    sampled_stamp: Vec<u64>,
    current_stamp: u64,
    /// Transient bytes high-water mark (eviction scratch), for Fig. 14.
    peak_transient_bytes: usize,
    /// When false, per-step scratch is re-created fresh each call —
    /// bitwise-identical outputs, baseline allocation behavior.
    pooling: bool,
    scratch: PrepareScratch,
    /// The planner, if any (DESIGN §10). Without one, the paper's
    /// reactive S_E/S_A passes make every decision.
    policy: Option<Box<dyn PrefetchPolicy>>,
}

impl Prefetcher {
    /// Construct with an already-populated buffer and scoreboards (see
    /// [`crate::init::initialize_prefetcher`] for the Algorithm 1 path).
    pub fn from_parts(
        cfg: PrefetchConfig,
        buffer: PrefetchBuffer,
        s_e: EvictionScores,
        s_a: AccessScores,
        num_halo: usize,
    ) -> Self {
        Prefetcher {
            cfg,
            buffer,
            s_e,
            s_a,
            sampled_stamp: vec![0; num_halo],
            current_stamp: 0,
            peak_transient_bytes: 0,
            pooling: true,
            scratch: PrepareScratch::default(),
            policy: None,
        }
    }

    /// Install a planner; it takes over the buffer from the reactive
    /// scoreboard passes.
    pub fn set_policy(&mut self, policy: Box<dyn PrefetchPolicy>) {
        self.policy = Some(policy);
    }

    /// Depth of the look-ahead queue this prefetcher's batches go
    /// through: its planner's [`PrefetchPolicy::window`], or the paper's
    /// one-deep queue without one.
    pub fn window(&self) -> usize {
        self.policy.as_ref().map_or(1, |p| p.window())
    }

    /// The Eq. 1 threshold in force.
    pub fn alpha(&self) -> f64 {
        self.cfg.alpha()
    }

    /// Enable or disable per-step scratch reuse. Outputs are
    /// bitwise-identical either way; `false` restores the
    /// allocate-per-step behavior (the pooled-vs-fresh oracle).
    pub fn set_pooling(&mut self, on: bool) {
        self.pooling = on;
    }

    /// Persistent heap bytes (buffer + scoreboards + stamp array + what
    /// the planner keeps of its own).
    pub fn heap_bytes(&self) -> usize {
        self.buffer.heap_bytes()
            + self.s_e.heap_bytes()
            + self.s_a.heap_bytes()
            + self.sampled_stamp.len() * 8
            + self.policy.as_ref().map_or(0, |p| p.heap_bytes())
    }

    /// Peak transient allocation observed during eviction rounds.
    pub fn peak_transient_bytes(&self) -> usize {
        self.peak_transient_bytes
    }

    /// Sample and prepare one minibatch (Algorithm 2; the body is the
    /// module's one `prepare`). The prefetcher's scratch and a consumed
    /// batch passed as `reuse` are recycled, unless pooling is off.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_reuse(
        &mut self,
        reuse: Option<PreparedBatch>,
        part: &LocalPartition,
        sampler: &NeighborSampler,
        seeds: &[u32],
        epoch: u64,
        step: u64,
        cluster: &SimCluster,
        cost: &CostModel,
        metrics: &CommMetrics,
    ) -> PreparedBatch {
        let pooling = self.pooling;
        let mut scratch = if pooling {
            std::mem::take(&mut self.scratch)
        } else {
            PrepareScratch::default()
        };
        let batch = prepare(
            Some(self),
            reuse.filter(|_| pooling),
            &mut scratch,
            part,
            sampler,
            seeds,
            epoch,
            step,
            cluster,
            cost,
            metrics,
        );
        self.scratch = scratch;
        batch
    }
}

/// Baseline DistDGL preparation (Eq. 2): the prepare body with no
/// prefetcher. Scratch is the caller's and `reuse` an optional recycled
/// carcass, so the steady state allocates nothing.
#[allow(clippy::too_many_arguments)]
pub fn baseline_prepare_reuse(
    reuse: Option<PreparedBatch>,
    scratch: &mut PrepareScratch,
    part: &LocalPartition,
    sampler: &NeighborSampler,
    seeds: &[u32],
    epoch: u64,
    step: u64,
    cluster: &SimCluster,
    cost: &CostModel,
    metrics: &CommMetrics,
) -> PreparedBatch {
    prepare(
        None, reuse, scratch, part, sampler, seeds, epoch, step, cluster, cost, metrics,
    )
}

/// Prepare one minibatch: Algorithm 2 with a prefetcher, Eq. 2 without
/// one. `step` is the *global* minibatch counter (continuous across
/// epochs — the scheme is continuous). A consumed batch passed as `reuse`
/// donates its minibatch blocks, feature matrix and label vector, which
/// are refilled in place; the batch is bitwise-identical to a fresh
/// preparation, because gather overwrites every feature row in full.
///
/// Without a prefetcher there is no buffer: every sampled halo node is a
/// miss, no lookup, scoring, eviction or planned time is charged, no
/// buffer hit or miss is booked, and the pull is tagged as the baseline's.
#[allow(clippy::too_many_arguments)]
fn prepare(
    mut pf: Option<&mut Prefetcher>,
    reuse: Option<PreparedBatch>,
    scratch: &mut PrepareScratch,
    part: &LocalPartition,
    sampler: &NeighborSampler,
    seeds: &[u32],
    epoch: u64,
    step: u64,
    cluster: &SimCluster,
    cost: &CostModel,
    metrics: &CommMetrics,
) -> PreparedBatch {
    let (mut mb, mut input_vec, mut labels) = match reuse {
        Some(b) => (b.minibatch, b.input.into_vec(), b.labels),
        None => Default::default(),
    };
    let num_local = part.num_local();
    let num_halo = part.num_halo();
    let halo_nodes = &part.halo_nodes;
    let dim = cluster.dim();
    let mut timing = PrepareTiming::default();

    // The planner's turn (DESIGN §10): on the first step of a window it
    // pulls the window's halo rows into the buffer here, before this
    // step's probe, and it hands over the minibatch it sampled for
    // exactly this call. Without a planner `t_planned` stays exactly 0.0.
    let mut handed_over = false;
    if let Some(pf) = pf.as_deref_mut() {
        if let Some(planner) = &mut pf.policy {
            timing.t_planned = planner.plan(PlanCtx {
                buffer: &mut pf.buffer,
                part,
                cluster,
                cost,
                metrics,
                step,
            });
            handed_over = planner.take_sampled(sampler, seeds, epoch, step, &mut mb);
        }
    }
    // Line 1: sample the neighborhood, unless the planner already did.
    if !handed_over {
        sampler.sample_into(part, seeds, epoch, step, &mut mb, &mut scratch.sampler);
    }
    timing.t_sampling = cost.t_sampling(mb.total_edges());

    // Lines 2–3: split local / halo.
    mb.split_local_halo_into(num_local, &mut scratch.local_ids, &mut scratch.halo_ids);

    // Lines 4–5: hits and misses.
    match pf.as_deref_mut() {
        Some(pf) => {
            // Mark sampled halo indices with a stamp so the decay pass
            // below is O(buffer) without a set. The stamp doubles as an
            // O(1) dedup: `increment_batch` requires unique ids (a
            // duplicate would double-increment S_A) and the miss-row map
            // assumes one row per missed node, so a halo node sampled
            // twice in one minibatch must be processed once.
            pf.current_stamp += 1;
            let stamp = pf.current_stamp;
            scratch.halo_idx.clear();
            for &lid in &scratch.halo_ids {
                let h = lid - num_local as u32;
                if pf.sampled_stamp[h as usize] != stamp {
                    pf.sampled_stamp[h as usize] = stamp;
                    scratch.halo_idx.push(h);
                }
            }
            pf.buffer
                .probe_batch_into(&scratch.halo_idx, &mut scratch.hits, &mut scratch.misses);
            timing.t_lookup = cost.t_lookup(scratch.halo_ids.len() + pf.buffer.len());
        }
        None => {
            // `input_nodes` is duplicate-free, so is its halo part.
            scratch.hits.clear();
            scratch.misses.clear();
            scratch
                .misses
                .extend(scratch.halo_ids.iter().map(|&lid| lid - num_local as u32));
        }
    }

    // Lines 15 + 22: one bulk fetch of miss + replacement features, the
    // misses first; map each miss's halo idx to its row of the payload.
    scratch.fetch_ids.clear();
    scratch
        .fetch_ids
        .extend(scratch.misses.iter().map(|&h| halo_nodes[h as usize]));
    scratch.stamp += 1;
    let rstamp = scratch.stamp;
    if scratch.row_stamp.len() < num_halo {
        scratch.row_stamp.resize(num_halo, 0);
        scratch.row_val.resize(num_halo, 0);
    }
    for (i, &h) in scratch.misses.iter().enumerate() {
        scratch.row_stamp[h as usize] = rstamp;
        scratch.row_val[h as usize] = i as u32;
    }

    // Lines 6–9 + 21 and 12–14 are the *reactive* scoreboard passes
    // (`Scoreboards`); a planner manages the buffer itself and skips them
    // (`t_planned` already carries its round's pull, probe-count updates
    // and eviction scan). Without a prefetcher nothing is replaced.
    scratch.replacements.clear();
    scratch.replacement_rows.clear();
    if let Some(pf) = pf.as_deref_mut().filter(|pf| pf.policy.is_none()) {
        let stamp = pf.current_stamp;
        let sampled_stamp = &pf.sampled_stamp;
        let mut boards = Scoreboards {
            s_e: &mut pf.s_e,
            s_a: &mut pf.s_a,
            halo_nodes,
            halo_degree: &part.halo_degree,
        };
        let decayed = boards.record_minibatch(
            &pf.buffer,
            pf.cfg.gamma,
            |h| sampled_stamp[h as usize] == stamp,
            &scratch.fetch_ids,
        );
        let mem_eff = pf.cfg.layout == ScoreLayout::MemEfficient;
        timing.t_scoring = cost.t_scoring(decayed + scratch.misses.len(), mem_eff, num_halo);

        if let Some(transient) = boards.select_replacements(
            &pf.buffer,
            &pf.cfg,
            step,
            &scratch.hits,
            &mut scratch.protect,
            &mut scratch.replacements,
        ) {
            // Eviction-round overhead: scan every slot plus every halo
            // candidate (the "extra work" of §IV-E).
            timing.t_evict = cost.t_lookup(pf.buffer.capacity() + num_halo);
            pf.peak_transient_bytes = pf.peak_transient_bytes.max(transient);
        }
        // A replacement that is also a miss this step reuses the miss
        // row (DistDGL's bulk pull deduplicates node ids the same way).
        for &(_, new_h) in &scratch.replacements {
            if scratch.row_stamp[new_h as usize] == rstamp {
                scratch
                    .replacement_rows
                    .push(scratch.row_val[new_h as usize] as usize);
            } else {
                scratch.replacement_rows.push(scratch.fetch_ids.len());
                scratch.fetch_ids.push(halo_nodes[new_h as usize]);
            }
        }
    }

    let origin = match pf {
        Some(_) => mgnn_obs::events::ORIGIN_PREPARE,
        None => mgnn_obs::events::ORIGIN_BASELINE,
    };
    let ChargedPull {
        req_id,
        rows: fetched,
        outcome,
        t_fault,
        t_rpc,
    } = pull_and_charge(origin, &scratch.fetch_ids, step, cluster, cost, metrics);
    timing.t_rpc = t_rpc;
    metrics.record_rpc(scratch.fetch_ids.len() as u64, dim);

    // Lines 16–17 + score swap (§IV-B): install replacements. A
    // replacement whose fetch row exhausted every retry is cancelled —
    // installing zeros would poison the buffer for every later step — so
    // the stale resident keeps the slot and the candidate's accumulated
    // S_A survives (it stays miss-pending and is re-tried on a later
    // eviction round).
    let mut stale = 0u64;
    if let Some(pf) = pf.as_deref_mut() {
        metrics.record_lookup(scratch.hits.len() as u64, scratch.misses.len() as u64);
        let mut boards = Scoreboards {
            s_e: &mut pf.s_e,
            s_a: &mut pf.s_a,
            halo_nodes,
            halo_degree: &part.halo_degree,
        };
        let mut installed = 0u64;
        for (&(slot, new_h), &r) in scratch.replacements.iter().zip(&scratch.replacement_rows) {
            if outcome.failed_rows.binary_search(&r).is_ok() {
                stale += 1;
                continue;
            }
            let old_h = pf
                .buffer
                .replace_with(slot, new_h, |row| fetched.decode_into(r, row));
            boards.swap_scores(slot, old_h, new_h);
            installed += 1;
        }
        metrics.record_eviction(installed);
    }
    // Missed nodes on a failed partition come back as zero rows — the
    // final degradation rung. Their S_A increments already happened
    // above, so the sampler's access history stays exact.
    let degraded = outcome
        .failed_rows
        .iter()
        .filter(|&&r| r < scratch.misses.len())
        .count();
    metrics.record_degradation(req_id, part.part_id, stale, degraded as u64);

    let local_store = cluster.store(part.part_id);
    gather_rows(
        &mut input_vec,
        &mb.input_nodes,
        dim,
        part,
        local_store,
        pf.as_deref().map(|pf| &pf.buffer),
        scratch,
        rstamp,
        &fetched,
    );
    // The payload buffers go back to the cluster for the next pull.
    drop(fetched);
    timing.t_copy = cost.t_copy(scratch.local_ids.len(), dim);
    metrics.record_local_copy(scratch.local_ids.len() as u64);
    labels.clear();
    labels.extend(
        mb.seeds
            .iter()
            .map(|&lid| local_store.label(part.local_nodes[lid as usize])),
    );
    record_window(metrics, step, &timing, req_id, t_fault);
    PreparedBatch {
        input: Tensor::from_vec(mb.input_nodes.len(), dim, input_vec),
        minibatch: mb,
        labels,
        timing,
        counts: PrepareCounts {
            halo: scratch.halo_ids.len(),
            hits: scratch.hits.len(),
            misses: scratch.misses.len(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize_prefetcher;
    use crate::policy::LookaheadPolicy;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;
    use mgnn_partition::{build_local_partitions, multilevel_partition};
    use mgnn_sampling::DataLoader;
    use std::sync::Arc;

    const EPOCHS: usize = 2;
    const DEPTH: usize = 2;

    struct Fixture {
        part: LocalPartition,
        cluster: SimCluster,
        nodes: usize,
        loader: DataLoader,
        sampler: NeighborSampler,
        cost: CostModel,
        metrics: CommMetrics,
    }

    fn fixture() -> Fixture {
        let g = erdos_renyi(400, 4000, 21);
        let p = multilevel_partition(&g, 2, 21);
        let feats = FeatureStore::synthesize(&g, 8, 3, 4);
        let cluster = SimCluster::new(&feats, &p.assignment, 2);
        let train: Vec<u32> = (0..400).collect();
        let part = build_local_partitions(&g, &p, &train).remove(0);
        let shard = part
            .train_nodes
            .iter()
            .map(|&g| part.local_id(g).unwrap())
            .collect();
        Fixture {
            part,
            cluster,
            nodes: g.num_nodes(),
            loader: DataLoader::new(shard, 32, 5),
            sampler: NeighborSampler::new(vec![4, 4], 9),
            cost: CostModel::default(),
            metrics: CommMetrics::new(),
        }
    }

    impl Fixture {
        /// A prefetcher at the default `f_h`: a buffer too small for a
        /// window here, so rows come due mid-window and Belady evicts.
        fn prefetcher(&self) -> Prefetcher {
            self.prefetcher_holding(PrefetchConfig::default().f_h)
        }

        fn prefetcher_holding(&self, f_h: f64) -> Prefetcher {
            let cfg = PrefetchConfig {
                f_h,
                ..Default::default()
            };
            initialize_prefetcher(
                &self.part,
                cfg,
                self.nodes,
                &self.cluster,
                &self.cost,
                &self.metrics,
            )
            .0
        }

        fn planner(&self) -> LookaheadPolicy {
            self.planner_of(DEPTH)
        }

        fn planner_of(&self, depth: usize) -> LookaheadPolicy {
            LookaheadPolicy::new(
                depth,
                self.loader.clone(),
                self.sampler.clone(),
                self.loader.batches_per_epoch(),
                EPOCHS,
                self.part.num_halo(),
            )
        }

        /// Every step of the schedule through `pf`, recycling the last
        /// batch; `seeds_of` picks what the caller asks for at
        /// `(epoch, step in epoch)`.
        fn run(
            &self,
            pf: &mut Prefetcher,
            seeds_of: impl Fn(u64, usize) -> Arc<[u32]>,
        ) -> Vec<PreparedBatch> {
            let per_epoch = self.loader.batches_per_epoch();
            let mut out: Vec<PreparedBatch> = Vec::new();
            for g in 0..(EPOCHS * per_epoch) as u64 {
                let epoch = g / per_epoch as u64;
                let seeds = seeds_of(epoch, g as usize % per_epoch);
                let batch = pf.prepare_reuse(
                    out.last().cloned(),
                    &self.part,
                    &self.sampler,
                    &seeds,
                    epoch,
                    g,
                    &self.cluster,
                    &self.cost,
                    &self.metrics,
                );
                assert_eq!(
                    batch.minibatch,
                    self.sampler.sample(&self.part, &seeds, epoch, g),
                    "step {g}: not the minibatch of the call"
                );
                out.push(batch);
            }
            out
        }
    }

    /// The planner with the hand-off taken away: it plans and pulls the
    /// same, and leaves `prepare` to sample every step itself.
    struct Resampling(LookaheadPolicy);

    impl PrefetchPolicy for Resampling {
        fn plan(&mut self, ctx: PlanCtx<'_>) -> f64 {
            self.0.plan(ctx)
        }
    }

    fn bits(b: &PreparedBatch) -> (Vec<u32>, String) {
        (
            b.input.data().iter().map(|x| x.to_bits()).collect(),
            format!("{:?}", (&b.minibatch, &b.labels, b.timing, b.counts)),
        )
    }

    #[test]
    fn a_handed_over_minibatch_builds_the_same_batch_as_a_resampled_one() {
        let fx = fixture();
        let per_epoch = fx.loader.batches_per_epoch();
        // Some window straddles the epoch boundary.
        assert!(per_epoch > DEPTH + 1 && !per_epoch.is_multiple_of(DEPTH + 1));
        let planned = |epoch, s: usize| Arc::clone(&fx.loader.epoch(epoch)[s]);
        // A caller with seed lists of its own: the plan's, one step off.
        let own = |epoch, s: usize| planned(epoch, (s + 1) % per_epoch);
        for pooling in [true, false] {
            for own_seeds in [false, true] {
                let mut handed = fx.prefetcher();
                handed.set_pooling(pooling);
                handed.set_policy(Box::new(fx.planner()));
                let mut resampled = fx.prefetcher();
                resampled.set_pooling(pooling);
                resampled.set_policy(Box::new(Resampling(fx.planner())));
                let (a, b) = if own_seeds {
                    (fx.run(&mut handed, own), fx.run(&mut resampled, own))
                } else {
                    (
                        fx.run(&mut handed, planned),
                        fx.run(&mut resampled, planned),
                    )
                };
                assert_eq!(a.len(), EPOCHS * per_epoch);
                assert!(a.iter().any(|x| x.timing.t_planned > 0.0));
                for (g, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        bits(x),
                        bits(y),
                        "step {g} pooling {pooling} own seeds {own_seeds}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_planner_hands_over_only_the_call_it_sampled_for() {
        // Narrow fanouts and room for a whole window, but not for every
        // halo row: the round pulls, and leaves nothing to come due
        // before the window ends.
        let fx = Fixture {
            sampler: NeighborSampler::new(vec![2, 2], 9),
            ..fixture()
        };
        let mut pf = fx.prefetcher_holding(0.9);
        let mut planner = fx.planner();
        let plan = fx.loader.epoch(0);
        let round = planner.plan(PlanCtx {
            buffer: &mut pf.buffer,
            part: &fx.part,
            cluster: &fx.cluster,
            cost: &fx.cost,
            metrics: &fx.metrics,
            step: 0,
        });
        assert!(round > 0.0, "the first window pulls");
        let mut mb = SampledMinibatch::default();
        let other = NeighborSampler::new(vec![2, 2], 10);
        assert!(!planner.take_sampled(&fx.sampler, &plan[0], 0, 1, &mut mb));
        assert!(!planner.take_sampled(&fx.sampler, &plan[0], 1, 0, &mut mb));
        assert!(!planner.take_sampled(&fx.sampler, &plan[1], 0, 0, &mut mb));
        assert!(!planner.take_sampled(&other, &plan[0], 0, 0, &mut mb));
        assert_eq!(mb, SampledMinibatch::default(), "a refusal swaps nothing");
        assert!(planner.take_sampled(&fx.sampler, &plan[0], 0, 0, &mut mb));
        assert_eq!(mb, fx.sampler.sample(&fx.part, &plan[0], 0, 0));
        // Taken is taken: the slot holds the caller's old buffers now.
        assert!(!planner.take_sampled(&fx.sampler, &plan[0], 0, 0, &mut mb));
        // The steps in between belong to the same window: nothing to
        // plan, nothing pulled, exactly nothing charged.
        for step in 1..=DEPTH as u64 {
            let pulls = fx.metrics.snapshot().planned_pulls;
            let t = planner.plan(PlanCtx {
                buffer: &mut pf.buffer,
                part: &fx.part,
                cluster: &fx.cluster,
                cost: &fx.cost,
                metrics: &fx.metrics,
                step,
            });
            assert_eq!(t.to_bits(), 0.0f64.to_bits(), "step {step}");
            assert_eq!(fx.metrics.snapshot().planned_pulls, pulls);
            assert!(planner.take_sampled(&fx.sampler, &plan[step as usize], 0, step, &mut mb));
        }
    }

    #[test]
    fn a_depth_past_the_runs_end_plans_like_the_whole_run() {
        let fx = fixture();
        let total = EPOCHS * fx.loader.batches_per_epoch();
        let planned = |epoch, s: usize| Arc::clone(&fx.loader.epoch(epoch)[s]);
        let run = |depth: usize| {
            let mut pf = fx.prefetcher();
            pf.set_policy(Box::new(fx.planner_of(depth)));
            // Ring and queue are sized by the run, not by the flag.
            assert_eq!(pf.window(), total, "depth {depth}");
            fx.run(&mut pf, planned)
        };
        let whole_run = run(total - 1);
        assert!(whole_run.iter().any(|x| x.timing.t_planned > 0.0));
        for depth in [total, 4_000_000_000, usize::MAX] {
            for (g, (x, y)) in run(depth).iter().zip(&whole_run).enumerate() {
                assert_eq!(bits(x), bits(y), "depth {depth} step {g}");
            }
        }
    }

    #[test]
    fn without_a_planner_the_queue_is_one_deep() {
        let fx = fixture();
        let mut pf = fx.prefetcher();
        assert_eq!(pf.window(), 1, "the paper's one-deep queue");
        pf.set_policy(Box::new(fx.planner()));
        assert_eq!(pf.window(), DEPTH + 1);
    }

    #[test]
    fn heap_bytes_counts_what_the_policy_keeps() {
        let fx = fixture();
        let scoreboard = fx.prefetcher();
        let mut lookahead = fx.prefetcher();
        lookahead.set_policy(Box::new(fx.planner()));
        // `next_use` + `seen` + `probed`: 20 B per halo node, before any
        // step.
        let marks = 20 * fx.part.num_halo();
        assert_eq!(lookahead.heap_bytes(), scoreboard.heap_bytes() + marks);
        // A window's worth of sampled minibatches on top, once it plans.
        let before = lookahead.heap_bytes();
        fx.run(&mut lookahead, |epoch, s| {
            Arc::clone(&fx.loader.epoch(epoch)[s])
        });
        assert!(lookahead.heap_bytes() > before);
    }
}
