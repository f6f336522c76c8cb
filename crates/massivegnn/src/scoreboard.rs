//! The dual scoreboards of §IV-B.
//!
//! * **Eviction scores `S_E`** live per buffer slot ([`EvictionScores`]):
//!   initialized to 1 for every prefetched node, multiplied by the decay
//!   `γ` each minibatch the node goes unsampled.
//! * **Access scores `S_A`** ([`AccessScores`]) track, per *non-buffered*
//!   halo node, how often the sampler wanted it but missed: +1 per miss.
//!   Buffered nodes carry the sentinel −1. Two layouts, exactly as the
//!   paper describes: a dense `O(|V|)` array indexed by global node id
//!   (`O(1)` updates), and a memory-efficient `O(|V_p^h|)` array over the
//!   partition's sorted halo list with `O(log |V_p^h|)` binary-search
//!   addressing (the halo list itself already lives in the
//!   [`mgnn_partition::LocalPartition`] and is passed in per call, so the
//!   memory-efficient layout allocates only the score array).
//!
//! What Algorithm 2 *decides* with them — who decays, who is evicted for
//! whom and when, how the scores swap — is [`Scoreboards`]: the
//! prefetcher and the ablation's cache simulator both call it.

use crate::buffer::PrefetchBuffer;
use crate::config::{PrefetchConfig, ScoreLayout};
use mgnn_graph::NodeId;

/// Relative tolerance for the Eq. 1 eviction boundary `S_E ≤ α`.
///
/// A node idle for exactly Δ minibatches reaches `S_E = γ^Δ` by Δ
/// sequential `*= γ` multiplies, while `α = γ^Δ` is computed by `powi`;
/// the two round differently, so the score float-drifts a few ulps to
/// either side of α. The tolerance absorbs that drift without admitting
/// a node idle only Δ−1 minibatches (whose score is a factor 1/γ ≫ 1+ε
/// above α).
pub const EVICTION_BOUNDARY_RTOL: f64 = 1e-9;

/// Eq. 1 eviction test: has `score` decayed to the threshold `alpha`?
///
/// Inclusive at the boundary (`S_E ≤ α`, within [`EVICTION_BOUNDARY_RTOL`]):
/// a strict `<` would never fire for the paradigmatic eviction candidate —
/// a node idle exactly Δ minibatches — leaving Algorithm 2's
/// evict-and-replace dead whenever decay lands on or above the threshold.
#[inline]
pub fn meets_eviction_threshold(score: f64, alpha: f64) -> bool {
    score <= alpha * (1.0 + EVICTION_BOUNDARY_RTOL)
}

/// Per-slot eviction scores, aligned with the prefetch buffer's slots.
#[derive(Debug, Clone)]
pub struct EvictionScores {
    scores: Vec<f64>,
}

impl EvictionScores {
    /// All slots start at the paper's initial score of 1.
    pub fn new(capacity: usize) -> Self {
        EvictionScores {
            scores: vec![1.0; capacity],
        }
    }

    /// Score of `slot`.
    #[inline]
    pub fn get(&self, slot: u32) -> f64 {
        self.scores[slot as usize]
    }

    /// Overwrite `slot` (used by the swap on replacement).
    #[inline]
    pub fn set(&mut self, slot: u32, v: f64) {
        self.scores[slot as usize] = v;
    }

    /// Decay `slot` by `γ` (node unsampled this minibatch).
    #[inline]
    pub fn decay(&mut self, slot: u32, gamma: f64) {
        self.scores[slot as usize] *= gamma;
    }

    /// Slots whose score has decayed to `alpha` or below (Algorithm 2
    /// line 28, Eq. 1 `S_E ≤ α` — see [`meets_eviction_threshold`] for
    /// why the boundary is inclusive), in ascending score order (evict
    /// the least useful first). Slots listed in `protect` (sorted) are
    /// skipped — nodes sampled in the current minibatch have already had
    /// their features copied out per Algorithm 2 line 11, and evicting a
    /// node the sampler is actively using would immediately re-fetch it.
    pub fn below_threshold(&self, alpha: f64, protect: &[u32]) -> Vec<u32> {
        let mut v: Vec<u32> = (0..self.scores.len() as u32)
            .filter(|&s| {
                meets_eviction_threshold(self.scores[s as usize], alpha)
                    && protect.binary_search(&s).is_err()
            })
            .collect();
        // `total_cmp` is panic-proof under NaN (unlike the previous
        // `partial_cmp(..).unwrap()`), and the slot-id tie-break pins a
        // total deterministic order for equal scores.
        v.sort_unstable_by(|&a, &b| {
            self.scores[a as usize]
                .total_cmp(&self.scores[b as usize])
                .then(a.cmp(&b))
        });
        v
    }

    /// Batched Algorithm 2 lines 6–9 over the occupied slot prefix
    /// `0..len` (buffer occupancy is always a prefix — see
    /// `PrefetchBuffer::check_invariants`): slots whose node was
    /// sampled this minibatch (per `sampled`) reset to the initial
    /// score 1, the rest decay by `gamma`. Returns how many slots
    /// decayed. Runs on the rayon pool in deterministic chunks; each
    /// slot is touched independently and the count is an
    /// order-independent sum, so the result is identical at any
    /// thread count.
    pub fn decay_or_reset_prefix(
        &mut self,
        len: usize,
        gamma: f64,
        sampled: impl Fn(u32) -> bool + Sync,
    ) -> usize {
        use rayon::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        const BATCH: usize = 512;
        let decayed = AtomicUsize::new(0);
        self.scores[..len]
            .par_chunks_mut(BATCH)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let mut local = 0usize;
                for (i, s) in chunk.iter_mut().enumerate() {
                    let slot = (ci * BATCH + i) as u32;
                    if sampled(slot) {
                        *s = 1.0;
                    } else {
                        *s *= gamma;
                        local += 1;
                    }
                }
                decayed.fetch_add(local, Ordering::Relaxed);
            });
        decayed.load(Ordering::Relaxed)
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.scores.len() * 8
    }
}

/// Access scores over halo nodes, in either paper layout.
///
/// Every accessor takes the partition's sorted `halo_nodes` slice; the
/// dense layout ignores it (direct global-id indexing), the
/// memory-efficient layout binary-searches it.
#[derive(Debug, Clone)]
pub struct AccessScores {
    layout: ScoreLayout,
    /// One score per global node id (`Dense`: only halo entries are
    /// meaningful) or per entry of `halo_nodes` (`MemEfficient`).
    scores: Vec<f32>,
}

impl AccessScores {
    /// Build for a partition: `num_global` total nodes, `num_halo` halo
    /// nodes. Initial scores are 0 (the prefetcher then marks buffered
    /// nodes −1).
    pub fn new(layout: ScoreLayout, num_global: usize, num_halo: usize) -> Self {
        let len = match layout {
            ScoreLayout::Dense => num_global,
            ScoreLayout::MemEfficient => num_halo,
        };
        AccessScores {
            layout,
            scores: vec![0.0; len],
        }
    }

    #[inline]
    fn index(&self, halo_nodes: &[NodeId], g: NodeId) -> usize {
        match self.layout {
            ScoreLayout::Dense => g as usize,
            ScoreLayout::MemEfficient => halo_nodes
                .binary_search(&g)
                .unwrap_or_else(|_| panic!("node {g} is not a halo node")),
        }
    }

    /// Score of global node `g`.
    pub fn get(&self, halo_nodes: &[NodeId], g: NodeId) -> f32 {
        self.scores[self.index(halo_nodes, g)]
    }

    /// Set the score of `g`.
    pub fn set(&mut self, halo_nodes: &[NodeId], g: NodeId, v: f32) {
        let i = self.index(halo_nodes, g);
        self.scores[i] = v;
    }

    /// Algorithm 2 line 21 for one minibatch's (unique) miss ids: each
    /// score goes up by one. The paper runs the memory-efficient layout's
    /// binary searches in parallel (§IV-B); here one serial pass, priced
    /// by the cost model's `t_scoring`, allocates nothing.
    pub fn increment_batch(&mut self, halo_nodes: &[NodeId], ids: &[NodeId]) {
        for &g in ids {
            let i = self.index(halo_nodes, g);
            self.scores[i] += 1.0;
        }
    }

    /// The top `k` replacement candidates among `candidates` (global ids):
    /// highest `S_A` first, requiring `S_A > 0` (a node never missed is not
    /// a candidate — Algorithm 2 line 30), ties broken by higher degree
    /// via the provided `degree_of`, then by id for determinism.
    pub fn top_k_candidates(
        &self,
        halo_nodes: &[NodeId],
        candidates: impl Iterator<Item = NodeId>,
        k: usize,
        degree_of: impl Fn(NodeId) -> u32,
    ) -> Vec<NodeId> {
        self.top_k_candidates_with_footprint(halo_nodes, candidates, k, degree_of)
            .0
    }

    /// [`Self::top_k_candidates`] plus the transient heap footprint of the
    /// scoring pass in bytes: the `(f32, u32, NodeId)` scored vector is
    /// materialized over every positive-score candidate *before* the
    /// truncate to `k`, and Fig. 14's transient-memory accounting must
    /// include it (it dwarfs the slot/id vectors on large halos).
    pub fn top_k_candidates_with_footprint(
        &self,
        halo_nodes: &[NodeId],
        candidates: impl Iterator<Item = NodeId>,
        k: usize,
        degree_of: impl Fn(NodeId) -> u32,
    ) -> (Vec<NodeId>, usize) {
        let mut scored: Vec<(f32, u32, NodeId)> = candidates
            .filter_map(|g| {
                let s = self.get(halo_nodes, g);
                if s > 0.0 {
                    Some((s, degree_of(g), g))
                } else {
                    None
                }
            })
            .collect();
        let footprint = scored.len() * std::mem::size_of::<(f32, u32, NodeId)>();
        // Highest score first, ties by higher degree then lower id.
        // `total_cmp` is panic-proof under NaN; the id tie-break (ids
        // are unique) makes the order — and thus the partial
        // selection below — fully deterministic.
        let cmp = |a: &(f32, u32, NodeId), b: &(f32, u32, NodeId)| {
            b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2))
        };
        if k == 0 {
            return (Vec::new(), footprint);
        }
        // O(n) partial selection instead of an O(n log n) full sort:
        // quickselect the k-th element, drop the tail, then sort only
        // the k survivors — same output as the old full sort because
        // the comparator is total.
        if scored.len() > k {
            scored.select_nth_unstable_by(k - 1, cmp);
            scored.truncate(k);
        }
        scored.sort_unstable_by(cmp);
        (scored.into_iter().map(|(_, _, g)| g).collect(), footprint)
    }

    /// Heap bytes — the Fig. 14 memory distinction between layouts:
    /// `4·|V|` dense vs `4·|V_p^h|` memory-efficient.
    pub fn heap_bytes(&self) -> usize {
        self.scores.len() * 4
    }
}

/// Algorithm 2's decisions over one trainer's scoreboards. The caller
/// owns the buffer and does what moves bytes (the pull, the install, the
/// gather); every vector a decision fills is the caller's scratch.
pub struct Scoreboards<'a> {
    /// Per-slot eviction scores.
    pub s_e: &'a mut EvictionScores,
    /// Per-halo access scores.
    pub s_a: &'a mut AccessScores,
    /// The partition's sorted halo list (`S_A` is addressed by its ids).
    pub halo_nodes: &'a [NodeId],
    /// Degree per halo index: breaks `S_A` ties among candidates.
    pub halo_degree: &'a [u32],
}

impl Scoreboards<'_> {
    /// Lines 6–9 and 21, once per minibatch: `S_E` of a buffered node
    /// decays by `gamma` unless `sampled` (by halo index) says it was
    /// used, which returns it to the initial 1 (paper Fig. 4 shows used
    /// nodes back at score 1 — without the reset every node's lifetime
    /// idle budget is finite and even hot nodes churn out, which
    /// contradicts the paper's observed hit-rate growth); `S_A` of every
    /// `missed` node (unique global ids) goes up by one. Returns how many
    /// slots decayed.
    pub fn record_minibatch(
        &mut self,
        buffer: &PrefetchBuffer,
        gamma: f64,
        sampled: impl Fn(u32) -> bool + Sync,
        missed: &[NodeId],
    ) -> usize {
        let decayed = self
            .s_e
            .decay_or_reset_prefix(buffer.len(), gamma, |slot| sampled(buffer.halo_at(slot)));
        self.s_a.increment_batch(self.halo_nodes, missed);
        decayed
    }

    /// Lines 12–14 and 28–30, on every Δ-th step after the first: pair
    /// the slots whose `S_E` fell to Eq. 1's `α` (lowest first) with
    /// equally many non-buffered halo nodes of positive `S_A` (highest
    /// first, then higher degree, then lower id) as `(slot, halo index)`
    /// in `replacements`, which is cleared on every call. The slots of
    /// this step's `hits` are spared: their features were copied out
    /// before eviction (line 11), and evicting a node the sampler is
    /// using would re-fetch it at once. Returns the round's transient
    /// bytes, or `None` when `step` is not a round.
    pub fn select_replacements(
        &self,
        buffer: &PrefetchBuffer,
        cfg: &PrefetchConfig,
        step: u64,
        hits: &[u32],
        protect: &mut Vec<u32>,
        replacements: &mut Vec<(u32, u32)>,
    ) -> Option<usize> {
        replacements.clear();
        if !cfg.eviction || cfg.delta == 0 || step == 0 || !step.is_multiple_of(cfg.delta as u64) {
            return None;
        }
        protect.clear();
        protect.extend(hits.iter().filter_map(|&h| buffer.slot_of(h)));
        protect.sort_unstable();
        let evict_slots = self.s_e.below_threshold(cfg.alpha(), protect);
        let halo_nodes = self.halo_nodes;
        let halo_idx = |g: NodeId| halo_nodes.binary_search(&g).expect("a halo id");
        let candidates = (0..halo_nodes.len() as u32)
            .filter(|&h| !buffer.contains(h))
            .map(|h| halo_nodes[h as usize]);
        let (replace_globals, scoring_bytes) = self.s_a.top_k_candidates_with_footprint(
            halo_nodes,
            candidates,
            evict_slots.len(),
            |g| self.halo_degree[halo_idx(g)],
        );
        replacements.extend(
            evict_slots
                .iter()
                .zip(&replace_globals)
                .map(|(&slot, &g)| (slot, halo_idx(g) as u32)),
        );
        // The dominant transient of the round is the scored-candidate
        // vector `top_k_candidates` materializes over every positive-S_A
        // non-buffered halo node — not the slot/id vectors, which are
        // bounded by the buffer capacity.
        Some(scoring_bytes + evict_slots.len() * 4 + replace_globals.len() * 8)
    }

    /// The score swap of §IV-B, after `new_h` took `slot` from `old_h`:
    /// the evicted node's `S_A` ← its last `S_E`, the replacement's `S_E`
    /// ← its last `S_A`, and the replacement is marked buffered.
    pub fn swap_scores(&mut self, slot: u32, old_h: u32, new_h: u32) {
        let old_g = self.halo_nodes[old_h as usize];
        let new_g = self.halo_nodes[new_h as usize];
        let last_se = self.s_e.get(slot);
        let last_sa = self.s_a.get(self.halo_nodes, new_g) as f64;
        self.s_a.set(self.halo_nodes, old_g, last_se as f32);
        self.s_e.set(slot, last_sa);
        self.s_a.set(self.halo_nodes, new_g, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_scores_decay_and_reset() {
        let mut e = EvictionScores::new(3);
        assert_eq!(e.get(0), 1.0);
        e.decay(0, 0.5);
        e.decay(0, 0.5);
        assert!((e.get(0) - 0.25).abs() < 1e-12);
        e.set(0, 1.0);
        assert_eq!(e.get(0), 1.0);
    }

    #[test]
    fn below_threshold_sorted_ascending() {
        let mut e = EvictionScores::new(4);
        e.set(0, 0.5);
        e.set(1, 0.1);
        e.set(2, 0.9);
        e.set(3, 0.3);
        assert_eq!(e.below_threshold(0.6, &[]), vec![1, 3, 0]);
        assert!(e.below_threshold(0.05, &[]).is_empty());
    }

    #[test]
    fn idle_exactly_delta_is_evicted_hit_at_delta_minus_one_is_not() {
        // Regression for the Eq. 1 boundary: repeated `*= γ` decay lands a
        // node idle exactly Δ minibatches at (a few ulps around) α = γ^Δ,
        // and a strict `S_E < α` compare never fired — Algorithm 2's
        // evict-and-replace was dead for its paradigmatic candidate.
        for (gamma, delta) in [(0.995f64, 8u32), (0.9, 16), (0.5, 4), (0.99, 100)] {
            let alpha = gamma.powi(delta as i32);
            let mut e = EvictionScores::new(2);
            // Slot 0: idle for exactly Δ minibatches since prefetch.
            for _ in 0..delta {
                e.decay(0, gamma);
            }
            // Slot 1: sampled (reset) at minibatch Δ−1, then idle once.
            for _ in 0..delta.saturating_sub(1) {
                e.decay(1, gamma);
            }
            e.set(1, 1.0);
            e.decay(1, gamma);
            let evicted = e.below_threshold(alpha, &[]);
            assert_eq!(
                evicted,
                vec![0],
                "γ={gamma} Δ={delta}: slot 0 (idle Δ) must be evicted, \
                 slot 1 (recently hit) must survive"
            );
        }
    }

    #[test]
    fn boundary_tolerance_does_not_admit_delta_minus_one() {
        // One fewer decay leaves the score a factor 1/γ above α — far
        // outside the boundary tolerance even for γ very close to 1.
        let (gamma, delta) = (0.9999f64, 1000u32);
        let alpha = gamma.powi(delta as i32);
        let mut e = EvictionScores::new(1);
        for _ in 0..delta - 1 {
            e.decay(0, gamma);
        }
        assert!(e.below_threshold(alpha, &[]).is_empty());
        e.decay(0, gamma); // the Δ-th idle minibatch crosses the boundary
        assert_eq!(e.below_threshold(alpha, &[]), vec![0]);
    }

    #[test]
    fn below_threshold_respects_protection() {
        let mut e = EvictionScores::new(3);
        e.set(0, 0.1);
        e.set(1, 0.2);
        e.set(2, 0.3);
        assert_eq!(e.below_threshold(0.5, &[1]), vec![0, 2]);
        assert_eq!(e.below_threshold(0.5, &[0, 1, 2]), Vec::<u32>::new());
    }

    fn both_layouts(num_halo: usize, num_global: usize) -> [AccessScores; 2] {
        [
            AccessScores::new(ScoreLayout::Dense, num_global, num_halo),
            AccessScores::new(ScoreLayout::MemEfficient, num_global, num_halo),
        ]
    }

    #[test]
    fn layouts_agree_on_all_operations() {
        let halo = vec![3u32, 7, 11, 20];
        let [mut dense, mut me] = both_layouts(halo.len(), 30);
        for &g in &[7u32, 7, 20, 3] {
            dense.increment_batch(&halo, &[g]);
            me.increment_batch(&halo, &[g]);
        }
        dense.set(&halo, 11, -1.0);
        me.set(&halo, 11, -1.0);
        for &g in &halo {
            assert_eq!(dense.get(&halo, g), me.get(&halo, g), "node {g}");
        }
        let deg = |g: NodeId| g; // degree = id for the test
        let top_d = dense.top_k_candidates(&halo, halo.iter().copied(), 2, deg);
        let top_m = me.top_k_candidates(&halo, halo.iter().copied(), 2, deg);
        assert_eq!(top_d, top_m);
        assert_eq!(top_d, vec![7, 20]); // 7 scored 2; 20 and 3 tie at 1, 20 wins by degree
    }

    #[test]
    fn top_k_excludes_nonpositive() {
        let halo = vec![1u32, 2, 3];
        let [mut s, _] = both_layouts(halo.len(), 10);
        s.set(&halo, 1, -1.0);
        s.increment_batch(&halo, &[2]);
        // node 3 stays at 0 — not a candidate.
        let top = s.top_k_candidates(&halo, halo.iter().copied(), 3, |_| 0);
        assert_eq!(top, vec![2]);
    }

    #[test]
    fn increment_batch_matches_singles() {
        let halo: Vec<u32> = (0..3000u32).map(|i| i * 2).collect();
        let ids: Vec<u32> = (0..2500u32)
            .map(|i| halo[(i as usize * 7) % halo.len()])
            .collect();
        // Deduplicate (prefetcher misses are unique per minibatch).
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for (mut singles, mut batched) in both_layouts(halo.len(), 10_000)
            .into_iter()
            .zip(both_layouts(halo.len(), 10_000))
        {
            for &g in &uniq {
                singles.increment_batch(&halo, &[g]);
            }
            batched.increment_batch(&halo, &uniq);
            for &g in &halo {
                assert_eq!(singles.get(&halo, g), batched.get(&halo, g));
            }
            for &g in &uniq {
                assert_eq!(batched.get(&halo, g), 1.0);
            }
        }
    }

    #[test]
    fn mem_efficient_strictly_smaller() {
        // Halo is always a strict subset of the global node set.
        let [dense, me] = both_layouts(100, 1_000_000);
        assert_eq!(dense.heap_bytes(), 4_000_000);
        assert_eq!(me.heap_bytes(), 400);
    }

    #[test]
    #[should_panic]
    fn mem_efficient_rejects_non_halo() {
        let halo = vec![1u32, 5];
        let [_, mut me] = both_layouts(halo.len(), 10);
        me.increment_batch(&halo, &[3]);
    }

    /// The O(n) partial selection must reproduce the old full-sort
    /// top-k exactly, including score ties broken by degree and id.
    #[test]
    fn top_k_partial_selection_matches_full_sort() {
        let halo: Vec<u32> = (0..500u32).collect();
        let mut s = AccessScores::new(ScoreLayout::MemEfficient, 1000, halo.len());
        // Scores with many ties: id mod 7 misses each.
        for &g in &halo {
            for _ in 0..(g % 7) {
                s.increment_batch(&halo, &[g]);
            }
        }
        // Degrees with ties too: id mod 5.
        let deg = |g: NodeId| g % 5;
        for k in [0usize, 1, 3, 50, 499, 500, 1000] {
            let fast = s.top_k_candidates(&halo, halo.iter().copied(), k, deg);
            // Reference: the old full-sort implementation.
            let mut scored: Vec<(f32, u32, NodeId)> = halo
                .iter()
                .filter_map(|&g| {
                    let v = s.get(&halo, g);
                    (v > 0.0).then(|| (v, deg(g), g))
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
            scored.truncate(k);
            let reference: Vec<NodeId> = scored.into_iter().map(|(_, _, g)| g).collect();
            assert_eq!(fast, reference, "k={k}");
        }
    }

    #[test]
    fn decay_or_reset_prefix_matches_singles() {
        let gamma = 0.75f64;
        let n = 3000usize; // several 512-wide parallel batches
        let mut batched = EvictionScores::new(n);
        let mut singles = EvictionScores::new(n);
        // Give every slot a distinct starting score.
        for s in 0..n as u32 {
            batched.set(s, 1.0 + f64::from(s) * 1e-3);
            singles.set(s, 1.0 + f64::from(s) * 1e-3);
        }
        let sampled = |slot: u32| slot.is_multiple_of(3);
        let prefix = 2500usize;
        let decayed = batched.decay_or_reset_prefix(prefix, gamma, sampled);
        let mut expect_decayed = 0usize;
        for s in 0..prefix as u32 {
            if sampled(s) {
                singles.set(s, 1.0);
            } else {
                singles.decay(s, gamma);
                expect_decayed += 1;
            }
        }
        assert_eq!(decayed, expect_decayed);
        for s in 0..n as u32 {
            assert_eq!(
                batched.get(s).to_bits(),
                singles.get(s).to_bits(),
                "slot {s}"
            );
        }
    }
}
