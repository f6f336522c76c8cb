//! Fanout neighbor sampler over a [`LocalPartition`].
//!
//! The classic GraphSAGE/DGL `NeighborSampler`: starting from the seed
//! nodes, each GNN layer samples up to `fanout` in-neighbors per node
//! uniformly **without replacement**; the frontier of one layer becomes the
//! destination set of the next. Halo nodes have empty adjacency in the
//! local partition graph, so a walk terminates there — matching DistDGL's
//! local sampling, after which halo *features* are fetched remotely.
//!
//! Sampling is stochastic but fully reproducible: the RNG stream is
//! `(seed, epoch, step)`-keyed.

use crate::block::{Block, SampledMinibatch};
use mgnn_partition::LocalPartition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How neighbors are chosen within a fanout budget. The paper's prefetch
/// scheme claims to be sampler-agnostic (§V-A4: "the performance primarily
/// hinges on how the sampler interacts with the Prefetcher"); these
/// strategies make that claim testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Uniform without replacement — DGL's `NeighborSampler`, the paper's
    /// default.
    #[default]
    Uniform,
    /// Weighted without replacement, probability ∝ neighbor's global
    /// degree (importance-style sampling; biases walks toward hubs, which
    /// interacts favorably with the degree-initialized prefetch buffer).
    DegreeWeighted,
}

/// Reusable working memory for [`NeighborSampler::sample_into`]. One
/// instance per prepare loop: every vector is cleared (never shrunk)
/// between minibatches, so the steady state samples without touching the
/// allocator. The node→position map is a stamped array pair instead of a
/// hash map — `pos_stamp[n] == stamp` means `n` is in this layer's
/// `src_nodes` at position `pos_val[n]` — which is both O(1) and
/// allocation-free once grown to the partition's id space.
#[derive(Debug, Clone, Default)]
pub struct SamplerScratch {
    /// Current frontier (dst set of the layer being built).
    dst: Vec<u32>,
    /// Stamp marking which ids are present in the current layer.
    pos_stamp: Vec<u64>,
    /// Position in `src_nodes` for ids whose stamp is current.
    pos_val: Vec<u32>,
    /// Monotone stamp, bumped once per layer.
    stamp: u64,
    /// Floyd's-algorithm chosen indices (replaces the per-dst `HashSet`;
    /// fanouts are small, so linear membership tests win).
    chosen: Vec<usize>,
    /// Efraimidis–Spirakis keyed reservoir.
    keyed: Vec<(f64, u32)>,
    /// Per-dst selected-neighbor scratch.
    nbr: Vec<u32>,
    /// Block carcasses recycled when a minibatch shrinks its layer count.
    spare_blocks: Vec<Block>,
}

/// Fanout sampler bound to one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborSampler {
    /// Per-layer fanouts in *forward* order: `fanouts[0]` is the input
    /// layer's fanout (the paper's GraphSAGE uses `{10, 25}` for 2 layers
    /// — 25 neighbors at the hop nearest the seeds).
    pub fanouts: Vec<usize>,
    /// Neighbor-selection strategy.
    pub strategy: SamplingStrategy,
    base_seed: u64,
}

impl NeighborSampler {
    /// Create a uniform sampler with the given fanouts and RNG seed.
    pub fn new(fanouts: Vec<usize>, base_seed: u64) -> Self {
        Self::with_strategy(fanouts, SamplingStrategy::Uniform, base_seed)
    }

    /// Create a sampler with an explicit [`SamplingStrategy`].
    pub fn with_strategy(fanouts: Vec<usize>, strategy: SamplingStrategy, base_seed: u64) -> Self {
        assert!(!fanouts.is_empty(), "need at least one layer");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        NeighborSampler {
            fanouts,
            strategy,
            base_seed,
        }
    }

    /// Sample the blocks for `seeds` (partition-local ids of locally-owned
    /// train nodes) at `(epoch, step)`.
    pub fn sample(
        &self,
        part: &LocalPartition,
        seeds: &[u32],
        epoch: u64,
        step: u64,
    ) -> SampledMinibatch {
        let mut out = SampledMinibatch::default();
        let mut scratch = SamplerScratch::default();
        self.sample_into(part, seeds, epoch, step, &mut out, &mut scratch);
        out
    }

    /// [`sample`](Self::sample) into a recycled minibatch carcass and
    /// reusable scratch. Produces bitwise-identical output to `sample`
    /// (same RNG stream, same first-occurrence position assignment, same
    /// sorted neighbor sets) while leaving the allocator untouched once
    /// `out`/`scratch` have grown to the working-set size.
    pub fn sample_into(
        &self,
        part: &LocalPartition,
        seeds: &[u32],
        epoch: u64,
        step: u64,
        out: &mut SampledMinibatch,
        scratch: &mut SamplerScratch,
    ) {
        let mut rng = StdRng::seed_from_u64(
            self.base_seed
                ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ step.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        );
        let id_space = part.num_local() + part.num_halo();
        if scratch.pos_stamp.len() < id_space {
            scratch.pos_stamp.resize(id_space, 0);
            scratch.pos_val.resize(id_space, 0);
        }

        scratch.dst.clear();
        scratch.dst.extend_from_slice(seeds);
        scratch.dst.sort_unstable();
        scratch.dst.dedup();
        out.seeds.clear();
        out.seeds.extend_from_slice(&scratch.dst);

        // Keep exactly `num_layers` block carcasses, parking extras.
        let num_layers = self.fanouts.len();
        while out.blocks.len() > num_layers {
            scratch.spare_blocks.push(out.blocks.pop().unwrap());
        }
        while out.blocks.len() < num_layers {
            out.blocks
                .push(scratch.spare_blocks.pop().unwrap_or_default());
        }

        // Build blocks from the seed layer outward: rev-iteration `k`
        // fills final slot `num_layers - 1 - k`, so no reverse pass.
        for (k, &fanout) in self.fanouts.iter().rev().enumerate() {
            let bi = num_layers - 1 - k;
            scratch.stamp += 1;
            sample_one_layer_into(
                part,
                &scratch.dst,
                fanout,
                self.strategy,
                &mut rng,
                &mut out.blocks[bi],
                &mut scratch.pos_stamp,
                &mut scratch.pos_val,
                scratch.stamp,
                &mut scratch.chosen,
                &mut scratch.keyed,
                &mut scratch.nbr,
            );
            scratch.dst.clear();
            scratch.dst.extend_from_slice(&out.blocks[bi].src_nodes);
        }
        out.input_nodes.clear();
        out.input_nodes.extend_from_slice(&out.blocks[0].src_nodes);
    }
}

/// Sample one bipartite layer into a recycled [`Block`]: for each dst node
/// take up to `fanout` distinct neighbors according to `strategy`.
#[allow(clippy::too_many_arguments)]
fn sample_one_layer_into(
    part: &LocalPartition,
    dst: &[u32],
    fanout: usize,
    strategy: SamplingStrategy,
    rng: &mut StdRng,
    block: &mut Block,
    pos_stamp: &mut [u64],
    pos_val: &mut [u32],
    stamp: u64,
    chosen: &mut Vec<usize>,
    keyed: &mut Vec<(f64, u32)>,
    nbr: &mut Vec<u32>,
) {
    let num_dst = dst.len();
    block.num_dst = num_dst;
    block.src_nodes.clear();
    block.src_nodes.extend_from_slice(dst);
    // Position map seeded with the dst prefix (self-inclusive src set).
    for (i, &n) in dst.iter().enumerate() {
        pos_stamp[n as usize] = stamp;
        pos_val[n as usize] = i as u32;
    }
    block.offsets.clear();
    block.offsets.push(0);
    block.indices.clear();

    for &d in dst {
        let nbrs = part.graph.neighbors(d);
        nbr.clear();
        if nbrs.len() <= fanout {
            nbr.extend_from_slice(nbrs);
        } else {
            match strategy {
                SamplingStrategy::Uniform => {
                    // Floyd's algorithm: `fanout` distinct indices in
                    // [0, len). The chosen set is tiny (≤ fanout), so a
                    // linear `contains` replaces the old `HashSet` with
                    // identical membership decisions.
                    let len = nbrs.len();
                    chosen.clear();
                    for j in (len - fanout)..len {
                        let t = rng.gen_range(0..=j);
                        if chosen.contains(&t) {
                            chosen.push(j);
                        } else {
                            chosen.push(t);
                        }
                    }
                    nbr.extend(chosen.iter().map(|&i| nbrs[i]));
                    nbr.sort_unstable(); // determinism: fixed output order
                }
                SamplingStrategy::DegreeWeighted => {
                    // Efraimidis–Spirakis A-Res: key = u^(1/w), keep top-k.
                    keyed.clear();
                    keyed.extend(nbrs.iter().map(|&v| {
                        let w = part.global_degree(v).max(1) as f64;
                        let u: f64 = rng.gen::<f64>().max(1e-300);
                        (u.powf(1.0 / w), v)
                    }));
                    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                    keyed.truncate(fanout);
                    nbr.extend(keyed.iter().map(|&(_, v)| v));
                    nbr.sort_unstable();
                }
            }
        }
        for &v in nbr.iter() {
            let p = if pos_stamp[v as usize] == stamp {
                pos_val[v as usize]
            } else {
                let p = block.src_nodes.len() as u32;
                block.src_nodes.push(v);
                pos_stamp[v as usize] = stamp;
                pos_val[v as usize] = p;
                p
            };
            block.indices.push(p);
        }
        block.offsets.push(block.indices.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_partition::{build_local_partitions, multilevel_partition};

    fn partition() -> LocalPartition {
        let g = erdos_renyi(400, 4000, 3);
        let p = multilevel_partition(&g, 4, 3);
        let train: Vec<u32> = (0..400).collect();
        build_local_partitions(&g, &p, &train).remove(0)
    }

    #[test]
    fn blocks_validate_and_chain() {
        let part = partition();
        let seeds: Vec<u32> = (0..16.min(part.num_local() as u32)).collect();
        let s = NeighborSampler::new(vec![10, 25], 7);
        let mb = s.sample(&part, &seeds, 0, 0);
        assert_eq!(mb.blocks.len(), 2);
        for b in &mb.blocks {
            b.validate().unwrap();
        }
        // Chain property: src of the seed-layer block == input of next...
        // blocks[1].src_nodes == blocks[0] dst prefix.
        let last = &mb.blocks[1];
        let first = &mb.blocks[0];
        assert_eq!(&first.src_nodes[..last.num_src()], &last.src_nodes[..]);
        // Seed layer dst == seeds.
        assert_eq!(last.num_dst, mb.seeds.len());
        assert_eq!(mb.input_nodes, first.src_nodes);
    }

    #[test]
    fn fanout_respected() {
        let part = partition();
        let seeds: Vec<u32> = (0..8).collect();
        let s = NeighborSampler::new(vec![5], 1);
        let mb = s.sample(&part, &seeds, 0, 0);
        let b = &mb.blocks[0];
        for i in 0..b.num_dst {
            assert!(b.neighbors_of(i).len() <= 5);
        }
    }

    #[test]
    fn sampled_neighbors_are_real_edges() {
        let part = partition();
        let seeds: Vec<u32> = (0..8).collect();
        let s = NeighborSampler::new(vec![10, 10], 2);
        let mb = s.sample(&part, &seeds, 1, 2);
        for b in &mb.blocks {
            for i in 0..b.num_dst {
                let d = b.src_nodes[i];
                for &j in b.neighbors_of(i) {
                    let v = b.src_nodes[j as usize];
                    assert!(
                        part.graph.neighbors(d).contains(&v),
                        "sampled non-edge {d}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_duplicate_neighbors_per_dst() {
        let part = partition();
        let seeds: Vec<u32> = (0..12).collect();
        let s = NeighborSampler::new(vec![25], 5);
        let mb = s.sample(&part, &seeds, 0, 3);
        let b = &mb.blocks[0];
        for i in 0..b.num_dst {
            let mut nb: Vec<u32> = b.neighbors_of(i).to_vec();
            let before = nb.len();
            nb.sort_unstable();
            nb.dedup();
            assert_eq!(nb.len(), before, "dst {i} has duplicate neighbors");
        }
    }

    #[test]
    fn halo_nodes_are_leaves() {
        let part = partition();
        let seeds: Vec<u32> = (0..16).collect();
        let s = NeighborSampler::new(vec![10, 10], 9);
        let mb = s.sample(&part, &seeds, 0, 0);
        let num_local = part.num_local();
        // Any halo node appearing as dst in the deeper block must have no
        // sampled neighbors.
        let b0 = &mb.blocks[0];
        for i in 0..b0.num_dst {
            if (b0.src_nodes[i] as usize) >= num_local {
                assert!(b0.neighbors_of(i).is_empty(), "halo node expanded");
            }
        }
    }

    #[test]
    fn deterministic_per_step_varies_across_steps() {
        let part = partition();
        let seeds: Vec<u32> = (0..16).collect();
        let s = NeighborSampler::new(vec![5, 5], 11);
        let a = s.sample(&part, &seeds, 0, 0);
        let b = s.sample(&part, &seeds, 0, 0);
        assert_eq!(a, b);
        let c = s.sample(&part, &seeds, 0, 1);
        assert_ne!(a, c, "different steps should sample differently");
        let d = s.sample(&part, &seeds, 1, 0);
        assert_ne!(a, d, "different epochs should sample differently");
    }

    #[test]
    fn duplicate_seeds_deduped() {
        let part = partition();
        let s = NeighborSampler::new(vec![5], 0);
        let mb = s.sample(&part, &[3, 3, 1], 0, 0);
        assert_eq!(mb.seeds, vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn empty_fanouts_rejected() {
        NeighborSampler::new(vec![], 0);
    }

    #[test]
    fn degree_weighted_respects_fanout_and_edges() {
        let part = partition();
        let seeds: Vec<u32> = (0..16).collect();
        let s = NeighborSampler::with_strategy(vec![5], SamplingStrategy::DegreeWeighted, 2);
        let mb = s.sample(&part, &seeds, 0, 0);
        let b = &mb.blocks[0];
        b.validate().unwrap();
        for i in 0..b.num_dst {
            assert!(b.neighbors_of(i).len() <= 5);
            let d = b.src_nodes[i];
            for &j in b.neighbors_of(i) {
                assert!(part.graph.neighbors(d).contains(&b.src_nodes[j as usize]));
            }
        }
    }

    #[test]
    fn degree_weighted_prefers_hubs() {
        // Build a star-heavy partition: one hub adjacent to everything.
        let mut builder = mgnn_graph::GraphBuilder::new(200);
        for v in 1..200u32 {
            builder.add_edge(0, v);
        }
        // plus a sparse ring so non-hub nodes have alternatives
        for v in 1..199u32 {
            builder.add_edge(v, v + 1);
        }
        let g = builder.build();
        let p = mgnn_partition::Partitioning::new(vec![0; 200], 1);
        let part = build_local_partitions(&g, &p, &[]).remove(0);
        let seeds: Vec<u32> = (1..40).collect();
        let uni = NeighborSampler::with_strategy(vec![1], SamplingStrategy::Uniform, 3);
        let wtd = NeighborSampler::with_strategy(vec![1], SamplingStrategy::DegreeWeighted, 3);
        let count_hub = |mb: &SampledMinibatch| {
            let b = &mb.blocks[0];
            (0..b.num_dst)
                .flat_map(|i| b.neighbors_of(i))
                .filter(|&&j| b.src_nodes[j as usize] == 0)
                .count()
        };
        let mut hub_uni = 0;
        let mut hub_wtd = 0;
        for step in 0..30 {
            hub_uni += count_hub(&uni.sample(&part, &seeds, 0, step));
            hub_wtd += count_hub(&wtd.sample(&part, &seeds, 0, step));
        }
        assert!(
            hub_wtd > hub_uni,
            "weighted should pick the hub more often ({hub_wtd} vs {hub_uni})"
        );
    }

    #[test]
    fn sample_into_matches_sample_with_dirty_reuse() {
        // A recycled minibatch + scratch (dirty from arbitrary previous
        // batches) must yield bitwise-identical output to a fresh
        // `sample` at every (epoch, step) and for every strategy.
        let part = partition();
        for strategy in [SamplingStrategy::Uniform, SamplingStrategy::DegreeWeighted] {
            let s = NeighborSampler::with_strategy(vec![4, 7], strategy, 13);
            let mut out = SampledMinibatch::default();
            let mut scratch = SamplerScratch::default();
            for step in 0..8u64 {
                let seeds: Vec<u32> = (step as u32..step as u32 + 11).collect();
                let fresh = s.sample(&part, &seeds, step / 3, step);
                s.sample_into(&part, &seeds, step / 3, step, &mut out, &mut scratch);
                assert_eq!(out, fresh, "{strategy:?} step {step}");
            }
        }
    }

    #[test]
    fn sample_into_recycles_across_layer_counts() {
        // Reusing a carcass from a deeper sampler must not leak blocks.
        let part = partition();
        let deep = NeighborSampler::new(vec![3, 3, 3], 5);
        let shallow = NeighborSampler::new(vec![6], 5);
        let seeds: Vec<u32> = (0..9).collect();
        let mut out = SampledMinibatch::default();
        let mut scratch = SamplerScratch::default();
        deep.sample_into(&part, &seeds, 0, 0, &mut out, &mut scratch);
        assert_eq!(out.blocks.len(), 3);
        shallow.sample_into(&part, &seeds, 0, 1, &mut out, &mut scratch);
        assert_eq!(out, shallow.sample(&part, &seeds, 0, 1));
        deep.sample_into(&part, &seeds, 1, 2, &mut out, &mut scratch);
        assert_eq!(out, deep.sample(&part, &seeds, 1, 2));
    }

    #[test]
    fn strategies_deterministic() {
        let part = partition();
        let seeds: Vec<u32> = (0..8).collect();
        for strategy in [SamplingStrategy::Uniform, SamplingStrategy::DegreeWeighted] {
            let s = NeighborSampler::with_strategy(vec![4, 4], strategy, 7);
            assert_eq!(
                s.sample(&part, &seeds, 1, 2),
                s.sample(&part, &seeds, 1, 2),
                "{strategy:?}"
            );
        }
    }
}
