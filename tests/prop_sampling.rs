//! Property-based tests over the sampling pipeline: for arbitrary graphs,
//! fanouts, seeds and strategies, sampled blocks must validate, chain
//! correctly across layers, respect fanout budgets, only contain real
//! edges, and terminate at halo frontiers.

use mgnn_graph::GraphBuilder;
use mgnn_partition::{build_local_partitions, multilevel_partition, LocalPartition};
use mgnn_sampling::{NeighborSampler, SamplingStrategy};
use proptest::prelude::*;

fn build_partition(n: usize, edges: Vec<(u32, u32)>, parts: usize, seed: u64) -> LocalPartition {
    let mut b = GraphBuilder::new(n);
    b.extend(edges);
    let g = b.build();
    let p = multilevel_partition(&g, parts, seed);
    let train: Vec<u32> = (0..n as u32).collect();
    build_local_partitions(&g, &p, &train).remove(0)
}

/// `(n, edges, fanouts, seeds, seed, strategy)` for one sampler run.
type SamplerInstance = (
    usize,
    Vec<(u32, u32)>,
    Vec<usize>,
    Vec<u32>,
    u64,
    SamplingStrategy,
);

fn arb_instance() -> impl Strategy<Value = SamplerInstance> {
    (20usize..150).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), n..n * 6);
        let fanouts = prop::collection::vec(1usize..8, 1..3);
        let seeds = prop::collection::vec(0u32..(n as u32 / 3).max(1), 1..12);
        let strategy = prop_oneof![
            Just(SamplingStrategy::Uniform),
            Just(SamplingStrategy::DegreeWeighted),
        ];
        (Just(n), edges, fanouts, seeds, 0u64..100, strategy)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sampled_blocks_always_valid(
        (n, edges, fanouts, raw_seeds, seed, strategy) in arb_instance()
    ) {
        let part = build_partition(n, edges, 3, seed);
        // Seeds must be locally-owned ids.
        let seeds: Vec<u32> = raw_seeds
            .into_iter()
            .map(|s| s % part.num_local().max(1) as u32)
            .collect();
        let sampler = NeighborSampler::with_strategy(fanouts.clone(), strategy, seed);
        let mb = sampler.sample(&part, &seeds, 0, seed);

        // One block per layer, all structurally valid.
        prop_assert_eq!(mb.blocks.len(), fanouts.len());
        for b in &mb.blocks {
            prop_assert!(b.validate().is_ok());
        }

        // Chain property: each layer's dst prefix equals the next
        // shallower layer's src set.
        for w in mb.blocks.windows(2) {
            let deeper = &w[0];
            let shallower = &w[1];
            prop_assert_eq!(
                &deeper.src_nodes[..shallower.num_src()],
                &shallower.src_nodes[..]
            );
        }
        // Seed layer dst == unique seeds; input nodes == deepest src.
        let last = mb.blocks.last().unwrap();
        prop_assert_eq!(last.num_dst, mb.seeds.len());
        prop_assert_eq!(&mb.input_nodes, &mb.blocks[0].src_nodes);

        // Fanout budget + real edges + halo leaves.
        for (li, b) in mb.blocks.iter().enumerate() {
            // blocks are input-first; fanouts are input-first too.
            let fanout = fanouts[li];
            for i in 0..b.num_dst {
                let d = b.src_nodes[i];
                prop_assert!(b.neighbors_of(i).len() <= fanout.max(part.graph.degree(d)));
                prop_assert!(
                    b.neighbors_of(i).len() <= fanout
                        || b.neighbors_of(i).len() == part.graph.degree(d)
                );
                if part.is_halo(d) {
                    prop_assert!(b.neighbors_of(i).is_empty(), "halo expanded");
                }
                for &j in b.neighbors_of(i) {
                    let v = b.src_nodes[j as usize];
                    prop_assert!(part.graph.neighbors(d).contains(&v), "non-edge sampled");
                }
            }
        }
    }

    #[test]
    fn sampling_deterministic_across_calls(
        (n, edges, fanouts, raw_seeds, seed, strategy) in arb_instance()
    ) {
        let part = build_partition(n, edges, 2, seed);
        let seeds: Vec<u32> = raw_seeds
            .into_iter()
            .map(|s| s % part.num_local().max(1) as u32)
            .collect();
        let sampler = NeighborSampler::with_strategy(fanouts, strategy, seed);
        prop_assert_eq!(
            sampler.sample(&part, &seeds, 3, 5),
            sampler.sample(&part, &seeds, 3, 5)
        );
    }
}
