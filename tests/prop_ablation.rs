//! The ablation's `score-based` row is the production scoreboard:
//! `CacheSim(ScoreBased)` fed the halo sets a `Prefetcher` samples makes
//! every decision the prefetcher makes, step by step — hits and misses,
//! which slot is evicted for which halo node, who is resident, and every
//! `S_E` / `S_A` bit after the swap — over random graphs × γ × Δ × `f_h`
//! × both `S_A` layouts (the simulator's own layout is fixed; the
//! prefetcher's is not, and neither may matter). Fault-free: a cancelled
//! replacement is a prefetcher-only event.

use massivegnn::ablation::{CachePolicy, CacheSim};
use massivegnn::init::{initialize_prefetcher, top_degree_halo};
use massivegnn::{PrefetchConfig, ScoreLayout};
use mgnn_graph::{FeatureStore, GraphBuilder};
use mgnn_net::{CommMetrics, CostModel, SimCluster};
use mgnn_partition::{build_local_partitions, hash::hash_partition};
use mgnn_sampling::{DataLoader, NeighborSampler};
use proptest::prelude::*;

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (40..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), n..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn score_based_cache_sim_decides_what_the_prefetcher_decides(
        (n, edges) in arb_edges(240, 1600),
        gamma_sel in 0usize..4,
        delta in 1usize..7,
        f_h in 0.05f64..0.9,
        layout_sel in 0u32..2,
        seed in 0u64..1000,
    ) {
        let gamma = [0.5, 0.9, 0.995, 1.0][gamma_sel];
        let layout = if layout_sel == 1 { ScoreLayout::MemEfficient } else { ScoreLayout::Dense };
        let mut b = GraphBuilder::new(n);
        b.extend(edges);
        let g = b.build();
        let p = hash_partition(&g, 2);
        let feats = FeatureStore::synthesize(&g, 4, 3, seed);
        let cluster = SimCluster::new(&feats, &p.assignment, 2);
        let train: Vec<u32> = (0..n as u32).collect();
        let part = build_local_partitions(&g, &p, &train).remove(0);
        let shard: Vec<u32> = part
            .train_nodes
            .iter()
            .map(|&g| part.local_id(g).unwrap())
            .collect();
        let loader = DataLoader::new(shard, 4, seed ^ 5);
        let sampler = NeighborSampler::new(vec![3, 3], seed ^ 9);
        let cost = CostModel::default();
        let metrics = CommMetrics::new();
        let cfg = PrefetchConfig { f_h, gamma, delta, layout, ..Default::default() };
        let (mut pf, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, &metrics);

        let initial = top_degree_halo(&part, f_h);
        prop_assert_eq!(&pf.buffer.occupied().map(|(_, h)| h).collect::<Vec<_>>(), &initial);
        let mut sim = CacheSim::new(
            CachePolicy::ScoreBased { gamma, delta },
            &part.halo_degree,
            &initial,
        );

        let num_local = part.num_local();
        let halo_ids: Vec<u32> = (0..part.num_halo() as u32).collect();
        let mut step = 0u64;
        let mut replaced = 0u64;
        for epoch in 0..3u64 {
            for seeds in loader.epoch(epoch).iter() {
                let batch = pf.prepare_reuse(
                    None, &part, &sampler, seeds, epoch, step, &cluster, &cost, &metrics,
                );
                let (_, halo) = batch.minibatch.split_local_halo(num_local);
                let sampled: Vec<u32> = halo.iter().map(|&l| l - num_local as u32).collect();
                sim.access(&sampled);

                let c = batch.counts;
                prop_assert_eq!((c.degraded, c.stale), (0, 0));
                let rate = if c.hits + c.misses == 0 {
                    0.0
                } else {
                    c.hits as f64 / (c.hits + c.misses) as f64
                };
                prop_assert_eq!(
                    sim.tracker.at(step as usize).to_bits(),
                    rate.to_bits(),
                    "step {}: hits {} misses {}", step, c.hits, c.misses
                );
                replaced += c.replaced as u64;
                prop_assert_eq!(sim.replacements, replaced, "step {}", step);
                // Same slot → same occupant: the same slots were evicted
                // and the same halo nodes installed in them.
                prop_assert_eq!(
                    sim.buffer.occupied().collect::<Vec<_>>(),
                    pf.buffer.occupied().collect::<Vec<_>>(),
                    "step {}", step
                );
                for (slot, _) in pf.buffer.occupied() {
                    prop_assert_eq!(
                        sim.s_e.get(slot).to_bits(),
                        pf.s_e.get(slot).to_bits(),
                        "S_E of slot {} after step {}", slot, step
                    );
                }
                for &h in &halo_ids {
                    prop_assert_eq!(
                        sim.s_a.get(&halo_ids, h).to_bits(),
                        pf.s_a.get(&part.halo_nodes, part.halo_nodes[h as usize]).to_bits(),
                        "S_A of halo {} after step {}", h, step
                    );
                }
                step += 1;
            }
        }
        prop_assert!(step > delta as u64, "the run must cross an eviction round");
    }
}
