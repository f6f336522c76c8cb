//! Property-based tests (proptest) over the core data structures and
//! algorithmic invariants: CSR canonicality, partitioner cover/balance,
//! buffer capacity under arbitrary evict/replace traffic, scoreboard
//! layout equivalence, clock combinators and the performance-model
//! algebra.

use massivegnn::scoreboard::{AccessScores, EvictionScores};
use massivegnn::{perfmodel, PrefetchBuffer, ScoreLayout};
use mgnn_graph::GraphBuilder;
use mgnn_net::SimClock;
use mgnn_partition::{multilevel_partition, Partitioning};
use proptest::prelude::*;

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_builder_always_canonical((n, edges) in arb_edges(200, 600)) {
        let mut b = GraphBuilder::new(n);
        b.extend(edges);
        let g = b.build();
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.is_symmetric());
        // No self loops by default.
        for u in g.nodes() {
            prop_assert!(!g.has_edge(u, u));
        }
    }

    #[test]
    fn multilevel_partition_covers_and_balances(
        (n, edges) in arb_edges(300, 1500),
        parts in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut b = GraphBuilder::new(n);
        b.extend(edges);
        let g = b.build();
        let p = multilevel_partition(&g, parts, seed);
        prop_assert_eq!(p.assignment.len(), n);
        prop_assert!(p.assignment.iter().all(|&x| (x as usize) < parts));
        // Cover: sizes sum to n.
        prop_assert_eq!(p.sizes().iter().sum::<usize>(), n);
    }

    #[test]
    fn buffer_capacity_invariant_under_arbitrary_replace_traffic(
        ops in prop::collection::vec((0u32..64, 64u32..256), 1..200)
    ) {
        // 256 halo nodes, capacity 64; slots addressed mod capacity,
        // replacements chosen from the non-buffered range.
        let dim = 4;
        let mut buf = PrefetchBuffer::new(256, 64, dim);
        for h in 0..64u32 {
            buf.insert_with(h, |row| row.fill(h as f32));
        }
        for (slot, new_h) in ops {
            if !buf.contains(new_h) {
                let old = buf.replace_with(slot, new_h, |row| row.fill(new_h as f32));
                prop_assert!(!buf.contains(old));
            }
            prop_assert_eq!(buf.len(), 64);
            prop_assert!(buf.check_invariants().is_ok());
        }
    }

    #[test]
    fn scoreboard_layouts_always_agree(
        halo_raw in prop::collection::btree_set(0u32..5000, 1..200),
        ops in prop::collection::vec((0usize..200, -1.0f32..5.0), 0..300),
    ) {
        let halo: Vec<u32> = halo_raw.into_iter().collect();
        let mut dense = AccessScores::new(ScoreLayout::Dense, 5000, halo.len());
        let mut me = AccessScores::new(ScoreLayout::MemEfficient, 5000, halo.len());
        for (idx, v) in ops {
            let g = halo[idx % halo.len()];
            if v < 0.0 {
                dense.increment(&halo, g);
                me.increment(&halo, g);
            } else {
                dense.set(&halo, g, v);
                me.set(&halo, g, v);
            }
        }
        for &g in &halo {
            prop_assert_eq!(dense.get(&halo, g), me.get(&halo, g));
        }
    }

    #[test]
    fn stamped_dedup_yields_single_increment_per_sampled_node(
        raw in prop::collection::vec(0u32..64, 1..300),
    ) {
        // Regression for the duplicate-miss bug: a halo node sampled
        // through several seeds in one minibatch must bump S_A once, not
        // once per occurrence. Mirrors Prefetcher::prepare_reuse's stamp-based
        // dedup and checks it against a set-based reference on both
        // layouts.
        let halo: Vec<u32> = (0..64u32).map(|h| 1000 + h * 3).collect();
        let mut stamp = vec![u64::MAX; 64];
        let mut deduped: Vec<u32> = Vec::new();
        for &h in &raw {
            if stamp[h as usize] != 0 {
                stamp[h as usize] = 0;
                deduped.push(h);
            }
        }
        // First-occurrence order, no duplicates, nothing dropped.
        let mut seen = std::collections::BTreeSet::new();
        for &h in &deduped {
            prop_assert!(seen.insert(h));
        }
        for &h in &raw {
            prop_assert!(seen.contains(&h));
        }
        let globals: Vec<u32> = deduped.iter().map(|&h| halo[h as usize]).collect();
        for layout in [ScoreLayout::Dense, ScoreLayout::MemEfficient] {
            let mut batch = AccessScores::new(layout, 2000, halo.len());
            batch.increment_batch(&halo, &globals);
            let mut reference = AccessScores::new(layout, 2000, halo.len());
            for &h in &seen {
                reference.increment(&halo, halo[h as usize]);
            }
            for &g in &halo {
                prop_assert_eq!(batch.get(&halo, g), reference.get(&halo, g));
            }
        }
    }

    #[test]
    fn top_k_footprint_counts_every_positive_candidate(
        scores in prop::collection::vec(0u32..4, 8..128),
        k in 0usize..16,
    ) {
        // The eviction round's transient accounting relies on the
        // footprint being 12 bytes per positive-S_A candidate *before*
        // the truncate to k — independent of k.
        let halo: Vec<u32> = (0..scores.len() as u32).collect();
        let mut s_a = AccessScores::new(ScoreLayout::MemEfficient, scores.len(), scores.len());
        let mut positive = 0usize;
        for (i, &v) in scores.iter().enumerate() {
            s_a.set(&halo, i as u32, v as f32);
            if v > 0 {
                positive += 1;
            }
        }
        let (top, bytes) =
            s_a.top_k_candidates_with_footprint(&halo, halo.iter().copied(), k, |_| 0);
        prop_assert_eq!(bytes, positive * 12);
        prop_assert_eq!(top.len(), k.min(positive));
    }

    #[test]
    fn eviction_scores_monotone_under_decay(
        gamma in 0.01f64..1.0,
        decays in 1usize..100,
    ) {
        let mut e = EvictionScores::new(1);
        let mut prev = e.get(0);
        for _ in 0..decays {
            e.decay(0, gamma);
            let cur = e.get(0);
            prop_assert!(cur <= prev);
            prop_assert!(cur >= 0.0);
            prev = cur;
        }
        // Exactly gamma^decays.
        prop_assert!((e.get(0) - gamma.powi(decays as i32)).abs() < 1e-9);
    }

    #[test]
    fn clock_overlap_never_exceeds_serial(
        pairs in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..50)
    ) {
        let mut overlapped = SimClock::new();
        let mut serial = 0.0f64;
        for &(a, b) in &pairs {
            overlapped.advance_overlapped(a, b);
            serial += a + b;
        }
        prop_assert!(overlapped.now() <= serial + 1e-9);
        // And at least the max single stream.
        let amax: f64 = pairs.iter().map(|p| p.0).sum();
        let bmax: f64 = pairs.iter().map(|p| p.1).sum();
        prop_assert!(overlapped.now() + 1e-9 >= amax.max(bmax));
        // Efficiency in range.
        let e = overlapped.overlap_efficiency();
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn perfmodel_prefetch_never_slower_than_baseline_in_model(
        ts in 0.0f64..1.0, trpc in 0.0f64..1.0, tcopy in 0.0f64..1.0,
        tl in 0.0f64..0.1, tsc in 0.0f64..0.1, tddp in 0.001f64..1.0,
    ) {
        let c = perfmodel::Components {
            t_sampling: ts,
            t_rpc: trpc,
            t_copy: tcopy,
            t_lookup: tl,
            t_scoring: tsc,
            t_ddp: tddp,
        };
        // Steady-state prefetch time never exceeds baseline plus the
        // prefetch-only overheads (lookup + scoring).
        prop_assert!(
            perfmodel::t_prefetch_steady(&c)
                <= perfmodel::t_baseline(&c) + tl + tsc + 1e-12
        );
        // With zero prefetch overheads it strictly never exceeds baseline.
        let c0 = perfmodel::Components { t_lookup: 0.0, t_scoring: 0.0, ..c };
        prop_assert!(perfmodel::t_prefetch_steady(&c0) <= perfmodel::t_baseline(&c0) + 1e-12);
        // First-batch cost is at least the steady-state cost.
        prop_assert!(perfmodel::t_prefetch_first(&c) + 1e-12 >= perfmodel::t_prefetch_steady(&c));
    }

    #[test]
    fn partitioning_sizes_consistent(assign in prop::collection::vec(0u32..4, 1..500)) {
        let p = Partitioning::new(assign.clone(), 4);
        let sizes = p.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), assign.len());
        for part in 0..4u32 {
            let owned = assign.iter().filter(|&&q| q == part).count();
            prop_assert_eq!(owned, sizes[part as usize]);
        }
    }
}
