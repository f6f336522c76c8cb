//! Initial partitioning of the coarsest level by greedy region growth
//! under a node-weight capacity, seeded from high-weight nodes.

use super::coarsen::{Gather, Level};
use mgnn_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// Greedy growth: for each part in turn, grab the heaviest unassigned seed
/// and expand along heaviest connecting edges until the part reaches the
/// ideal weight. Guarantees full coverage (leftovers go to the lightest
/// part), and — with at least as many nodes as parts — no empty part: a
/// part stops early when the nodes still unassigned are only enough for
/// one each to the parts after it.
pub(super) fn greedy_growth(level: &Level, num_parts: usize, seed: u64) -> Vec<u32> {
    let n = level.num_nodes();
    let total = level.total_weight();
    let ideal = total.div_ceil(num_parts as u64);
    let mut assignment = vec![u32::MAX; n];
    let mut part_weight = vec![0u64; num_parts];
    let mut unassigned = n;

    let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
    seeds.shuffle(&mut StdRng::seed_from_u64(seed));
    seeds.sort_by_key(|&u| std::cmp::Reverse(level.node_weight(u)));
    let mut seed_idx = 0usize;

    let mut adjacency = Gather::new(n);
    // The heaviest entry pushed for each node, and into which part's heap.
    let mut heaviest = vec![(u32::MAX, 0u32); n];
    for p in 0..num_parts as u32 {
        let parts_after = num_parts - 1 - p as usize;
        // Max-heap on connection weight to the growing region. It pops
        // one sequence whatever order equal batches were pushed in. An
        // entry no heavier than one already pushed for its node is left
        // out: it would pop after that one, and find the node taken.
        let mut heap: BinaryHeap<(u32, NodeId)> = BinaryHeap::new();
        while part_weight[p as usize] < ideal {
            if part_weight[p as usize] > 0 && unassigned <= parts_after {
                break;
            }
            let u = loop {
                match heap.pop() {
                    Some((_, u)) if assignment[u as usize] == u32::MAX => break Some(u),
                    Some(_) => continue,
                    None => {
                        while seed_idx < n && assignment[seeds[seed_idx] as usize] != u32::MAX {
                            seed_idx += 1;
                        }
                        if seed_idx >= n {
                            break None;
                        }
                        break Some(seeds[seed_idx]);
                    }
                }
            };
            let Some(u) = u else { break };
            assignment[u as usize] = p;
            unassigned -= 1;
            part_weight[p as usize] += u64::from(level.node_weight(u));
            for (v, w) in adjacency.gather(level, u, |v| assignment[v as usize] == u32::MAX) {
                let pushed = &mut heaviest[v as usize];
                if pushed.0 != p || pushed.1 < w {
                    *pushed = (p, w);
                    heap.push((w, v));
                }
            }
        }
    }

    // Leftovers: assign to currently lightest part.
    for (u, a) in assignment.iter_mut().enumerate() {
        if *a == u32::MAX {
            let p = (0..num_parts).min_by_key(|&p| part_weight[p]).unwrap();
            *a = p as u32;
            part_weight[p] += u64::from(level.node_weight(u as NodeId));
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::tests::shaped_graph;
    use mgnn_graph::generators::erdos_renyi;
    use proptest::prelude::*;

    /// `greedy_growth` as it was before dominated entries were left out:
    /// every gathered neighbour is pushed. Kept as the reference of the
    /// pop sequence.
    fn greedy_growth_reference(level: &Level, num_parts: usize, seed: u64) -> Vec<u32> {
        let n = level.num_nodes();
        let total = level.total_weight();
        let ideal = total.div_ceil(num_parts as u64);
        let mut assignment = vec![u32::MAX; n];
        let mut part_weight = vec![0u64; num_parts];
        let mut unassigned = n;

        let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
        seeds.shuffle(&mut StdRng::seed_from_u64(seed));
        seeds.sort_by_key(|&u| std::cmp::Reverse(level.node_weight(u)));
        let mut seed_idx = 0usize;

        let mut adjacency = Gather::new(n);
        for p in 0..num_parts as u32 {
            let parts_after = num_parts - 1 - p as usize;
            let mut heap: BinaryHeap<(u32, NodeId)> = BinaryHeap::new();
            while part_weight[p as usize] < ideal {
                if part_weight[p as usize] > 0 && unassigned <= parts_after {
                    break;
                }
                let u = loop {
                    match heap.pop() {
                        Some((_, u)) if assignment[u as usize] == u32::MAX => break Some(u),
                        Some(_) => continue,
                        None => {
                            while seed_idx < n && assignment[seeds[seed_idx] as usize] != u32::MAX {
                                seed_idx += 1;
                            }
                            if seed_idx >= n {
                                break None;
                            }
                            break Some(seeds[seed_idx]);
                        }
                    }
                };
                let Some(u) = u else { break };
                assignment[u as usize] = p;
                unassigned -= 1;
                part_weight[p as usize] += u64::from(level.node_weight(u));
                for (v, w) in adjacency.gather(level, u, |v| assignment[v as usize] == u32::MAX) {
                    heap.push((w, v));
                }
            }
        }

        for (u, a) in assignment.iter_mut().enumerate() {
            if *a == u32::MAX {
                let p = (0..num_parts).min_by_key(|&p| part_weight[p]).unwrap();
                *a = p as u32;
                part_weight[p] += u64::from(level.node_weight(u as NodeId));
            }
        }
        assignment
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn growth_pops_what_a_heap_of_every_entry_pops(
            shape in 0u8..5,
            n in 16usize..240,
            num_parts in 2usize..9,
            depth in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let g = shaped_graph(shape, n, seed);
            let mut level = Level::input(&g);
            for l in 0..depth {
                level = level.coarsen(seed ^ l as u64);
            }
            prop_assert_eq!(
                greedy_growth(&level, num_parts, seed),
                greedy_growth_reference(&level, num_parts, seed)
            );
        }
    }

    #[test]
    fn covers_everything() {
        let g = erdos_renyi(300, 1200, 1);
        let a = greedy_growth(&Level::input(&g), 4, 2);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn roughly_balanced_weights() {
        let g = erdos_renyi(400, 2400, 3);
        let level = Level::input(&g).coarsen(5);
        let a = greedy_growth(&level, 4, 1);
        let mut w = [0u64; 4];
        for (u, &p) in a.iter().enumerate() {
            w[p as usize] += u64::from(level.node_weight(u as u32));
        }
        let max = *w.iter().max().unwrap() as f64;
        let ideal = 100.0;
        assert!(max <= ideal * 1.35, "max part weight {max}");
    }

    #[test]
    fn single_part() {
        let g = erdos_renyi(50, 100, 0);
        let a = greedy_growth(&Level::input(&g), 1, 0);
        assert!(a.iter().all(|&p| p == 0));
    }

    #[test]
    fn heavy_nodes_leave_no_part_empty() {
        // Nodes of a level coarsened twice weigh up to four: growing each
        // of `num_nodes - 1` parts to ceil(48 / k) lets the first parts
        // overshoot and take every node before the last parts come up.
        let g = erdos_renyi(48, 200, 2);
        let level = Level::input(&g).coarsen(1).coarsen(2);
        let k = level.num_nodes() - 1;
        let a = greedy_growth(&level, k, 3);
        let mut sizes = vec![0; k];
        for &p in &a {
            sizes[p as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0), "empty part: {sizes:?}");
    }
}
