//! Initial partitioning of the coarsest graph by greedy region growth under
//! a node-weight capacity, seeded from high-weight nodes.

use super::coarsen::WGraph;
use mgnn_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// Greedy growth: for each part in turn, grab the heaviest unassigned seed
/// and expand along heaviest connecting edges until the part reaches the
/// ideal weight. Guarantees full coverage (leftovers go to the lightest
/// part).
pub fn greedy_growth(g: &WGraph, num_parts: usize, seed: u64) -> Vec<u32> {
    let n = g.num_nodes();
    let total = g.total_weight();
    let ideal = total.div_ceil(num_parts as u64);
    let mut assignment = vec![u32::MAX; n];
    let mut part_weight = vec![0u64; num_parts];

    let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
    seeds.shuffle(&mut StdRng::seed_from_u64(seed));
    seeds.sort_by_key(|&u| std::cmp::Reverse(g.node_weight(u)));
    let mut seed_idx = 0usize;

    for p in 0..num_parts as u32 {
        // Max-heap on connection weight to the growing region.
        let mut heap: BinaryHeap<(u32, NodeId)> = BinaryHeap::new();
        while part_weight[p as usize] < ideal {
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
            part_weight[p as usize] += u64::from(g.node_weight(u));
            g.for_each_edge(u, |v, w| {
                if assignment[v as usize] == u32::MAX {
                    heap.push((w, v));
                }
            });
        }
    }

    // Leftovers: assign to currently lightest part.
    for (u, a) in assignment.iter_mut().enumerate() {
        if *a == u32::MAX {
            let p = (0..num_parts).min_by_key(|&p| part_weight[p]).unwrap();
            *a = p as u32;
            part_weight[p] += u64::from(g.node_weight(u as NodeId));
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;

    #[test]
    fn covers_everything() {
        let g = erdos_renyi(300, 1200, 1);
        let wg = WGraph::from_csr(&g);
        let a = greedy_growth(&wg, 4, 2);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn roughly_balanced_weights() {
        let g = erdos_renyi(400, 2400, 3);
        let wg = WGraph::from_csr(&g);
        let a = greedy_growth(&wg, 4, 1);
        let mut w = [0u64; 4];
        for (u, &p) in a.iter().enumerate() {
            w[p as usize] += u64::from(wg.node_weight(u as u32));
        }
        let max = *w.iter().max().unwrap() as f64;
        let ideal = 100.0;
        assert!(max <= ideal * 1.35, "max part weight {max}");
    }

    #[test]
    fn single_part() {
        let g = erdos_renyi(50, 100, 0);
        let wg = WGraph::from_csr(&g);
        let a = greedy_growth(&wg, 1, 0);
        assert!(a.iter().all(|&p| p == 0));
    }
}
