//! BFS (region-growing) partitioning, in the spirit of BGL's
//! proximity-aware blocks: grow partitions one at a time by breadth-first
//! search from the highest-degree unassigned seed until the partition
//! reaches its capacity `⌈n/P⌉`. Produces contiguous, locality-friendly
//! blocks but with higher cut than multilevel refinement.

use crate::Partitioning;
use mgnn_graph::{CsrGraph, NodeId};
use std::collections::VecDeque;

/// Grow `num_parts` partitions by BFS from high-degree seeds.
pub fn bfs_partition(g: &CsrGraph, num_parts: usize) -> Partitioning {
    assert!(num_parts >= 1);
    let n = g.num_nodes();
    let cap = n.div_ceil(num_parts);
    let mut assignment = vec![u32::MAX; n];
    // Seeds by descending degree.
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    by_degree.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));

    let mut next_seed = 0usize;
    for p in 0..num_parts {
        let mut size = 0usize;
        let mut queue = VecDeque::new();
        while size < cap {
            if queue.is_empty() {
                // Find next unassigned seed.
                while next_seed < n && assignment[by_degree[next_seed] as usize] != u32::MAX {
                    next_seed += 1;
                }
                if next_seed >= n {
                    break;
                }
                let s = by_degree[next_seed];
                assignment[s as usize] = p as u32;
                size += 1;
                queue.push_back(s);
                continue;
            }
            let u = queue.pop_front().unwrap();
            for &v in g.neighbors(u) {
                if size >= cap {
                    break;
                }
                if assignment[v as usize] == u32::MAX {
                    assignment[v as usize] = p as u32;
                    size += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    // Any stragglers (possible when cap*P == n exactly consumed early) go to
    // the last partition.
    for a in assignment.iter_mut() {
        if *a == u32::MAX {
            *a = (num_parts - 1) as u32;
        }
    }
    Partitioning::new(assignment, num_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::edge_cut;
    use crate::random::random_partition;
    use mgnn_graph::generators::{sbm, SbmParams};

    #[test]
    fn covers_and_roughly_balances() {
        let g = mgnn_graph::generators::erdos_renyi(1000, 5000, 1);
        let p = bfs_partition(&g, 4);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        for &s in &sizes {
            assert!(s <= 250);
        }
    }

    #[test]
    fn beats_random_on_community_graph() {
        let params = SbmParams {
            communities: 4,
            p_in: 0.08,
            p_out: 0.002,
        };
        let g = sbm(800, params, 3);
        let bfs_cut = edge_cut(&g, &bfs_partition(&g, 4));
        let rand_cut = edge_cut(&g, &random_partition(&g, 4, 3));
        assert!(
            bfs_cut < rand_cut,
            "bfs cut {bfs_cut} should beat random {rand_cut}"
        );
    }

    #[test]
    fn one_partition_trivial() {
        let g = mgnn_graph::generators::erdos_renyi(50, 100, 2);
        let p = bfs_partition(&g, 1);
        assert!(p.assignment.iter().all(|&x| x == 0));
    }

    #[test]
    fn more_parts_than_interesting_nodes() {
        let g = mgnn_graph::GraphBuilder::new(5).build();
        let p = bfs_partition(&g, 3);
        assert_eq!(p.sizes().iter().sum::<usize>(), 5);
    }
}
