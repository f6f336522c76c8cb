//! Multilevel k-way partitioner in the METIS family.
//!
//! Three phases, as in Karypis–Kumar:
//! 1. **Coarsening** ([`coarsen`]): repeated heavy-edge matching collapses
//!    matched node pairs, accumulating node and edge weights, until the
//!    graph is small (≤ `COARSE_TARGET · k` nodes) or matching stalls.
//! 2. **Initial partitioning** ([`initial`]): greedy region growth on the
//!    coarsest graph under a node-weight capacity.
//! 3. **Uncoarsening + refinement** ([`refine`]): project the assignment
//!    back level by level, running boundary Kernighan–Lin/FM moves that
//!    reduce edge cut subject to a balance tolerance.
//!
//! The goal is not to beat METIS but to produce the same *regime*: balanced
//! partitions whose edge cut — and therefore halo fraction — is far below
//! random, so the prefetch experiments see realistic remote-node ratios.

pub mod coarsen;
pub mod initial;
pub mod refine;

use crate::Partitioning;
use mgnn_graph::CsrGraph;

pub use coarsen::WGraph;

/// Stop coarsening when the graph has at most this many nodes per part.
const COARSE_TARGET: usize = 60;
/// Allowed imbalance: max part weight ≤ (1 + ε) · ideal.
pub const BALANCE_EPS: f64 = 0.05;

/// Partition `g` into `num_parts` balanced parts, minimizing edge cut.
///
/// `seed` drives tie-breaking in matching and initial growth; results are
/// deterministic per seed.
pub fn multilevel_partition(g: &CsrGraph, num_parts: usize, seed: u64) -> Partitioning {
    assert!(num_parts >= 1);
    let n = g.num_nodes();
    if num_parts == 1 || n == 0 {
        return Partitioning::new(vec![0; n], num_parts.max(1));
    }

    // Phase 1: coarsen. Level 0 is a view of `g`; every level is moved
    // onto the stack when its coarser successor exists, never copied.
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (finer graph, fine->coarse map)
    let mut current = WGraph::from_csr(g);
    let target = COARSE_TARGET * num_parts;
    while current.num_nodes() > target {
        let (coarser, map) = coarsen::coarsen_once(&current, seed ^ levels.len() as u64);
        // Matching stalled (e.g. star graphs): stop to avoid spinning.
        let stalled = coarser.num_nodes() as f64 > 0.95 * current.num_nodes() as f64;
        levels.push((std::mem::replace(&mut current, coarser), map));
        if stalled {
            break;
        }
    }

    // Phase 2: initial partition of the coarsest graph.
    let mut assignment = initial::greedy_growth(&current, num_parts, seed);
    refine::refine(&current, &mut assignment, num_parts, BALANCE_EPS, 8);
    drop(current);

    // Phase 3: uncoarsen + refine, returning each level once it is refined.
    while let Some((fine, map)) = levels.pop() {
        assignment = map.iter().map(|&c| assignment[c as usize]).collect();
        refine::refine(&fine, &mut assignment, num_parts, BALANCE_EPS, 4);
    }

    Partitioning::new(assignment, num_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut};
    use crate::random::random_partition;
    use mgnn_graph::generators::{barabasi_albert, erdos_renyi, sbm, SbmParams};

    #[test]
    fn covers_all_nodes() {
        let g = erdos_renyi(2000, 10_000, 1);
        let p = multilevel_partition(&g, 4, 7);
        assert_eq!(p.assignment.len(), 2000);
        assert_eq!(p.sizes().iter().sum::<usize>(), 2000);
        for part in 0..4 {
            assert!(p.sizes()[part] > 0, "empty partition {part}");
        }
    }

    #[test]
    fn balanced_within_tolerance() {
        let g = erdos_renyi(3000, 15_000, 2);
        let p = multilevel_partition(&g, 4, 3);
        let b = balance(&p);
        assert!(b < 1.2, "balance {b} too loose");
    }

    #[test]
    fn recovers_planted_communities() {
        let params = SbmParams {
            communities: 4,
            p_in: 0.08,
            p_out: 0.002,
        };
        let g = sbm(1200, params, 5);
        let ml = edge_cut(&g, &multilevel_partition(&g, 4, 5));
        let rnd = edge_cut(&g, &random_partition(&g, 4, 5));
        assert!(
            (ml as f64) < 0.35 * rnd as f64,
            "multilevel cut {ml} should be far below random {rnd}"
        );
    }

    #[test]
    fn beats_random_on_powerlaw() {
        let g = barabasi_albert(3000, 4, 9);
        let ml = edge_cut(&g, &multilevel_partition(&g, 8, 9));
        let rnd = edge_cut(&g, &random_partition(&g, 8, 9));
        assert!(ml < rnd, "ml {ml} vs random {rnd}");
    }

    #[test]
    fn single_part() {
        let g = erdos_renyi(100, 300, 1);
        let p = multilevel_partition(&g, 1, 0);
        assert!(p.assignment.iter().all(|&x| x == 0));
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(800, 4000, 4);
        assert_eq!(
            multilevel_partition(&g, 4, 11),
            multilevel_partition(&g, 4, 11)
        );
    }

    #[test]
    fn tiny_graph_more_parts_than_nodes_is_ok() {
        let g = erdos_renyi(8, 12, 1);
        let p = multilevel_partition(&g, 4, 0);
        assert_eq!(p.assignment.len(), 8);
    }
}
