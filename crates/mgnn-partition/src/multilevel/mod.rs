//! Multilevel k-way partitioner in the METIS family.
//!
//! Three phases, as in Karypis–Kumar:
//! 1. **Coarsening** (`coarsen.rs`): repeated heavy-edge matching collapses
//!    matched node pairs, accumulating node and edge weights, until the
//!    graph is small (≤ `COARSE_TARGET · k` nodes) or matching stalls.
//! 2. **Initial partitioning** (`initial.rs`): greedy region growth on the
//!    coarsest level under a node-weight capacity.
//! 3. **Uncoarsening + refinement** (`refine.rs`): project the assignment
//!    back level by level, running boundary Kernighan–Lin/FM moves that
//!    reduce edge cut subject to a balance tolerance.
//!
//! A coarse level is a map from input node to coarse node, never a graph:
//! matching and growth sum a coarse node's edges from its members' input
//! edges when they visit the node. Refinement sums its members' rows of a
//! table of every input node's neighbours per part, kept up to date by
//! each move from the end of growth to the input level.
//!
//! The goal is not to beat METIS but to produce the same *regime*: balanced
//! partitions whose edge cut — and therefore halo fraction — is far below
//! random, so the prefetch experiments see realistic remote-node ratios.

mod coarsen;
mod initial;
mod refine;

use crate::Partitioning;
use coarsen::Level;
use mgnn_graph::CsrGraph;
use refine::Connections;

/// Stop coarsening when the graph has at most this many nodes per part.
const COARSE_TARGET: usize = 60;
/// Allowed imbalance: max part weight ≤ (1 + ε) · ideal.
pub const BALANCE_EPS: f64 = 0.05;

/// Partition `g` into `num_parts` balanced parts, minimizing edge cut.
/// With at least `num_parts` nodes, no part comes out empty. `g` must be
/// symmetric, as every graph `GraphBuilder` makes is.
///
/// `seed` drives tie-breaking in matching and initial growth; results are
/// deterministic per seed.
pub fn multilevel_partition(g: &CsrGraph, num_parts: usize, seed: u64) -> Partitioning {
    assert!(num_parts >= 1);
    let n = g.num_nodes();
    if num_parts == 1 || n == 0 {
        return Partitioning::new(vec![0; n], num_parts.max(1));
    }

    // Phase 1: coarsen. Of each finer level only its input → coarse map
    // and its internal edge counts are kept for the way back.
    let mut maps: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut current = Level::input(g);
    let target = COARSE_TARGET * num_parts;
    while current.num_nodes() > target {
        let coarser = current.coarsen(seed ^ maps.len() as u64);
        // Matching stalled (e.g. star graphs): stop to avoid spinning.
        let stalled = coarser.num_nodes() as f64 > 0.95 * current.num_nodes() as f64;
        maps.push(std::mem::replace(&mut current, coarser).into_parts());
        if stalled {
            break;
        }
    }

    // Phase 2: initial partition of the coarsest level, and the table of
    // every input node's neighbours per part that refinement reads.
    let mut assignment = initial::greedy_growth(&current, num_parts, seed);
    let mut connections = Connections::new(&current, &assignment, num_parts);
    refine::refine(&current, &mut assignment, &mut connections, BALANCE_EPS, 8);

    // Phase 3: uncoarsen + refine. Every member of a finer node lies in
    // one coarser node, so projecting through the input nodes is exact —
    // and moves no input node, so the table stays the assignment's.
    while let Some((map, internal)) = maps.pop() {
        let finer = Level::from_parts(g, map, internal);
        let mut projected = vec![0; finer.num_nodes()];
        for (&fine, &coarse) in finer.map().iter().zip(current.map()) {
            projected[fine as usize] = assignment[coarse as usize];
        }
        assignment = projected;
        current = finer;
        refine::refine(&current, &mut assignment, &mut connections, BALANCE_EPS, 4);
    }

    Partitioning::new(assignment, num_parts)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut};
    use crate::random::random_partition;
    use mgnn_graph::generators::{barabasi_albert, erdos_renyi, rmat, sbm, RmatParams, SbmParams};
    use mgnn_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A graph of `n` ≥ 16 nodes for the phases' reference tests: dense
    /// and sparse Erdős–Rényi, planted communities, R-MAT's heavy tail,
    /// and a cycle, where every gain a node can see is a tie.
    pub(super) fn shaped_graph(shape: u8, n: usize, seed: u64) -> CsrGraph {
        match shape % 5 {
            0 => erdos_renyi(n, 3 * n, seed),
            1 => erdos_renyi(n, n, seed),
            2 => sbm(
                n,
                SbmParams {
                    communities: 4,
                    p_in: 0.2,
                    p_out: 0.02,
                },
                seed,
            ),
            3 => rmat(n, 4 * n, RmatParams::default(), seed),
            _ => {
                let mut b = GraphBuilder::new(n);
                for u in 0..n as u32 {
                    b.add_edge(u, (u + 1) % n as u32);
                }
                b.build()
            }
        }
    }

    /// Each of `n` nodes in a uniformly drawn part of `num_parts`.
    pub(super) fn random_parts(n: usize, num_parts: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..num_parts as u32)).collect()
    }

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
    fn no_part_comes_out_empty() {
        // Shapes whose heavy coarse nodes let the first parts of the
        // initial growth take every node, leaving the last parts empty.
        use mgnn_graph::{DatasetGraph, DatasetKind, Scale};
        for (kind, k) in [
            (DatasetKind::Products, 12),
            (DatasetKind::Papers, 17),
            (DatasetKind::Reddit, 44),
        ] {
            let g = DatasetGraph::generate(kind, Scale::Unit, 42).graph;
            let sizes = multilevel_partition(&g, k, 42).sizes();
            assert!(
                sizes.iter().all(|&s| s > 0),
                "{} at {k} parts: {sizes:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn tiny_graph_more_parts_than_nodes_is_ok() {
        let g = erdos_renyi(8, 12, 1);
        let p = multilevel_partition(&g, 4, 0);
        assert_eq!(p.assignment.len(), 8);
    }
}
