//! Erdős–Rényi G(n, m) generator: `m` undirected edges sampled uniformly
//! without structural bias. Homogeneous degrees (Poisson-like), no hubs —
//! the opposite regime from R-MAT/BA, useful both as a baseline in tests and
//! blended into the reddit-like preset (reddit's degree distribution has a
//! very dense, comparatively flat core).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Generate an undirected G(n, m) graph (approximately `m` edges before
/// dedup; duplicates are merged so the final count can be slightly lower,
/// then doubled by symmetrization).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2, "erdos_renyi: need at least 2 nodes");
    let chunk = 1 << 14;
    let num_chunks = m.div_ceil(chunk);
    let edge_chunks: Vec<Vec<(NodeId, NodeId)>> = (0..num_chunks)
        .into_par_iter()
        .map(|ci| {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0xd1b5_4a32_d192_ed03u64.wrapping_mul(ci as u64 + 1)),
            );
            let count = chunk.min(m - ci * chunk);
            let mut out = Vec::with_capacity(count);
            while out.len() < count {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    out.push((u, v));
                }
            }
            out
        })
        .collect();
    let mut b = GraphBuilder::new(n).with_capacity(2 * m);
    for ch in edge_chunks {
        b.extend(ch);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 7), erdos_renyi(100, 300, 7));
    }

    #[test]
    fn shape() {
        let g = erdos_renyi(1000, 5000, 3);
        assert_eq!(g.num_nodes(), 1000);
        // ~2*5000 directed edges, minus a small dedup/self-loop loss.
        assert!(g.num_edges() > 9000 && g.num_edges() <= 10_000);
        assert!(g.is_symmetric());
    }

    #[test]
    fn homogeneous_degrees() {
        let g = erdos_renyi(2000, 20_000, 5);
        // Max degree should be within a modest factor of the mean for ER.
        assert!((crate::stats::degree_stats(&g).max as f64) < 3.5 * g.avg_degree());
    }

    #[test]
    fn minimum_size() {
        let g = erdos_renyi(2, 1, 0);
        assert_eq!(g.num_edges(), 2);
    }
}
