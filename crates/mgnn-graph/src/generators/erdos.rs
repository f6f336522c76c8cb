//! Erdős–Rényi G(n, m) generator: `m` undirected edges sampled uniformly
//! without structural bias. Homogeneous degrees (Poisson-like), no hubs —
//! the opposite regime from R-MAT/BA, useful both as a baseline in tests and
//! blended into the reddit-like preset (reddit's degree distribution has a
//! very dense, comparatively flat core).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate an undirected G(n, m) graph (approximately `m` edges before
/// dedup; duplicates are merged so the final count can be slightly lower,
/// then doubled by symmetrization).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2, "erdos_renyi: need at least 2 nodes");
    let chunk = 1 << 14;
    // Each run of `chunk` edges is its own RNG stream, drawn straight
    // into the builder.
    let mut b = GraphBuilder::new(n).with_capacity(m);
    b.extend_chunked(m, chunk, |ci, out| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0xd1b5_4a32_d192_ed03u64.wrapping_mul(ci as u64 + 1)));
        let mut filled = 0;
        while filled < out.len() {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                out[filled] = (u, v);
                filled += 1;
            }
        }
    });
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
