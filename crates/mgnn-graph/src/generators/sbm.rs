//! Stochastic block model: `k` equal-size communities, intra-community edge
//! probability `p_in`, inter-community `p_out`. When `p_in >> p_out` the
//! planted partition is the ground-truth optimum, which makes SBM graphs the
//! natural fixture for partitioner-quality tests (a good partitioner should
//! recover a cut close to the planted one).
//!
//! Edges are sampled by expected count per block pair rather than per-pair
//! Bernoulli trials, keeping generation O(edges) instead of O(n²).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stochastic block model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SbmParams {
    /// Number of communities; nodes are assigned round-robin-free,
    /// contiguously: community `c` owns nodes `[c*n/k, (c+1)*n/k)`.
    pub communities: usize,
    /// Intra-community edge probability.
    pub p_in: f64,
    /// Inter-community edge probability.
    pub p_out: f64,
}

/// Generate an undirected SBM graph with `n` nodes.
pub fn sbm(n: usize, params: SbmParams, seed: u64) -> CsrGraph {
    let k = params.communities;
    assert!(
        k >= 1 && n >= k,
        "sbm: need at least one node per community"
    );
    assert!((0.0..=1.0).contains(&params.p_in) && (0.0..=1.0).contains(&params.p_out));
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds: Vec<usize> = (0..=k).map(|c| c * n / k).collect();
    let mut b = GraphBuilder::new(n);

    for ci in 0..k {
        for cj in ci..k {
            let (si, ei) = (bounds[ci], bounds[ci + 1]);
            let (sj, ej) = (bounds[cj], bounds[cj + 1]);
            let ni = ei - si;
            let nj = ej - sj;
            let pairs = if ci == cj {
                ni * (ni.saturating_sub(1)) / 2
            } else {
                ni * nj
            };
            let p = if ci == cj { params.p_in } else { params.p_out };
            let expected = (pairs as f64 * p).round() as usize;
            for _ in 0..expected {
                let u = rng.gen_range(si..ei) as NodeId;
                let v = rng.gen_range(sj..ej) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = SbmParams {
            communities: 4,
            p_in: 0.05,
            p_out: 0.001,
        };
        assert_eq!(sbm(400, p, 1), sbm(400, p, 1));
    }

    #[test]
    fn intra_edges_dominate() {
        let p = SbmParams {
            communities: 4,
            p_in: 0.1,
            p_out: 0.001,
        };
        let n = 400;
        let g = sbm(n, p, 3);
        let mut intra = 0usize;
        let mut inter = 0usize;
        // 4 divides n, so community c owns exactly [c * n / 4, (c + 1) * n / 4).
        for (u, v) in g.edges() {
            if u as usize * 4 / n == v as usize * 4 / n {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn single_community_is_er_like() {
        let p = SbmParams {
            communities: 1,
            p_in: 0.05,
            p_out: 0.0,
        };
        let g = sbm(200, p, 9);
        assert!(g.num_edges() > 0);
        assert!(g.validate().is_ok());
    }
}
