//! R-MAT (Recursive MATrix) generator, Graph500 style.
//!
//! Each edge is drawn by descending `log2(n)` levels of a 2×2 probability
//! matrix `[a b; c d]`; the classic Graph500 setting `a=0.57, b=0.19,
//! c=0.19, d=0.05` yields a heavy-tailed degree distribution similar to web
//! and co-purchase graphs. Edge generation is embarrassingly parallel and
//! deterministic: each rayon chunk derives its RNG from `(seed, chunk_id)`.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities plus noise.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Probability of the (0,0) quadrant.
    pub a: f64,
    /// Probability of the (0,1) quadrant.
    pub b: f64,
    /// Probability of the (1,0) quadrant.
    pub c: f64,
    /// Per-level multiplicative noise on the quadrant probabilities,
    /// in `[0, 1)`; Graph500 uses 0.1 to smooth the distribution.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500 reference parameters.
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }
}

impl RmatParams {
    /// The implied (1,1) quadrant probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generate an undirected R-MAT graph with `n` nodes (rounded up internally
/// to a power of two for quadrant descent, then mapped back down by
/// rejection) and approximately `m` undirected edges before dedup.
pub fn rmat(n: usize, m: usize, params: RmatParams, seed: u64) -> CsrGraph {
    assert!(n > 0, "rmat: n must be positive");
    let levels = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
    let chunk = 1 << 14;

    // Each run of `chunk` edges is its own RNG stream, drawn straight
    // into the builder; the second half of the reservation is for the
    // reversed copies `build` appends.
    let mut b = GraphBuilder::new(n).with_capacity(m * 2);
    b.extend_chunked(m, chunk, |ci, out| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ci as u64 + 1)));
        let mut filled = 0;
        while filled < out.len() {
            let (u, v) = sample_edge(&mut rng, levels, &params);
            if (u as usize) < n && (v as usize) < n && u != v {
                out[filled] = (u, v);
                filled += 1;
            }
        }
    });
    b.build()
}

fn sample_edge(rng: &mut StdRng, levels: usize, p: &RmatParams) -> (NodeId, NodeId) {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..levels {
        // Per-level noisy quadrant probabilities.
        let jitter = |x: f64, r: &mut StdRng| {
            let f = 1.0 + p.noise * (r.gen::<f64>() * 2.0 - 1.0);
            x * f
        };
        let a = jitter(p.a, rng);
        let b = jitter(p.b, rng);
        let c = jitter(p.c, rng);
        let d = jitter(p.d(), rng);
        let r = rng.gen::<f64>() * (a + b + c + d);
        // Quadrant (0,0) lies below a, (0,1) below a + b, (1,0) below
        // a + b + c and (1,1) above; with b, c ≥ 0 the bits are two
        // comparisons each, not a chain of branches.
        let (ab, abc) = (a + b, a + b + c);
        u = (u << 1) | u64::from(r >= ab);
        v = (v << 1) | u64::from((r >= a && r < ab) || r >= abc);
    }
    (u as NodeId, v as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branch chain `sample_edge` replaced: same draws, same sums.
    fn sample_edge_by_branches(
        rng: &mut StdRng,
        levels: usize,
        p: &RmatParams,
    ) -> (NodeId, NodeId) {
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        for _ in 0..levels {
            let jitter = |x: f64, r: &mut StdRng| {
                let f = 1.0 + p.noise * (r.gen::<f64>() * 2.0 - 1.0);
                x * f
            };
            let a = jitter(p.a, rng);
            let b = jitter(p.b, rng);
            let c = jitter(p.c, rng);
            let d = jitter(p.d(), rng);
            let sum = a + b + c + d;
            let r = rng.gen::<f64>() * sum;
            u <<= 1;
            v <<= 1;
            if r < a {
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u as NodeId, v as NodeId)
    }

    proptest! {
        #[test]
        fn comparisons_pick_the_quadrants_the_branches_picked(
            a in 0.0f64..0.7,
            b in 0.0f64..0.3,
            c in 0.0f64..0.3,
            noise in 0.0f64..0.99,
            levels in 1usize..21,
            seed in 0u64..u64::MAX,
        ) {
            let p = RmatParams { a, b, c, noise };
            let mut fast = StdRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            for _ in 0..64 {
                prop_assert_eq!(
                    sample_edge(&mut fast, levels, &p),
                    sample_edge_by_branches(&mut reference, levels, &p)
                );
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g1 = rmat(1000, 5000, RmatParams::default(), 42);
        let g2 = rmat(1000, 5000, RmatParams::default(), 42);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = rmat(1000, 5000, RmatParams::default(), 1);
        let g2 = rmat(1000, 5000, RmatParams::default(), 2);
        assert_ne!(g1, g2);
    }

    #[test]
    fn basic_shape() {
        let g = rmat(2048, 10_000, RmatParams::default(), 7);
        assert_eq!(g.num_nodes(), 2048);
        assert!(g.num_edges() > 10_000); // symmetrized, some dedup loss
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn heavy_tail_present() {
        let g = rmat(4096, 40_000, RmatParams::default(), 3);
        // A heavy-tailed graph's max degree vastly exceeds its average.
        assert!(crate::stats::degree_stats(&g).max as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    fn non_power_of_two_n() {
        let g = rmat(1500, 6000, RmatParams::default(), 9);
        assert_eq!(g.num_nodes(), 1500);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn no_self_loops() {
        let g = rmat(512, 4000, RmatParams::default(), 11);
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
        }
    }
}
