//! Barabási–Albert preferential-attachment generator.
//!
//! Each new node attaches to `m` existing nodes with probability
//! proportional to their current degree, yielding a power-law degree
//! distribution with exponent ≈ 3 and — for small `m` — a large effective
//! diameter. This matches the paper's characterization of `ogbn-arxiv`
//! ("relatively large diameter and small degree").
//!
//! Implementation uses the standard repeated-endpoint trick: maintaining a
//! flat list of edge endpoints and sampling uniformly from it is equivalent
//! to degree-proportional sampling.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate an undirected BA graph with `n` nodes, each new node attaching
/// `m` edges. Requires `n > m` and `m >= 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(m >= 1, "ba: m must be >= 1");
    assert!(n > m, "ba: n must exceed m");
    let mut rng = StdRng::seed_from_u64(seed);

    // Start from a complete graph on m+1 nodes so every seed node
    // already has degree m — a star would strand its leaves at degree 1
    // whenever later attachments never pick them, violating the BA
    // min-degree invariant.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    let mut builder = GraphBuilder::new(n).with_capacity(n * m);
    for i in 0..=m {
        for j in (i + 1)..=m {
            builder.add_edge(i as NodeId, j as NodeId);
            endpoints.push(i as NodeId);
            endpoints.push(j as NodeId);
        }
    }

    let mut picked: Vec<NodeId> = Vec::with_capacity(m);
    for u in (m + 1)..n {
        picked.clear();
        // Sample m distinct targets by degree-proportional draws.
        let mut guard = 0;
        while picked.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
            guard += 1;
            if guard > 64 * m {
                // Degenerate corner (tiny graphs): fall back to any distinct node.
                for cand in 0..u as NodeId {
                    if picked.len() >= m {
                        break;
                    }
                    if !picked.contains(&cand) {
                        picked.push(cand);
                    }
                }
            }
        }
        for &t in &picked {
            builder.add_edge(u as NodeId, t);
            endpoints.push(u as NodeId);
            endpoints.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(barabasi_albert(500, 3, 5), barabasi_albert(500, 3, 5));
    }

    #[test]
    fn edge_count_is_exact() {
        let n = 400;
        let m = 3;
        let g = barabasi_albert(n, m, 1);
        // complete seed graph K_{m+1} edges + (n - m - 1) * m attachments,
        // symmetrized (×2); dedup can only remove if a duplicate pair arose —
        // distinct picks prevent that within a node, and a new node can't
        // re-pick old pairs.
        assert_eq!(g.num_edges(), 2 * (m * (m + 1) / 2 + (n - m - 1) * m));
    }

    #[test]
    fn power_law_hub_exists() {
        let g = barabasi_albert(2000, 2, 9);
        let max = crate::stats::degree_stats(&g).max;
        assert!(max > 20, "BA should grow hubs, got {max}");
    }

    #[test]
    fn min_degree_is_m() {
        let g = barabasi_albert(300, 4, 2);
        let min_deg = g.nodes().map(|u| g.degree(u)).min().unwrap();
        assert!(min_deg >= 4);
    }

    #[test]
    fn tiny_graph() {
        let g = barabasi_albert(3, 1, 0);
        assert_eq!(g.num_nodes(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic]
    fn rejects_n_le_m() {
        barabasi_albert(3, 3, 0);
    }
}
