//! Boundary Kernighan–Lin/FM refinement: greedily move boundary nodes to
//! the neighboring part with the best cut gain, subject to a balance
//! constraint, for a bounded number of passes or until no improving move
//! exists.

use super::coarsen::WGraph;
use mgnn_graph::NodeId;

/// Refine `assignment` in place. `eps` is the balance tolerance
/// (max part weight ≤ (1+eps)·ideal); `max_passes` bounds work.
pub fn refine(g: &WGraph, assignment: &mut [u32], num_parts: usize, eps: f64, max_passes: usize) {
    let n = g.num_nodes();
    if n == 0 || num_parts <= 1 {
        return;
    }
    let total = g.total_weight();
    let ideal = total as f64 / num_parts as f64;
    let cap = ((1.0 + eps) * ideal).ceil() as u64;

    let mut part_weight = vec![0u64; num_parts];
    for (u, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += u64::from(g.node_weight(u as NodeId));
    }

    // Scratch, reused by every node of every pass: connection weight from
    // a node to each part, and the parts it touches.
    let mut conn = vec![0u64; num_parts];
    let mut touched: Vec<u32> = Vec::with_capacity(num_parts);
    for _ in 0..max_passes {
        let mut moved = 0usize;
        for u in 0..n as NodeId {
            let from = assignment[u as usize];
            if g.neighbors(u).is_empty() {
                continue;
            }
            // Compute connectivity to each adjacent part.
            touched.clear();
            g.for_each_edge(u, |v, w| {
                let p = assignment[v as usize];
                if conn[p as usize] == 0 {
                    touched.push(p);
                }
                conn[p as usize] += u64::from(w);
            });
            // Only boundary nodes (with a neighbor in another part) matter.
            let internal = conn[from as usize];
            let weight = u64::from(g.node_weight(u));
            let mut best: Option<(i64, u32)> = None;
            for &p in &touched {
                if p == from {
                    continue;
                }
                let gain = conn[p as usize] as i64 - internal as i64;
                let fits = part_weight[p as usize] + weight <= cap;
                // Also never empty a partition below one node-weight unit.
                let keeps_source = part_weight[from as usize] > weight;
                if gain > 0 && fits && keeps_source && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, p));
                }
            }
            if let Some((_, p)) = best {
                assignment[u as usize] = p;
                part_weight[from as usize] -= weight;
                part_weight[p as usize] += weight;
                moved += 1;
            }
            for &p in &touched {
                conn[p as usize] = 0;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Weighted edge cut of `assignment` over `g` (each directed cross edge
/// counted once; for symmetric graphs the undirected cut is half this).
pub fn weighted_cut(g: &WGraph, assignment: &[u32]) -> u64 {
    let mut cut = 0u64;
    for u in 0..g.num_nodes() as NodeId {
        g.for_each_edge(u, |v, w| {
            if assignment[u as usize] != assignment[v as usize] {
                cut += u64::from(w);
            }
        });
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::coarsen::WGraph;
    use crate::random::random_partition;
    use mgnn_graph::generators::{sbm, SbmParams};

    #[test]
    fn refinement_never_increases_cut() {
        let g = sbm(
            400,
            SbmParams {
                communities: 2,
                p_in: 0.05,
                p_out: 0.01,
            },
            1,
        );
        let wg = WGraph::from_csr(&g);
        let mut a = random_partition(&g, 2, 1).assignment;
        let before = weighted_cut(&wg, &a);
        refine(&wg, &mut a, 2, 0.05, 8);
        let after = weighted_cut(&wg, &a);
        assert!(after <= before, "cut {after} > {before}");
        assert!(after < before, "refinement should improve a random cut");
    }

    #[test]
    fn respects_balance() {
        let g = mgnn_graph::generators::erdos_renyi(500, 3000, 2);
        let wg = WGraph::from_csr(&g);
        let mut a = random_partition(&g, 4, 2).assignment;
        refine(&wg, &mut a, 4, 0.05, 8);
        let mut w = vec![0u64; 4];
        for (u, &p) in a.iter().enumerate() {
            w[p as usize] += u64::from(wg.node_weight(u as u32));
        }
        let cap = (125.0f64 * 1.05).ceil() as u64;
        for &x in &w {
            assert!(x <= cap, "part weight {x} exceeds cap {cap}");
        }
    }

    #[test]
    fn noop_on_single_part() {
        let g = mgnn_graph::generators::erdos_renyi(100, 400, 3);
        let wg = WGraph::from_csr(&g);
        let mut a = vec![0u32; 100];
        refine(&wg, &mut a, 1, 0.05, 4);
        assert!(a.iter().all(|&p| p == 0));
    }
}
