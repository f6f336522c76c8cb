//! Boundary Kernighan–Lin/FM refinement: greedily move boundary nodes to
//! the neighboring part with the best cut gain, subject to a balance
//! constraint, for a bounded number of passes or until no improving move
//! exists.

use super::coarsen::Level;

/// Refine `assignment` of `level`'s nodes in place. `eps` is the balance
/// tolerance (max part weight ≤ (1+eps)·ideal); `max_passes` bounds work.
pub(super) fn refine(
    level: &Level,
    assignment: &mut [u32],
    num_parts: usize,
    eps: f64,
    max_passes: usize,
) {
    let n = level.num_nodes();
    if n == 0 || num_parts <= 1 {
        return;
    }
    let total = level.total_weight();
    let ideal = total as f64 / num_parts as f64;
    let cap = ((1.0 + eps) * ideal).ceil() as u64;

    let mut part_weight = vec![0u64; num_parts];
    for (u, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += u64::from(level.node_weight(u as u32));
    }

    // Scratch, reused by every node of every pass: connection weight from
    // a node to each part, the lowest neighbour it has there, and the
    // parts it touches.
    let mut conn = vec![0u64; num_parts];
    let mut lowest = vec![0u32; num_parts];
    let mut touched: Vec<u32> = Vec::with_capacity(num_parts);
    for _ in 0..max_passes {
        let mut moved = 0usize;
        for u in 0..n as u32 {
            let from = assignment[u as usize];
            // Compute connectivity to each adjacent part.
            touched.clear();
            level.for_each_cut_edge(u, |v| {
                let p = assignment[v as usize];
                if conn[p as usize] == 0 {
                    touched.push(p);
                    lowest[p as usize] = v;
                } else {
                    lowest[p as usize] = lowest[p as usize].min(v);
                }
                conn[p as usize] += 1;
            });
            // Only boundary nodes (with a neighbor in another part) matter.
            let internal = conn[from as usize];
            let weight = u64::from(level.node_weight(u));
            // Best gain; on a tie the part whose lowest neighbour comes
            // first — the first such part of an ascending adjacency list.
            let mut best: Option<(i64, u32, u32)> = None;
            for &p in &touched {
                if p == from {
                    continue;
                }
                let gain = conn[p as usize] as i64 - internal as i64;
                let fits = part_weight[p as usize] + weight <= cap;
                // Also never empty a partition below one node-weight unit.
                let keeps_source = part_weight[from as usize] > weight;
                let first = lowest[p as usize];
                if gain > 0
                    && fits
                    && keeps_source
                    && best.is_none_or(|(bg, bf, _)| gain > bg || (gain == bg && first < bf))
                {
                    best = Some((gain, first, p));
                }
            }
            if let Some((_, _, p)) = best {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::edge_cut;
    use crate::random::random_partition;
    use crate::Partitioning;
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
        let level = Level::input(&g);
        let mut p = random_partition(&g, 2, 1);
        let before = edge_cut(&g, &p);
        refine(&level, &mut p.assignment, 2, 0.05, 8);
        let after = edge_cut(&g, &p);
        assert!(after <= before, "cut {after} > {before}");
        assert!(after < before, "refinement should improve a random cut");

        // On a coarse level too: its cut is the input cut of the
        // assignment projected back onto the input nodes.
        let coarse = level.coarsen(2);
        let project = |a: &[u32]| {
            let input = coarse.map().iter().map(|&c| a[c as usize]).collect();
            edge_cut(&g, &Partitioning::new(input, 2))
        };
        let mut a: Vec<u32> = (0..coarse.num_nodes() as u32).map(|c| c % 2).collect();
        let before = project(&a);
        refine(&coarse, &mut a, 2, 0.05, 8);
        assert!(project(&a) < before);
    }

    #[test]
    fn respects_balance() {
        let g = mgnn_graph::generators::erdos_renyi(500, 3000, 2);
        let level = Level::input(&g);
        let mut a = random_partition(&g, 4, 2).assignment;
        refine(&level, &mut a, 4, 0.05, 8);
        let mut w = vec![0u64; 4];
        for (u, &p) in a.iter().enumerate() {
            w[p as usize] += u64::from(level.node_weight(u as u32));
        }
        let cap = (125.0f64 * 1.05).ceil() as u64;
        for &x in &w {
            assert!(x <= cap, "part weight {x} exceeds cap {cap}");
        }
    }

    #[test]
    fn noop_on_single_part() {
        let g = mgnn_graph::generators::erdos_renyi(100, 400, 3);
        let mut a = vec![0u32; 100];
        refine(&Level::input(&g), &mut a, 1, 0.05, 4);
        assert!(a.iter().all(|&p| p == 0));
    }
}
