//! Boundary Kernighan–Lin/FM refinement: greedily move boundary nodes to
//! the neighboring part with the best cut gain, subject to a balance
//! constraint, for a bounded number of passes or until no improving move
//! exists.
//!
//! A node's connection to each part is read off a table kept per input
//! node ([`Connections`]), so a pass reads a row per input node instead
//! of every input edge. Only a node the table shows an admissible
//! improving move for has its edges scanned, which settles a gain tie the
//! way the scan always has.

use super::coarsen::Level;
use mgnn_graph::NodeId;

/// For every input node, the number of its neighbours in each part
/// (self-loops left out, as a level's internal counts leave them out).
///
/// It is built once, under the coarsest level's first assignment, and
/// kept up to date by every move. Projecting an assignment to a finer
/// level moves no input node, so one table serves every level. The graph
/// must be symmetric: a move updates the rows of its members' neighbours.
pub(super) struct Connections {
    num_parts: usize,
    /// `counts[u * num_parts + p]`: neighbours of input node `u` in part
    /// `p`.
    counts: Vec<u32>,
}

impl Connections {
    /// The table of `assignment` of `level`'s nodes: one sweep of the
    /// input edges.
    pub(super) fn new(level: &Level, assignment: &[u32], num_parts: usize) -> Self {
        let (g, map) = (level.graph(), level.map());
        let mut counts = vec![0u32; g.num_nodes() * num_parts];
        for (u, row) in (0..).zip(counts.chunks_exact_mut(num_parts)) {
            for &v in g.neighbors(u) {
                if v != u {
                    row[assignment[map[v as usize] as usize] as usize] += 1;
                }
            }
        }
        Connections { num_parts, counts }
    }

    /// Input node `u`'s neighbours in each part.
    #[inline]
    fn row(&self, u: NodeId) -> &[u32] {
        let start = u as usize * self.num_parts;
        &self.counts[start..start + self.num_parts]
    }

    /// Book coarse node `c` of `level` moving from part `from` to `to`:
    /// every neighbour of each member has one neighbour fewer in `from`
    /// and one more in `to`.
    fn moved(&mut self, level: &Level, c: u32, from: u32, to: u32) {
        let g = level.graph();
        for &m in level.members(c) {
            for &v in g.neighbors(m) {
                if v != m {
                    let row = v as usize * self.num_parts;
                    self.counts[row + from as usize] -= 1;
                    self.counts[row + to as usize] += 1;
                }
            }
        }
    }
}

/// Refine `assignment` of `level`'s nodes in place; `connections` must be
/// the table of that assignment, and is kept so. `eps` is the balance
/// tolerance (max part weight ≤ (1+eps)·ideal); `max_passes` bounds work.
pub(super) fn refine(
    level: &Level,
    assignment: &mut [u32],
    connections: &mut Connections,
    eps: f64,
    max_passes: usize,
) {
    let n = level.num_nodes();
    let num_parts = connections.num_parts;
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

    // Scratch, reused by every node of every pass: `u`'s edges to each
    // part as the table sums them; and, for the edge scan, the same
    // counts, the lowest neighbour `u` has in each part and the parts it
    // touches.
    let mut sum = vec![0u32; num_parts];
    let mut conn = vec![0u32; num_parts];
    let mut lowest = vec![0u32; num_parts];
    let mut touched: Vec<u32> = Vec::with_capacity(num_parts);
    for _ in 0..max_passes {
        let mut moved = 0usize;
        for u in 0..n as u32 {
            let from = assignment[u as usize];
            let weight = u64::from(level.node_weight(u));
            // Never empty a partition below one node-weight unit.
            if part_weight[from as usize] <= weight {
                continue;
            }
            // Input edges from `u`'s members to each part; to its own
            // part, less the edges that stay inside `u`.
            sum.fill(0);
            for &m in level.members(u) {
                for (s, &x) in sum.iter_mut().zip(connections.row(m)) {
                    *s += x;
                }
            }
            let internal = sum[from as usize] - level.internal(u);
            let improves = (0..num_parts)
                .any(|p| p != from as usize && sum[p] > internal && part_weight[p] + weight <= cap);
            if !improves {
                continue;
            }
            // The edge scan, to settle a gain tie: it goes to the part
            // whose lowest neighbour comes first — the first such part of
            // an ascending adjacency list.
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
            // The gain of a move to `p` is `conn[p] - internal`, so the
            // best move has the most edges into its part.
            let mut best: Option<(u32, u32, u32)> = None;
            for &p in &touched {
                let (edges, first) = (conn[p as usize], lowest[p as usize]);
                if p != from
                    && edges > internal
                    && part_weight[p as usize] + weight <= cap
                    && best.is_none_or(|(be, bf, _)| edges > be || (edges == be && first < bf))
                {
                    best = Some((edges, first, p));
                }
            }
            for &p in &touched {
                conn[p as usize] = 0;
            }
            let (_, _, to) = best.expect("the table shows an improving move");
            assignment[u as usize] = to;
            part_weight[from as usize] -= weight;
            part_weight[to as usize] += weight;
            connections.moved(level, u, from, to);
            moved += 1;
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::tests::{random_parts, shaped_graph};
    use crate::quality::edge_cut;
    use crate::random::random_partition;
    use crate::Partitioning;
    use mgnn_graph::generators::{sbm, SbmParams};
    use mgnn_graph::GraphBuilder;
    use proptest::prelude::*;

    /// `refine` as it was before the connection table: every pass scans
    /// every node's cut edges. Kept as the bit-for-bit reference of the
    /// moves, their order and the tie-break.
    fn refine_reference(
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

        let mut conn = vec![0u64; num_parts];
        let mut lowest = vec![0u32; num_parts];
        let mut touched: Vec<u32> = Vec::with_capacity(num_parts);
        for _ in 0..max_passes {
            let mut moved = 0usize;
            for u in 0..n as u32 {
                let from = assignment[u as usize];
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
                let internal = conn[from as usize];
                let weight = u64::from(level.node_weight(u));
                let mut best: Option<(i64, u32, u32)> = None;
                for &p in &touched {
                    if p == from {
                        continue;
                    }
                    let gain = conn[p as usize] as i64 - internal as i64;
                    let fits = part_weight[p as usize] + weight <= cap;
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

    /// Refine with a table built for the occasion.
    fn refine_fresh(level: &Level, a: &mut [u32], num_parts: usize, passes: usize) {
        let mut connections = Connections::new(level, a, num_parts);
        refine(level, a, &mut connections, 0.05, passes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The multilevel driver's way back, on both refinements: a random
        /// assignment of a level up to three coarsenings deep, refined,
        /// projected one level finer and refined again down to the
        /// input. The table is built once, at the top, and must still be
        /// the assignment's at the bottom.
        #[test]
        fn the_table_driven_refinement_moves_what_the_edge_scan_moves(
            shape in 0u8..5,
            n in 16usize..240,
            num_parts in 2usize..9,
            depth in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let g = shaped_graph(shape, n, seed);
            let mut levels = vec![Level::input(&g)];
            for l in 0..depth {
                let coarser = levels[l].coarsen(seed ^ l as u64);
                levels.push(coarser);
            }
            let top = levels.last().unwrap();
            let mut reference = random_parts(top.num_nodes(), num_parts, seed);
            let mut fast = reference.clone();
            let mut connections = Connections::new(top, &fast, num_parts);
            for l in (0..levels.len()).rev() {
                let level = &levels[l];
                refine_reference(level, &mut reference, num_parts, 0.05, 4);
                refine(level, &mut fast, &mut connections, 0.05, 4);
                prop_assert_eq!(&fast, &reference, "level {}", l);
                if l > 0 {
                    let project = |a: &[u32]| {
                        let mut finer = vec![0; levels[l - 1].num_nodes()];
                        for (&f, &c) in levels[l - 1].map().iter().zip(level.map()) {
                            finer[f as usize] = a[c as usize];
                        }
                        finer
                    };
                    reference = project(&reference);
                    fast = project(&fast);
                }
            }
            prop_assert!(connections.counts == Connections::new(&levels[0], &fast, num_parts).counts);
        }
    }

    #[test]
    fn a_gain_tie_goes_to_the_part_of_the_lowest_neighbour() {
        // Node 0 (part 0) has one neighbour in part 2 (node 3) and one in
        // part 1 (node 5), and none at home: gain 1 either way. Part 2
        // holds the lower neighbour, so it wins over the lower part id.
        let mut b = GraphBuilder::new(9);
        for (u, v) in [(0, 3), (0, 5), (3, 4), (5, 6), (1, 2), (7, 8)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let level = Level::input(&g);
        let start = vec![0, 0, 0, 2, 2, 1, 1, 1, 2];
        let mut reference = start.clone();
        refine_reference(&level, &mut reference, 3, 0.05, 1);
        let mut fast = start;
        refine_fresh(&level, &mut fast, 3, 1);
        assert_eq!(fast[0], 2);
        assert_eq!(fast, reference);
    }

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
        refine_fresh(&level, &mut p.assignment, 2, 8);
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
        refine_fresh(&coarse, &mut a, 2, 8);
        assert!(project(&a) < before);
    }

    #[test]
    fn respects_balance() {
        let g = mgnn_graph::generators::erdos_renyi(500, 3000, 2);
        let level = Level::input(&g);
        let mut a = random_partition(&g, 4, 2).assignment;
        refine_fresh(&level, &mut a, 4, 8);
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
        refine_fresh(&Level::input(&g), &mut a, 1, 4);
        assert!(a.iter().all(|&p| p == 0));
    }
}
