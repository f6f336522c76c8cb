//! Coarse levels as maps, and heavy-edge-matching coarsening.

use mgnn_graph::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One level of the multilevel hierarchy, kept as a map rather than a
/// graph: the coarse node each input node belongs to, and each coarse
/// node's input members.
///
/// Nothing about a coarse edge is stored. The weight of coarse edge
/// `c → d` is the number of input edges from a member of `c` to a member
/// of `d` (coarsening only ever merges edges or drops internal ones), so
/// every reader aggregates it on the fly from the input graph
/// ([`Level::for_each_cut_edge`], [`Gather`]). A node's weight is its
/// member count. The input level is the identity map.
///
/// What a level does store per coarse node is its count of *internal*
/// edges: input edges between two distinct members. Refinement subtracts
/// it from a node's connection to its own part, which it reads off the
/// per-input-node table (`refine.rs`). Self-loops never cross a cut, so
/// neither that table nor this count includes them.
#[derive(Debug)]
pub(super) struct Level<'g> {
    g: &'g CsrGraph,
    /// Coarse node of each input node.
    of: Vec<u32>,
    /// `members[offsets[c]..offsets[c + 1]]` are coarse node `c`'s input
    /// nodes, ascending.
    offsets: Vec<usize>,
    members: Vec<NodeId>,
    /// Input edges between two distinct members of each coarse node.
    internal: Vec<u32>,
}

impl<'g> Level<'g> {
    /// The input graph itself: every node its own coarse node.
    ///
    /// Panics if `g` has more directed edges than a `u32` edge weight can
    /// count (a caller bug: `NodeId` already caps nodes at `u32`, and no
    /// preset comes within orders of magnitude).
    pub(super) fn input(g: &'g CsrGraph) -> Self {
        assert_weights_fit(g.num_edges());
        let n = g.num_nodes();
        Level::from_parts(g, (0..n as u32).collect(), vec![0; n])
    }

    /// The level whose input → coarse map is `of` (onto `0..max + 1`) and
    /// whose nodes have `internal` edges each: what [`Level::into_parts`]
    /// kept of it. Members are laid out by a counting sort, so each list
    /// is ascending.
    pub(super) fn from_parts(g: &'g CsrGraph, of: Vec<u32>, internal: Vec<u32>) -> Self {
        let num_coarse = of.iter().max().map_or(0, |&c| c as usize + 1);
        let mut offsets = vec![0usize; num_coarse + 1];
        for &c in &of {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..num_coarse {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets[..num_coarse].to_vec();
        let mut members = vec![0; of.len()];
        for (u, &c) in of.iter().enumerate() {
            members[next[c as usize]] = u as NodeId;
            next[c as usize] += 1;
        }
        debug_assert_eq!(internal.len(), num_coarse);
        Level {
            g,
            of,
            offsets,
            members,
            internal,
        }
    }

    /// The input → coarse map and the internal edge counts, all that is
    /// kept of a level until its turn comes on the way back up.
    pub(super) fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.of, self.internal)
    }

    /// The input → coarse map.
    #[inline]
    pub(super) fn map(&self) -> &[u32] {
        &self.of
    }

    /// Number of coarse nodes.
    #[inline]
    pub(super) fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The input graph.
    #[inline]
    pub(super) fn graph(&self) -> &'g CsrGraph {
        self.g
    }

    /// Input nodes merged into coarse node `c`, ascending.
    #[inline]
    pub(super) fn members(&self, c: u32) -> &[NodeId] {
        &self.members[self.offsets[c as usize]..self.offsets[c as usize + 1]]
    }

    /// Node weight of `c`: its member count.
    #[inline]
    pub(super) fn node_weight(&self, c: u32) -> u32 {
        (self.offsets[c as usize + 1] - self.offsets[c as usize]) as u32
    }

    /// Input edges between two distinct members of `c`.
    #[inline]
    pub(super) fn internal(&self, c: u32) -> u32 {
        self.internal[c as usize]
    }

    /// Total node weight: the input's node count.
    pub(super) fn total_weight(&self) -> u64 {
        self.of.len() as u64
    }

    /// Call `f(d)` once for every input edge from a member of `c` to a
    /// member of another coarse node `d`: a coarse edge of weight `w` is
    /// `w` calls, in no particular order. Internal edges (self-loops
    /// included) never cross a cut and are skipped.
    #[inline]
    pub(super) fn for_each_cut_edge(&self, c: u32, mut f: impl FnMut(u32)) {
        for &u in self.members(c) {
            for &v in self.g.neighbors(u) {
                let d = self.of[v as usize];
                if d != c {
                    f(d);
                }
            }
        }
    }

    /// One round of heavy-edge matching: visit coarse nodes in random
    /// order; each unmatched node matches its heaviest-edge unmatched
    /// neighbour, the lowest id on a tie (the first heaviest of an
    /// ascending adjacency list). Matched pairs collapse into one node of
    /// the coarser level, numbered by its smaller member. The edges of a
    /// match become internal: both directions of it, on top of what each
    /// side already held.
    pub(super) fn coarsen(&self, seed: u64) -> Level<'g> {
        let n = self.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));

        let mut matched: Vec<u32> = vec![u32::MAX; n]; // partner or self
        let mut match_weight = vec![0u32; n]; // edges to the partner
        let mut adjacency = Gather::new(n);
        for &c in &order {
            if matched[c as usize] != u32::MAX {
                continue;
            }
            let best = adjacency
                .gather(self, c, |d| matched[d as usize] == u32::MAX)
                .max_by_key(|&(d, w)| (w, std::cmp::Reverse(d)));
            match best {
                Some((d, w)) => {
                    matched[c as usize] = d;
                    matched[d as usize] = c;
                    match_weight[c as usize] = w;
                }
                None => matched[c as usize] = c, // self-match
            }
        }

        // Coarser ids in order of each pair's smaller member.
        let mut to_coarser = vec![u32::MAX; n];
        let mut next = 0u32;
        for c in 0..n {
            if to_coarser[c] == u32::MAX {
                to_coarser[c] = next;
                to_coarser[matched[c] as usize] = next;
                next += 1;
            }
        }
        // A pair's match weight is booked on one side only, so this sums
        // both sides' internal edges plus both directions of the match.
        let mut internal = vec![0u32; next as usize];
        for c in 0..n {
            internal[to_coarser[c] as usize] += self.internal[c] + 2 * match_weight[c];
        }
        let of = self.of.iter().map(|&c| to_coarser[c as usize]).collect();
        Level::from_parts(self.g, of, internal)
    }
}

/// Scratch that sums one coarse node's cut edges into its coarse
/// adjacency, reused from node to node.
pub(super) struct Gather {
    /// Input edges to each coarse node, for the node last gathered.
    weight: Vec<u32>,
    /// Each coarse neighbour of that node once, in first-seen order.
    touched: Vec<u32>,
}

impl Gather {
    /// Scratch for a level of `n` coarse nodes.
    pub(super) fn new(n: usize) -> Self {
        Gather {
            weight: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// The coarse neighbours `d` of `c` for which `keep(d)` holds, each
    /// once with its edge weight, in no particular order.
    pub(super) fn gather(
        &mut self,
        level: &Level,
        c: u32,
        keep: impl Fn(u32) -> bool,
    ) -> impl Iterator<Item = (u32, u32)> + '_ {
        for &d in &self.touched {
            self.weight[d as usize] = 0;
        }
        self.touched.clear();
        let (weight, touched) = (&mut self.weight, &mut self.touched);
        level.for_each_cut_edge(c, |d| {
            if keep(d) {
                if weight[d as usize] == 0 {
                    touched.push(d);
                }
                weight[d as usize] += 1;
            }
        });
        touched.iter().map(|&d| (d, weight[d as usize]))
    }
}

/// Every edge weight, and any sum of them, counts directed edges of the
/// input graph — so `u32` weights are exact as long as this holds.
fn assert_weights_fit(directed_edges: usize) {
    assert!(
        u32::try_from(directed_edges).is_ok(),
        "Level: {directed_edges} directed edges do not fit the partitioner's u32 edge weights"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;

    /// Every coarse edge of `level` with its weight, ascending by source
    /// then target: the graph a materialised level would have held.
    fn coarse_edges(level: &Level) -> Vec<(u32, u32, u32)> {
        let mut gather = Gather::new(level.num_nodes());
        let mut edges = Vec::new();
        for c in 0..level.num_nodes() as u32 {
            let mut row: Vec<_> = gather.gather(level, c, |_| true).collect();
            row.sort_unstable();
            edges.extend(row.into_iter().map(|(d, w)| (c, d, w)));
        }
        edges
    }

    #[test]
    fn weights_conserved() {
        let g = erdos_renyi(500, 2000, 1);
        let coarse = Level::input(&g).coarsen(3);
        assert_eq!(coarse.total_weight(), 500);
        assert!(coarse.num_nodes() < 500);
        let nodes = 0..coarse.num_nodes() as u32;
        assert_eq!(nodes.map(|c| coarse.node_weight(c)).sum::<u32>(), 500);
        assert_eq!(coarse.map().len(), 500);
        assert!(coarse
            .map()
            .iter()
            .all(|&c| (c as usize) < coarse.num_nodes()));
    }

    #[test]
    fn roughly_halves() {
        let g = erdos_renyi(1000, 8000, 2);
        let coarse = Level::input(&g).coarsen(1);
        // Dense ER matches well; expect close to n/2.
        assert!(
            coarse.num_nodes() < 700,
            "coarse size {}",
            coarse.num_nodes()
        );
    }

    #[test]
    fn edge_weight_conserved_for_cross_edges() {
        let g = erdos_renyi(300, 1500, 5);
        let level1 = Level::input(&g).coarsen(7);
        for coarse in [&level1, &level1.coarsen(8)] {
            // Sum of coarse edge weights == number of input directed edges
            // whose endpoints land in different coarse nodes.
            let map = coarse.map();
            let expected = g
                .edges()
                .filter(|&(u, v)| map[u as usize] != map[v as usize])
                .count() as u64;
            let total: u64 = coarse_edges(coarse)
                .iter()
                .map(|&(_, _, w)| u64::from(w))
                .sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn isolated_nodes_self_match() {
        let g = mgnn_graph::GraphBuilder::new(10).build();
        let coarse = Level::input(&g).coarsen(0);
        assert_eq!(coarse.num_nodes(), 10);
        assert!(coarse_edges(&coarse).is_empty());
    }

    #[test]
    fn coarse_neighbor_lists_sorted() {
        // Member lists are ascending, and every coarse adjacency is
        // symmetric: `c → d` and `d → c` carry one weight.
        let g = erdos_renyi(400, 3000, 9);
        let coarse = Level::input(&g).coarsen(2).coarsen(4);
        for c in 0..coarse.num_nodes() as u32 {
            let m = coarse.members(c);
            assert!(m.windows(2).all(|w| w[0] < w[1]), "node {c} unsorted");
        }
        let edges = coarse_edges(&coarse);
        let mut reversed: Vec<_> = edges.iter().map(|&(c, d, w)| (d, c, w)).collect();
        reversed.sort_unstable();
        assert_eq!(edges, reversed);
    }

    #[test]
    fn level_zero_is_a_view_and_coarse_levels_are_exactly_sized() {
        let g = erdos_renyi(600, 4000, 4);
        let level0 = Level::input(&g);
        assert_eq!(level0.num_nodes(), 600);
        assert!((0..600).all(|u| level0.members(u) == [u] && level0.node_weight(u) == 1));
        let unit: Vec<_> = g.edges().map(|(u, v)| (u, v, 1)).collect();
        assert_eq!(coarse_edges(&level0), unit, "the input's own edges");

        let level1 = level0.coarsen(1);
        let level2 = level1.coarsen(2);
        for level in [&level1, &level2] {
            assert_eq!(level.members.len(), 600, "one slot per input node");
            assert_eq!(level.members.capacity(), 600, "no slack");
            assert_eq!(level.offsets.capacity(), level.num_nodes() + 1);
        }
        assert_eq!(level2.total_weight(), 600, "coarse levels coarsen too");
    }

    #[test]
    fn unit_and_explicit_weights_iterate_alike() {
        // A level rebuilt from a map is the level the map came from.
        let g = erdos_renyi(50, 200, 6);
        let level1 = Level::input(&g).coarsen(3);
        let (map, internal) = Level::input(&g).coarsen(3).into_parts();
        let again = Level::from_parts(&g, map, internal);
        assert_eq!(
            (again.offsets.clone(), again.members.clone()),
            (level1.offsets.clone(), level1.members.clone())
        );
        assert_eq!(again.internal, level1.internal);
        assert_eq!(coarse_edges(&again), coarse_edges(&level1));
        assert_eq!(again.coarsen(5).map(), level1.coarsen(5).map());
    }

    #[test]
    fn internal_counts_are_the_edges_inside_each_node() {
        // Three levels deep, on graphs with isolated nodes and with a
        // self-loop (counted by neither side).
        let dense = erdos_renyi(300, 1500, 5);
        let sparse = erdos_renyi(300, 200, 6);
        let looped = CsrGraph::from_parts(vec![0, 1, 2, 4, 5], vec![1, 0, 2, 3, 2]).unwrap();
        for g in [&dense, &sparse, &looped] {
            let mut level = Level::input(g);
            for depth in 0..4 {
                let mut brute = vec![0u32; level.num_nodes()];
                for (u, v) in g.edges() {
                    let c = level.map()[u as usize];
                    if u != v && c == level.map()[v as usize] {
                        brute[c as usize] += 1;
                    }
                }
                let nodes = 0..level.num_nodes() as u32;
                let internal: Vec<u32> = nodes.map(|c| level.internal(c)).collect();
                assert_eq!(internal, brute, "depth {depth}");
                level = level.coarsen(depth);
            }
        }
    }

    #[test]
    fn edge_counts_up_to_u32_max_fit() {
        assert_weights_fit(0);
        assert_weights_fit(u32::MAX as usize);
    }

    #[test]
    #[should_panic(
        expected = "4294967296 directed edges do not fit the partitioner's u32 edge weights"
    )]
    fn more_edges_than_u32_weights_can_count_is_rejected() {
        assert_weights_fit(u32::MAX as usize + 1);
    }
}
