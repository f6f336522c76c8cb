//! Weighted graphs and heavy-edge-matching coarsening.

use mgnn_graph::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

/// A weighted CSR graph used during coarsening: node weights count how many
/// original nodes a coarse node represents; edge weights count how many
/// original edges an aggregate edge represents.
///
/// Level 0 is a *view*: it borrows the input graph's arrays and carries no
/// weight arrays at all (every weight is 1). Coarser levels own exactly
/// sized arrays. Weights are `u32`: a node weight is bounded by the input's
/// node count and an edge weight — even the sum of all of them — by its
/// directed edge count, which [`WGraph::from_csr`] checks fits.
#[derive(Debug)]
pub struct WGraph<'a> {
    offsets: Cow<'a, [u64]>,
    targets: Cow<'a, [NodeId]>,
    /// Aligned with `targets`; `None` = unit weights.
    eweights: Option<Vec<u32>>,
    /// One per node; `None` = unit weights.
    nweights: Option<Vec<u32>>,
}

impl<'a> WGraph<'a> {
    /// View an unweighted CSR graph as a unit-weight level, copying
    /// nothing.
    ///
    /// Panics if `g` has more directed edges than a `u32` weight can count
    /// (a caller bug: `NodeId` already caps nodes at `u32`, and no preset
    /// comes within orders of magnitude).
    pub fn from_csr(g: &'a CsrGraph) -> Self {
        assert_weights_fit(g.num_edges());
        WGraph {
            offsets: Cow::Borrowed(g.offsets()),
            targets: Cow::Borrowed(g.targets()),
            eweights: None,
            nweights: None,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn edge_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }

    /// Neighbor ids of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.edge_range(u)]
    }

    /// Call `f(v, w)` for every edge `u → v` of weight `w`, in adjacency
    /// order. The unit-weight case is decided once per node, not per edge.
    #[inline]
    pub fn for_each_edge(&self, u: NodeId, mut f: impl FnMut(NodeId, u32)) {
        let range = self.edge_range(u);
        match &self.eweights {
            None => {
                for &v in &self.targets[range] {
                    f(v, 1);
                }
            }
            Some(weights) => {
                for (&v, &w) in self.targets[range.clone()].iter().zip(&weights[range]) {
                    f(v, w);
                }
            }
        }
    }

    /// Node weight of `u`.
    #[inline]
    pub fn node_weight(&self, u: NodeId) -> u32 {
        self.nweights.as_ref().map_or(1, |w| w[u as usize])
    }

    /// Total node weight.
    pub fn total_weight(&self) -> u64 {
        match &self.nweights {
            None => self.num_nodes() as u64,
            Some(w) => w.iter().map(|&x| u64::from(x)).sum(),
        }
    }
}

/// Every edge weight, and any sum of them, counts directed edges of the
/// input graph — so `u32` weights are exact as long as this holds.
fn assert_weights_fit(directed_edges: usize) {
    assert!(
        u32::try_from(directed_edges).is_ok(),
        "WGraph: {directed_edges} directed edges do not fit the partitioner's u32 edge weights"
    );
}

/// One round of heavy-edge matching: visit nodes in random order; each
/// unmatched node matches its heaviest-edge unmatched neighbor. Matched
/// pairs collapse into one coarse node. Returns the coarser graph and the
/// fine→coarse node map.
pub fn coarsen_once(g: &WGraph, seed: u64) -> (WGraph<'static>, Vec<u32>) {
    let n = g.num_nodes();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));

    let mut matched: Vec<u32> = vec![u32::MAX; n]; // partner or self
    for &u in &order {
        if matched[u as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(NodeId, u32)> = None;
        g.for_each_edge(u, |v, w| {
            if v != u && matched[v as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((v, w));
            }
        });
        match best {
            Some((v, _)) => {
                matched[u as usize] = v;
                matched[v as usize] = u;
            }
            None => matched[u as usize] = u, // self-match
        }
    }

    // Assign coarse ids: the smaller endpoint of each pair owns the id
    // and is recorded as the coarse node's first member.
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut first_member: Vec<NodeId> = Vec::with_capacity(n.div_ceil(2));
    for u in 0..n as u32 {
        if fine_to_coarse[u as usize] != u32::MAX {
            continue;
        }
        let next = first_member.len() as u32;
        let partner = matched[u as usize];
        fine_to_coarse[u as usize] = next;
        if partner != u {
            fine_to_coarse[partner as usize] = next;
        }
        first_member.push(u);
    }
    let cn = first_member.len();
    // The (one or two) fine members of coarse node `cu`, ascending.
    let members = |cu: usize| {
        let u = first_member[cu];
        let partner = matched[u as usize];
        std::iter::once(u).chain((partner != u).then_some(partner))
    };

    // Aggregate node weights.
    let mut nweights = vec![0u32; cn];
    for u in 0..n {
        nweights[fine_to_coarse[u] as usize] += g.node_weight(u as NodeId);
    }

    // Count each coarse node's distinct coarse neighbors first, so the
    // edge arrays are allocated at their final size.
    let mut offsets = vec![0u64; cn + 1];
    let mut seen_by: Vec<u32> = vec![u32::MAX; cn];
    for cu in 0..cn {
        let mut distinct = 0u64;
        for u in members(cu) {
            for &v in g.neighbors(u) {
                let cv = fine_to_coarse[v as usize] as usize;
                if cv != cu && seen_by[cv] != cu as u32 {
                    seen_by[cv] = cu as u32;
                    distinct += 1;
                }
            }
        }
        offsets[cu + 1] = offsets[cu] + distinct;
    }

    // Aggregate edges. Accumulate per coarse source with a scatter map.
    let coarse_edges = offsets[cn] as usize;
    let mut targets: Vec<NodeId> = Vec::with_capacity(coarse_edges);
    let mut eweights: Vec<u32> = Vec::with_capacity(coarse_edges);
    let mut acc: Vec<u32> = vec![0; cn]; // scratch: weight accumulator per coarse target
    let mut touched: Vec<NodeId> = Vec::new();
    for cu in 0..cn {
        for u in members(cu) {
            g.for_each_edge(u, |v, w| {
                let cv = fine_to_coarse[v as usize];
                if cv as usize == cu {
                    return; // collapsed internal edge
                }
                if acc[cv as usize] == 0 {
                    touched.push(cv);
                }
                acc[cv as usize] += w;
            });
        }
        touched.sort_unstable();
        for &cv in &touched {
            targets.push(cv);
            eweights.push(acc[cv as usize]);
            acc[cv as usize] = 0;
        }
        touched.clear();
        debug_assert_eq!(targets.len() as u64, offsets[cu + 1]);
    }

    (
        WGraph {
            offsets: Cow::Owned(offsets),
            targets: Cow::Owned(targets),
            eweights: Some(eweights),
            nweights: Some(nweights),
        },
        fine_to_coarse,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;

    fn total_edge_weight(g: &WGraph) -> u64 {
        let mut total = 0u64;
        for u in 0..g.num_nodes() as NodeId {
            g.for_each_edge(u, |_, w| total += u64::from(w));
        }
        total
    }

    #[test]
    fn weights_conserved() {
        let g = erdos_renyi(500, 2000, 1);
        let wg = WGraph::from_csr(&g);
        let (coarse, map) = coarsen_once(&wg, 3);
        assert_eq!(coarse.total_weight(), 500);
        assert!(coarse.num_nodes() < 500);
        assert_eq!(map.len(), 500);
        assert!(map.iter().all(|&c| (c as usize) < coarse.num_nodes()));
    }

    #[test]
    fn roughly_halves() {
        let g = erdos_renyi(1000, 8000, 2);
        let wg = WGraph::from_csr(&g);
        let (coarse, _) = coarsen_once(&wg, 1);
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
        let wg = WGraph::from_csr(&g);
        let (coarse, map) = coarsen_once(&wg, 7);
        // Sum of coarse edge weights == number of fine directed edges whose
        // endpoints land in different coarse nodes.
        let mut expected = 0u64;
        for (u, v) in g.edges() {
            if map[u as usize] != map[v as usize] {
                expected += 1;
            }
        }
        assert_eq!(total_edge_weight(&coarse), expected);
    }

    #[test]
    fn isolated_nodes_self_match() {
        let g = mgnn_graph::GraphBuilder::new(10).build();
        let wg = WGraph::from_csr(&g);
        let (coarse, _) = coarsen_once(&wg, 0);
        assert_eq!(coarse.num_nodes(), 10);
        assert!(coarse.targets.is_empty());
    }

    #[test]
    fn coarse_neighbor_lists_sorted() {
        let g = erdos_renyi(400, 3000, 9);
        let wg = WGraph::from_csr(&g);
        let (coarse, _) = coarsen_once(&wg, 2);
        for u in 0..coarse.num_nodes() as u32 {
            let nb = coarse.neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "node {u} unsorted");
        }
    }

    #[test]
    fn level_zero_is_a_view_and_coarse_levels_are_exactly_sized() {
        let g = erdos_renyi(600, 4000, 4);
        let level0 = WGraph::from_csr(&g);
        assert!(matches!(level0.offsets, Cow::Borrowed(_)));
        assert_eq!(level0.neighbors(7).as_ptr(), g.neighbors(7).as_ptr());
        assert!(level0.eweights.is_none() && level0.nweights.is_none());
        assert_eq!(level0.node_weight(7), 1);
        assert_eq!(total_edge_weight(&level0), g.num_edges() as u64);

        let (level1, _) = coarsen_once(&level0, 1);
        let (level2, _) = coarsen_once(&level1, 2);
        for level in [&level1, &level2] {
            let (Cow::Owned(targets), Some(eweights)) = (&level.targets, &level.eweights) else {
                panic!("coarse levels own their arrays");
            };
            assert_eq!(targets.capacity(), targets.len(), "no slack");
            assert_eq!(eweights.capacity(), eweights.len(), "no slack");
            assert_eq!(eweights.len(), level.targets.len());
        }
        assert_eq!(level2.total_weight(), 600, "weighted levels coarsen too");
    }

    #[test]
    fn unit_and_explicit_weights_iterate_alike() {
        let g = erdos_renyi(50, 200, 6);
        let view = WGraph::from_csr(&g);
        let explicit = WGraph {
            offsets: Cow::Owned(g.offsets().to_vec()),
            targets: Cow::Owned(g.targets().to_vec()),
            eweights: Some(vec![1; g.num_edges()]),
            nweights: Some(vec![1; g.num_nodes()]),
        };
        for u in 0..50u32 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            view.for_each_edge(u, |v, w| a.push((v, w)));
            explicit.for_each_edge(u, |v, w| b.push((v, w)));
            assert_eq!(a, b);
        }
        assert_eq!(coarsen_once(&view, 3).1, coarsen_once(&explicit, 3).1);
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
