//! Edge-list accumulation into canonical CSR.
//!
//! The generators emit unordered, possibly-duplicated directed edge lists;
//! [`GraphBuilder`] symmetrizes, sorts, deduplicates and strips self-loops,
//! and produces a validated [`CsrGraph`]. It never sorts the edge list
//! itself: a counting pass sizes every row, each edge and its reverse are
//! dropped into their rows, and only the rows are sorted.

use crate::csr::{CsrGraph, NodeId};
use rayon::prelude::*;

/// Accumulates edges and finalizes them into a [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `num_nodes` nodes. The result is
    /// symmetrized (undirected) and self-loop-free, matching how OGB node
    /// classification graphs are consumed by DGL.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Pre-size the internal edge vector.
    pub fn with_capacity(mut self, edges: usize) -> Self {
        self.edges.reserve(edges);
        self
    }

    /// Add one directed edge. Ids out of range panic in debug builds and are
    /// clamped away at finalize time in release (defensive: generators can't
    /// produce them, but file input could).
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.num_nodes && (v as usize) < self.num_nodes);
        self.edges.push((u, v));
    }

    /// Add many edges at once.
    pub fn extend(&mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.edges.extend(it);
    }

    /// Append `count` edges written in place: `fill(i, slots)` receives
    /// the `i`-th run of `chunk` slots (the last run may be shorter) and
    /// must overwrite every slot. Runs are filled in parallel, so a
    /// generator whose chunks are independent RNG streams writes straight
    /// into the builder instead of collecting per-chunk vectors first.
    pub fn extend_chunked<F>(&mut self, count: usize, chunk: usize, fill: F)
    where
        F: Fn(usize, &mut [(NodeId, NodeId)]) + Sync,
    {
        let start = self.edges.len();
        self.edges.resize(start + count, (0, 0));
        self.edges[start..]
            .par_chunks_mut(chunk.max(1))
            .enumerate()
            .for_each(|(i, slots)| fill(i, slots));
    }

    /// Finalize into a canonical CSR graph.
    pub fn build(self) -> CsrGraph {
        let n = self.num_nodes;
        let nid = n as NodeId;
        // Drop out-of-range defensively, and self-loops.
        let kept = || {
            self.edges
                .iter()
                .filter(move |&&(u, v)| u < nid && v < nid && u != v)
        };

        // Counting sort into rows: every kept edge lands in its source's
        // row, and its reverse in its target's.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in kept() {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets: Vec<NodeId> = vec![0; offsets[n] as usize];
        let mut next = offsets[..n].to_vec();
        let mut place = |u: NodeId, v: NodeId| {
            targets[next[u as usize] as usize] = v;
            next[u as usize] += 1;
        };
        for &(u, v) in kept() {
            place(u, v);
            place(v, u);
        }
        drop((self.edges, next));

        // Sort and dedup each row, shifting the survivors left over the
        // duplicates dropped before them.
        let mut len = 0usize;
        for u in 0..n {
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            offsets[u] = len as u64;
            targets[row.clone()].sort_unstable();
            let row_start = len;
            for i in row {
                let v = targets[i];
                if len == row_start || targets[len - 1] != v {
                    targets[len] = v;
                    len += 1;
                }
            }
        }
        offsets[n] = len as u64;
        // The duplicates' slots stay as spare capacity (4.5 % on
        // Papers/Bench): giving them back means a `realloc` of a block as
        // large as the graph, which left the benchmark's resident peak up
        // to one such block higher.
        targets.truncate(len);
        CsrGraph::from_parts_unchecked(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The build this builder's counting sort replaced: every kept edge
    /// and its reverse in one list that is sorted, deduplicated and then
    /// cut into rows.
    fn sort_and_dedup(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let nid = n as NodeId;
        let kept = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u < nid && v < nid && u != v);
        let mut all: Vec<_> = kept.flat_map(|(u, v)| [(u, v), (v, u)]).collect();
        all.sort_unstable();
        all.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in &all {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        CsrGraph::from_parts(offsets, all.iter().map(|&(_, v)| v).collect()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Duplicates, self-loops, ids up to three past the end and (with
        /// few edges) isolated nodes.
        #[test]
        fn counting_sort_matches_sort_and_dedup(
            (n, edges) in (1usize..60).prop_flat_map(|n| {
                let id = 0..n as NodeId + 3;
                (Just(n), prop::collection::vec((id.clone(), id), 0..300))
            }),
        ) {
            let mut b = GraphBuilder::new(n);
            // Straight into the list: `add_edge` debug-asserts the range.
            b.edges = edges.clone();
            let g = b.build();
            prop_assert_eq!(g, sort_and_dedup(n, &edges));
        }
    }

    #[test]
    fn builds_symmetrized_deduped() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 1); // duplicate
        b.add_edge(1, 0); // reverse already implied
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 4); // 0-1, 1-0, 2-3, 3-2
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn extend_and_raw_count() {
        let mut b = GraphBuilder::new(3);
        b.extend([(0, 1), (1, 2)]);
        assert_eq!(b.edges.len(), 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn extend_chunked_fills_every_run_in_place() {
        let mut b = GraphBuilder::new(100).with_capacity(11);
        b.add_edge(98, 99);
        // 10 edges in runs of 4, 4, 2: run i writes (i, i + slot + 1).
        b.extend_chunked(10, 4, |i, slots| {
            for (k, e) in slots.iter_mut().enumerate() {
                *e = (i as NodeId, (i + k + 1) as NodeId);
            }
        });
        assert_eq!(b.edges.len(), 11);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.neighbors(1), &[0, 2, 3, 4, 5]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.neighbors(5), &[1]);
        assert!(g.has_edge(98, 99) && g.has_edge(99, 98));
    }

    #[test]
    fn out_of_range_edges_are_dropped_in_release_path() {
        // Construct edges vec directly to bypass debug_assert in add_edge.
        let mut b = GraphBuilder::new(2);
        b.edges.push((0, 9)); // out of range
        b.edges.push((9, 1)); // out of range
        b.edges.push((0, 1));
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }
}
