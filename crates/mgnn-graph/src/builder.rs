//! Edge-list accumulation into canonical CSR.
//!
//! The generators emit unordered, possibly-duplicated directed edge lists;
//! [`GraphBuilder`] sorts, deduplicates, optionally symmetrizes and strips
//! self-loops, and produces a validated [`CsrGraph`]. Sorting is the hot path
//! for large synthetic graphs, so it uses rayon's parallel sort.

use crate::csr::{CsrGraph, NodeId};
use rayon::prelude::*;

/// Accumulates edges and finalizes them into a [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    symmetrize: bool,
}

impl GraphBuilder {
    /// A builder for a graph on `num_nodes` nodes. By default the result is
    /// symmetrized (undirected) and self-loop-free, matching how OGB node
    /// classification graphs are consumed by DGL.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            symmetrize: true,
        }
    }

    /// Keep the edge list directed (no reverse-edge insertion).
    pub fn directed(mut self) -> Self {
        self.symmetrize = false;
        self
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
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_nodes;
        let nid = n as NodeId;
        // Drop out-of-range defensively, and self-loops.
        self.edges.retain(|&(u, v)| u < nid && v < nid && u != v);

        if self.symmetrize {
            // Reversed copies appended in place (generators reserve for
            // them up front); sort + dedup below make the order moot.
            let forward = self.edges.len();
            self.edges.extend_from_within(..);
            for e in &mut self.edges[forward..] {
                *e = (e.1, e.0);
            }
        }

        self.edges.par_sort_unstable();
        self.edges.dedup();

        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in &self.edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = self.edges.iter().map(|&(_, v)| v).collect();
        CsrGraph::from_parts_unchecked(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn directed_mode_preserves_direction() {
        let mut b = GraphBuilder::new(3).directed();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
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
        let mut b = GraphBuilder::new(100).directed().with_capacity(10);
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
        assert_eq!(g.neighbors(1), &[2, 3, 4, 5]);
        assert_eq!(g.neighbors(2), &[3, 4]);
        assert!(g.has_edge(98, 99));
    }

    #[test]
    fn out_of_range_edges_are_dropped_in_release_path() {
        // Construct edges vec directly to bypass debug_assert in add_edge.
        let mut b = GraphBuilder::new(2).directed();
        b.edges.push((0, 9)); // out of range
        b.edges.push((0, 1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
    }
}
