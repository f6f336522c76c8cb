//! Immutable Compressed Sparse Row (CSR) graph.
//!
//! Node ids are `u32` (the paper's largest graph, papers100M, has 111M nodes
//! — well within `u32`), offsets are `u64` so edge counts past 4B are
//! representable. Neighbor lists are sorted, which lets the partitioner and
//! sampler binary-search and lets tests assert canonical form.

use std::fmt;

/// Global node identifier.
pub type NodeId = u32;

/// An immutable CSR adjacency structure.
///
/// Invariants (checked by [`CsrGraph::validate`] and enforced by
/// [`crate::builder::GraphBuilder`]):
/// * `offsets.len() == num_nodes + 1`, `offsets[0] == 0`, monotone
///   non-decreasing, `offsets[num_nodes] == targets.len()`.
/// * every target id is `< num_nodes`.
/// * each neighbor list is sorted ascending and deduplicated.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Build from raw parts, validating all invariants.
    ///
    /// Returns an error string describing the first violated invariant.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<NodeId>) -> Result<Self, String> {
        let g = CsrGraph { offsets, targets };
        g.validate()?;
        Ok(g)
    }

    /// Build from raw parts without validation.
    ///
    /// Intended for trusted internal callers (the builder). Debug builds
    /// still validate.
    pub fn from_parts_unchecked(offsets: Vec<u64>, targets: Vec<NodeId>) -> Self {
        let g = CsrGraph { offsets, targets };
        debug_assert!(g.validate().is_ok(), "CSR invariant violated");
        g
    }

    /// Check every structural invariant; `Ok(())` when canonical.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if *self.offsets.last().unwrap() != self.targets.len() as u64 {
            return Err(format!(
                "offsets[last]={} != targets.len()={}",
                self.offsets.last().unwrap(),
                self.targets.len()
            ));
        }
        let n = self.num_nodes() as NodeId;
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be monotone non-decreasing".into());
            }
        }
        for u in 0..self.num_nodes() {
            let nbrs = self.neighbors(u as NodeId);
            for pair in nbrs.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("neighbors of {u} not sorted+deduped"));
                }
            }
            if let Some(&last) = nbrs.last() {
                if last >= n {
                    return Err(format!("neighbor {last} of {u} out of range (n={n})"));
                }
            }
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (for symmetrized graphs this counts both
    /// directions).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// Whether edge `(u, v)` exists (binary search on the sorted list).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Raw offsets (for zero-copy consumers such as the partitioner).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw targets.
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Whether the adjacency is symmetric (u→v implies v→u).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph {{ nodes: {}, edges: {} }}",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        // 0 - 1 - 2 undirected
        CsrGraph::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(g.is_symmetric());
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_parts(vec![0; 6], vec![]).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_node_graph() {
        let g = CsrGraph::from_parts(vec![0], vec![]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn validate_rejects_bad_offsets() {
        assert!(CsrGraph::from_parts(vec![1, 2], vec![0]).is_err()); // offsets[0] != 0
        assert!(CsrGraph::from_parts(vec![0, 2, 1], vec![0, 0]).is_err()); // non-monotone
        assert!(CsrGraph::from_parts(vec![0, 1], vec![]).is_err()); // last != len
    }

    #[test]
    fn validate_rejects_unsorted_or_oob_neighbors() {
        assert!(CsrGraph::from_parts(vec![0, 2], vec![1, 0]).is_err()); // unsorted
        assert!(CsrGraph::from_parts(vec![0, 2], vec![0, 0]).is_err()); // duplicate
        assert!(CsrGraph::from_parts(vec![0, 1], vec![5]).is_err()); // out of range
    }

    #[test]
    fn edges_iterator_matches_neighbors() {
        let g = path3();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }
}
