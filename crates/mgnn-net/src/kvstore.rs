//! Per-partition feature KVStore, mirroring DistDGL's.
//!
//! Each partition's server holds the features (and labels) of the nodes it
//! *owns*, keyed by global id. Trainers read local rows directly as f32
//! ([`KvStore::row`]) and pull remote rows, in [`crate::wire`] format, via
//! [`crate::rpc`] or [`crate::cluster::SimCluster::pull_grouped`].

use crate::wire::{self, WireElem};
use mgnn_graph::NodeId;

/// A pull touched a global id this shard does not own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvError {
    /// The offending global node id.
    pub node: NodeId,
    /// The partition that rejected it.
    pub part: u32,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} not owned by partition {}", self.node, self.part)
    }
}

impl std::error::Error for KvError {}

/// Feature shard of one partition.
#[derive(Debug, Clone)]
pub struct KvStore {
    part_id: u32,
    /// Sorted global ids of owned nodes.
    owned: Vec<NodeId>,
    /// Row-major features, one row per owned node (aligned with `owned`).
    features: Vec<f32>,
    /// Labels aligned with `owned`.
    labels: Vec<u32>,
    dim: usize,
}

impl KvStore {
    /// Build a shard for `part_id` owning `owned` (sorted global ids), with
    /// rows gathered from a global feature source.
    pub fn new(
        part_id: u32,
        owned: Vec<NodeId>,
        features: Vec<f32>,
        labels: Vec<u32>,
        dim: usize,
    ) -> Self {
        assert_eq!(features.len(), owned.len() * dim);
        assert_eq!(labels.len(), owned.len());
        debug_assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned must be sorted"
        );
        KvStore {
            part_id,
            owned,
            features,
            labels,
            dim,
        }
    }

    /// Partition id this shard belongs to.
    #[inline]
    pub fn part_id(&self) -> u32 {
        self.part_id
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of owned nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.owned.len()
    }

    /// Whether the shard is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty()
    }

    /// Whether this shard owns global node `g`.
    pub fn owns(&self, g: NodeId) -> bool {
        self.owned.binary_search(&g).is_ok()
    }

    /// Feature row of owned global node `g`. Panics if not owned.
    pub fn row(&self, g: NodeId) -> &[f32] {
        self.try_row(g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Feature row of global node `g`, or a typed error if this shard
    /// does not own it.
    pub fn try_row(&self, g: NodeId) -> Result<&[f32], KvError> {
        match self.owned.binary_search(&g) {
            Ok(i) => Ok(&self.features[i * self.dim..(i + 1) * self.dim]),
            Err(_) => Err(KvError {
                node: g,
                part: self.part_id,
            }),
        }
    }

    /// Label of owned global node `g`.
    pub fn label(&self, g: NodeId) -> u32 {
        let i = self
            .owned
            .binary_search(&g)
            .unwrap_or_else(|_| panic!("node {g} not owned by partition {}", self.part_id));
        self.labels[i]
    }

    /// Bulk pull: gather rows for `ids` into a dense row-major buffer
    /// in wire format — the payload of one bulk RPC response, encoded in
    /// the same pass that gathers it. Fails on the first id this shard
    /// does not own, so a routing bug surfaces as a typed error at the
    /// server instead of a panic that kills the server thread.
    pub fn pull(&self, ids: &[NodeId]) -> Result<Vec<WireElem>, KvError> {
        let mut out = Vec::with_capacity(ids.len() * self.dim);
        for &g in ids {
            wire::encode_row(self.try_row(g)?, &mut out);
        }
        Ok(out)
    }

    /// Approximate heap bytes (the paper's Fig. 14 memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.features.len() * 4 + self.owned.len() * 4 + self.labels.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        // owns nodes 2, 5, 9 with dim 2
        KvStore::new(
            0,
            vec![2, 5, 9],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![0, 1, 0],
            2,
        )
    }

    #[test]
    fn ownership_and_rows() {
        let s = store();
        assert!(s.owns(5));
        assert!(!s.owns(3));
        assert_eq!(s.row(5), &[3.0, 4.0]);
        assert_eq!(s.label(9), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn bulk_pull_order_preserved() {
        let s = store();
        let out = s.pull(&[9, 2]).unwrap();
        assert_eq!(out, [5.0, 6.0, 1.0, 2.0].map(wire::encode));
    }

    #[test]
    fn pull_unowned_is_typed_error() {
        let err = store().pull(&[3]).unwrap_err();
        assert_eq!(err, KvError { node: 3, part: 0 });
        assert_eq!(err.to_string(), "node 3 not owned by partition 0");
    }

    #[test]
    fn mixed_owned_unowned_bulk_pull_reports_first_offender() {
        // Owned ids before the bad one must not mask the error, and the
        // *first* unowned id is the one reported.
        let err = store().pull(&[2, 9, 7, 3]).unwrap_err();
        assert_eq!(err, KvError { node: 7, part: 0 });
        assert!(store().try_row(7).is_err());
        assert_eq!(store().try_row(9).unwrap(), &[5.0, 6.0]);
    }

    #[test]
    fn empty_store() {
        let s = KvStore::new(1, vec![], vec![], vec![], 4);
        assert!(s.is_empty());
        assert!(s.pull(&[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_rejected() {
        KvStore::new(0, vec![1, 2], vec![0.0; 3], vec![0, 0], 2);
    }
}
