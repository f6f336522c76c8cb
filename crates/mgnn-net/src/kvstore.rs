//! Per-partition feature KVStore, mirroring DistDGL's.
//!
//! Each partition's server answers for the features (and labels) of the
//! nodes it *owns*, keyed by global id. Trainers read local rows directly
//! as f32 ([`KvStore::row`]) and pull remote rows, in [`crate::wire`]
//! format, via [`crate::rpc`] or
//! [`crate::cluster::SimCluster::pull_rows`].
//!
//! The servers are simulated inside one address space, so a shard does
//! not hold a private copy of its rows: it is its sorted `owned` list
//! plus a handle on the one resident [`FeatureStore`]. What makes it a
//! shard is that every access is checked against `owned` — a row another
//! partition owns is a [`KvError`], exactly as if it were not there.

use crate::wire::{self, WireElem};
use mgnn_graph::{FeatureStore, NodeId};

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

/// Give a buffer whose content is about to be replaced room for `need`
/// elements, for buffers that run to megabytes: payloads, input matrices.
/// One that is too small is released *before* the new one is allocated,
/// so it is never held twice, and the new one is `need` plus an eighth
/// instead of the next doubling — sampled batches differ by a few
/// percent from step to step, so that headroom ends the regrowing within
/// the first steps at an eighth of the memory a doubling can cost.
/// Whatever the buffer held is lost when it grows.
pub fn make_room<T>(buf: &mut Vec<T>, need: usize) {
    if buf.capacity() < need {
        *buf = Vec::new();
        buf.reserve_exact(need + need / 8);
    }
}

/// Feature shard of one partition.
#[derive(Debug, Clone)]
pub struct KvStore {
    part_id: u32,
    /// Sorted global ids of owned nodes.
    owned: Vec<NodeId>,
    /// Handle on the global matrix; only `owned` rows are ever served.
    features: FeatureStore,
}

impl KvStore {
    /// The shard of `part_id`: `owned` (sorted global ids) out of
    /// `features`, which is shared, not copied.
    pub fn new(part_id: u32, owned: Vec<NodeId>, features: &FeatureStore) -> Self {
        debug_assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned must be sorted"
        );
        assert!(
            owned
                .last()
                .is_none_or(|&g| (g as usize) < features.num_nodes()),
            "owned id beyond the feature matrix"
        );
        KvStore {
            part_id,
            owned,
            features: features.clone(),
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
        self.features.dim()
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
        if self.owns(g) {
            Ok(self.features.row(g))
        } else {
            Err(KvError {
                node: g,
                part: self.part_id,
            })
        }
    }

    /// Label of owned global node `g`. Panics if not owned.
    pub fn label(&self, g: NodeId) -> u32 {
        assert!(
            self.owns(g),
            "node {g} not owned by partition {}",
            self.part_id
        );
        self.features.label(g)
    }

    /// Bulk pull: gather rows for `ids` into `out` (cleared first) as a
    /// dense row-major buffer in wire format — the payload of one bulk RPC
    /// response, encoded in the same pass that gathers it. `out` is the
    /// caller's receive buffer: once it has grown to the largest payload
    /// it carries, a pull allocates nothing. Fails on the first id this
    /// shard does not own (leaving `out` partly filled), so a routing bug
    /// surfaces as a typed error at the server instead of a panic that
    /// kills the server thread.
    pub fn pull_into(&self, ids: &[NodeId], out: &mut Vec<WireElem>) -> Result<(), KvError> {
        out.clear();
        make_room(out, ids.len() * self.dim());
        for &g in ids {
            wire::encode_row(self.try_row(g)?, out);
        }
        Ok(())
    }

    /// [`pull_into`](Self::pull_into) a fresh buffer.
    pub fn pull(&self, ids: &[NodeId]) -> Result<Vec<WireElem>, KvError> {
        let mut out = Vec::new();
        self.pull_into(ids, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten nodes of width 2, row `g` = `[2g, 2g + 1]`, label `g % 2`.
    fn features() -> FeatureStore {
        let data = (0..20).map(|x| x as f32).collect();
        let labels = (0..10).map(|g| g % 2).collect();
        FeatureStore::from_parts(10, 2, data, labels, 2)
    }

    /// Owns nodes 2, 5, 9.
    fn store() -> KvStore {
        KvStore::new(0, vec![2, 5, 9], &features())
    }

    #[test]
    fn ownership_and_rows() {
        let s = store();
        assert!(s.owns(5));
        assert!(!s.owns(3));
        assert_eq!(s.row(5), &[10.0, 11.0]);
        assert_eq!(s.label(9), 1);
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn bulk_pull_order_preserved() {
        let s = store();
        let out = s.pull(&[9, 2]).unwrap();
        assert_eq!(out, [18.0, 19.0, 4.0, 5.0].map(wire::encode));
    }

    #[test]
    fn make_room_regrows_with_an_eighth_to_spare() {
        let mut buf = vec![1u16; 10];
        make_room(&mut buf, 8);
        assert_eq!(buf, [1; 10], "large enough: untouched");
        make_room(&mut buf, 80);
        assert!(
            buf.is_empty(),
            "regrown: the old content went with the old buffer"
        );
        assert!((90..100).contains(&buf.capacity()), "{}", buf.capacity());
    }

    #[test]
    fn pull_into_replaces_what_the_buffer_held() {
        let s = store();
        let mut buf = vec![7; 9];
        s.pull_into(&[5], &mut buf).unwrap();
        assert_eq!(buf, [10.0, 11.0].map(wire::encode));
        let held = buf.capacity();
        s.pull_into(&[9, 2], &mut buf).unwrap();
        assert_eq!(buf, s.pull(&[9, 2]).unwrap());
        assert_eq!(buf.capacity(), held, "a grown buffer is refilled in place");
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
        assert_eq!(store().try_row(9).unwrap(), &[18.0, 19.0]);
    }

    #[test]
    fn empty_store() {
        let s = KvStore::new(1, vec![], &features());
        assert!(!s.owns(0));
        assert!(s.pull(&[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond the feature matrix")]
    fn owned_id_outside_the_matrix_rejected() {
        KvStore::new(0, vec![1, 10], &features());
    }

    #[test]
    fn shards_of_one_store_share_its_matrix() {
        let f = features();
        let a = KvStore::new(0, vec![0, 2, 4], &f);
        let b = KvStore::new(1, vec![1, 3], &f);
        // Both serve rows out of the store's own memory, not a copy.
        assert_eq!(a.row(2).as_ptr(), f.row(2).as_ptr());
        assert_eq!(b.row(3).as_ptr(), f.row(3).as_ptr());
        // Sharing does not widen what a shard answers for: a row that
        // sits in the same matrix but belongs to the other shard is
        // still a typed error, for the row, the pull and the label.
        assert_eq!(a.try_row(3), Err(KvError { node: 3, part: 0 }));
        assert_eq!(b.pull(&[1, 2]), Err(KvError { node: 2, part: 1 }));
        assert!(a.try_row(9).is_err(), "owned by neither");
    }

    #[test]
    #[should_panic(expected = "not owned by partition 0")]
    fn label_of_unowned_node_panics() {
        store().label(3);
    }
}
