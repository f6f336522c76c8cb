//! # mgnn-partition — graph partitioning substrate
//!
//! DistDGL (Fig. 2 of the MassiveGNN paper) partitions at two levels:
//!
//! 1. **First level (offline):** the full graph is split into `P` induced
//!    subgraphs, one per compute node, by METIS. Each partition additionally
//!    records its *halo* nodes — remotely-owned nodes adjacent to a local
//!    node — because the sampler walks into them and their features must
//!    then be fetched over RPC.
//! 2. **Second level (online):** each partition's *train* nodes are split
//!    among that node's trainer processes.
//!
//! The paper uses METIS; this crate implements a multilevel partitioner of
//! the same family ([`multilevel`]: heavy-edge-matching coarsening → greedy
//! growth initial partition → boundary Kernighan–Lin refinement) plus
//! [`hash`], [`random`] and [`bfs`] baselines, the [`halo`] construction
//! that produces the [`LocalPartition`] the rest of the system consumes,
//! the [`trainer_split`] second level, and partition [`quality`] metrics.

pub mod bfs;
pub mod halo;
pub mod hash;
pub mod multilevel;
pub mod quality;
pub mod random;
pub mod trainer_split;

pub use halo::{build_local_partitions, LocalPartition};
pub use multilevel::multilevel_partition;
pub use quality::{balance, edge_cut, halo_fraction};
pub use trainer_split::split_train_nodes;

use mgnn_graph::NodeId;

/// A partition assignment: `assignment[u]` is the partition id of global
/// node `u`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Per-node partition id.
    pub assignment: Vec<u32>,
    /// Number of partitions.
    pub num_parts: usize,
}

impl Partitioning {
    /// Construct, validating every id is `< num_parts`.
    pub fn new(assignment: Vec<u32>, num_parts: usize) -> Self {
        assert!(num_parts >= 1);
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts),
            "partition id out of range"
        );
        Partitioning {
            assignment,
            num_parts,
        }
    }

    /// Partition of node `u`.
    #[inline]
    pub fn part_of(&self, u: NodeId) -> u32 {
        self.assignment[u as usize]
    }

    /// Node count per partition.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            s[p as usize] += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_basic() {
        let p = Partitioning::new(vec![0, 1, 0, 1], 2);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.sizes(), vec![2, 2]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Partitioning::new(vec![0, 5], 2);
    }
}
