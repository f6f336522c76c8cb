//! First-level partition materialization: the [`LocalPartition`] each
//! compute node holds, mirroring DistDGL's partition objects.
//!
//! A local partition stores:
//! * its **local nodes** (owned by this partition, sorted by global id),
//! * its **halo nodes** — remotely-owned nodes adjacent to at least one
//!   local node (the `V_p^h` of the paper) with their owner partition,
//! * a **local-id graph** over `local ∪ halo`: local ids `0..L` are local
//!   nodes, `L..L+H` are halo nodes. Local nodes keep *all* their edges
//!   (mapped to local ids); halo nodes have empty adjacency — the sampler
//!   treats them as frontier leaves, exactly like DistDGL's local sampling
//!   which "performs sampling from the local partition (considering halo
//!   nodes)" and then fetches halo *features* over RPC.

use crate::Partitioning;
use mgnn_graph::{CsrGraph, NodeId};
use rayon::prelude::*;

/// One partition's local view of the distributed graph.
#[derive(Debug, Clone)]
pub struct LocalPartition {
    /// This partition's id.
    pub part_id: u32,
    /// Sorted global ids of locally owned nodes.
    pub local_nodes: Vec<NodeId>,
    /// Sorted global ids of halo (remotely-owned, adjacent) nodes.
    pub halo_nodes: Vec<NodeId>,
    /// Owner partition of each halo node, aligned with `halo_nodes`.
    pub halo_owner: Vec<u32>,
    /// Global degree of each halo node (used by degree-based prefetch
    /// initialization), aligned with `halo_nodes`.
    pub halo_degree: Vec<u32>,
    /// Local-id CSR over `local ∪ halo` (halo rows empty).
    pub graph: CsrGraph,
    /// Training-split nodes owned by this partition (global ids).
    pub train_nodes: Vec<NodeId>,
}

impl LocalPartition {
    /// Number of locally owned nodes.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.local_nodes.len()
    }

    /// Number of halo nodes.
    #[inline]
    pub fn num_halo(&self) -> usize {
        self.halo_nodes.len()
    }

    /// Local id of global node `g`, if present in this partition's view.
    pub fn local_id(&self, g: NodeId) -> Option<u32> {
        if let Ok(i) = self.local_nodes.binary_search(&g) {
            return Some(i as u32);
        }
        if let Ok(i) = self.halo_nodes.binary_search(&g) {
            return Some((self.num_local() + i) as u32);
        }
        None
    }

    /// Global id of local node `l`.
    #[inline]
    pub fn global_id(&self, l: u32) -> NodeId {
        let l = l as usize;
        if l < self.num_local() {
            self.local_nodes[l]
        } else {
            self.halo_nodes[l - self.num_local()]
        }
    }

    /// Whether local id `l` refers to a halo (remote) node.
    #[inline]
    pub fn is_halo(&self, l: u32) -> bool {
        (l as usize) >= self.num_local()
    }

    /// Halo index (0-based position in `halo_nodes`) of local id `l`,
    /// or `None` for local nodes.
    #[inline]
    pub fn halo_index(&self, l: u32) -> Option<u32> {
        if self.is_halo(l) {
            Some(l - self.num_local() as u32)
        } else {
            None
        }
    }

    /// Global degree of local id `l`: local nodes keep their full edge
    /// list in the partition graph; halo nodes carry their recorded
    /// global degree (used by degree-weighted sampling and degree-based
    /// prefetch initialization).
    #[inline]
    pub fn global_degree(&self, l: u32) -> u32 {
        if let Some(h) = self.halo_index(l) {
            self.halo_degree[h as usize]
        } else {
            self.graph.degree(l) as u32
        }
    }
}

/// Materialize every partition's [`LocalPartition`] from a global graph, a
/// partition assignment and the global training split.
pub fn build_local_partitions(
    g: &CsrGraph,
    parts: &Partitioning,
    train_split: &[NodeId],
) -> Vec<LocalPartition> {
    let p = parts.num_parts;
    // Sorted local node lists per partition.
    let mut local: Vec<Vec<NodeId>> = vec![Vec::new(); p];
    for u in 0..g.num_nodes() as NodeId {
        local[parts.part_of(u) as usize].push(u);
    }
    let mut train_by_part: Vec<Vec<NodeId>> = vec![Vec::new(); p];
    for &t in train_split {
        train_by_part[parts.part_of(t) as usize].push(t);
    }
    for tl in &mut train_by_part {
        tl.sort_unstable();
    }

    (0..p)
        .into_par_iter()
        .map(|pid| {
            build_one(
                g,
                parts,
                pid as u32,
                &local[pid],
                train_by_part[pid].clone(),
            )
        })
        .collect()
}

fn build_one(
    g: &CsrGraph,
    parts: &Partitioning,
    pid: u32,
    local_nodes: &[NodeId],
    train_nodes: Vec<NodeId>,
) -> LocalPartition {
    // Halo discovery: neighbors of local nodes owned elsewhere.
    let mut halo: Vec<NodeId> = Vec::new();
    for &u in local_nodes {
        for &v in g.neighbors(u) {
            if parts.part_of(v) != pid {
                halo.push(v);
            }
        }
    }
    halo.sort_unstable();
    halo.dedup();
    // One entry per cross edge went in, one per halo node stays: return
    // the difference instead of keeping it as capacity for the whole run.
    halo.shrink_to_fit();
    let halo_owner: Vec<u32> = halo.iter().map(|&h| parts.part_of(h)).collect();
    let halo_degree: Vec<u32> = halo.iter().map(|&h| g.degree(h) as u32).collect();

    let num_local = local_nodes.len();
    // Build local CSR: local rows get all edges (targets remapped);
    // halo rows are empty.
    let to_local = |v: NodeId| -> u32 {
        match local_nodes.binary_search(&v) {
            Ok(i) => i as u32,
            Err(_) => (num_local + halo.binary_search(&v).expect("halo must contain v")) as u32,
        }
    };
    let total = num_local + halo.len();
    let mut offsets = Vec::with_capacity(total + 1);
    offsets.push(0u64);
    // Local rows keep every edge, so the array's final size is known.
    let mut targets = Vec::with_capacity(local_nodes.iter().map(|&u| g.degree(u)).sum());
    for &u in local_nodes {
        let row = targets.len();
        targets.extend(g.neighbors(u).iter().map(|&v| to_local(v)));
        targets[row..].sort_unstable();
        offsets.push(targets.len() as u64);
    }
    for _ in 0..halo.len() {
        offsets.push(targets.len() as u64);
    }
    let graph = CsrGraph::from_parts_unchecked(offsets, targets);

    LocalPartition {
        part_id: pid,
        local_nodes: local_nodes.to_vec(),
        halo_nodes: halo,
        halo_owner,
        halo_degree,
        graph,
        train_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::multilevel_partition;
    use crate::random::random_partition;
    use mgnn_graph::generators::erdos_renyi;

    fn fixture() -> (CsrGraph, Partitioning) {
        let g = erdos_renyi(600, 3600, 7);
        let p = multilevel_partition(&g, 4, 7);
        (g, p)
    }

    #[test]
    fn locals_partition_the_graph() {
        let (g, p) = fixture();
        let lps = build_local_partitions(&g, &p, &[]);
        let total: usize = lps.iter().map(|lp| lp.num_local()).sum();
        assert_eq!(total, g.num_nodes());
        // Disjointness.
        let mut all: Vec<NodeId> = lps.iter().flat_map(|lp| lp.local_nodes.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), g.num_nodes());
    }

    #[test]
    fn halo_nodes_are_remote_and_adjacent() {
        let (g, p) = fixture();
        let lps = build_local_partitions(&g, &p, &[]);
        for lp in &lps {
            for (i, &h) in lp.halo_nodes.iter().enumerate() {
                assert_ne!(p.part_of(h), lp.part_id, "halo node owned locally");
                assert_eq!(lp.halo_owner[i], p.part_of(h));
                assert_eq!(lp.halo_degree[i] as usize, g.degree(h));
                // Adjacent to at least one local node.
                assert!(
                    g.neighbors(h).iter().any(|&v| p.part_of(v) == lp.part_id),
                    "halo node {h} not adjacent to partition {}",
                    lp.part_id
                );
            }
        }
    }

    #[test]
    fn id_mapping_round_trips() {
        let (g, p) = fixture();
        let lps = build_local_partitions(&g, &p, &[]);
        for lp in &lps {
            for l in 0..(lp.num_local() + lp.num_halo()) as u32 {
                let gid = lp.global_id(l);
                assert_eq!(lp.local_id(gid), Some(l));
            }
            // A node not in this partition's view maps to None.
            let foreign = (0..g.num_nodes() as NodeId)
                .find(|&u| lp.local_id(u).is_none() || p.part_of(u) != lp.part_id);
            assert!(foreign.is_some());
        }
    }

    #[test]
    fn local_graph_edges_match_global() {
        let (g, p) = fixture();
        let lps = build_local_partitions(&g, &p, &[]);
        for lp in &lps {
            for (li, &u) in lp.local_nodes.iter().enumerate() {
                let local_nbrs: Vec<NodeId> = lp
                    .graph
                    .neighbors(li as u32)
                    .iter()
                    .map(|&v| lp.global_id(v))
                    .collect();
                let mut expected: Vec<NodeId> = g.neighbors(u).to_vec();
                let mut got = local_nbrs.clone();
                expected.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expected, "edge mismatch at global node {u}");
            }
            // Halo rows empty.
            for h in 0..lp.num_halo() {
                let l = (lp.num_local() + h) as u32;
                assert!(lp.graph.neighbors(l).is_empty());
                assert!(lp.is_halo(l));
                assert_eq!(lp.halo_index(l), Some(h as u32));
            }
        }
    }

    #[test]
    fn train_nodes_routed_to_owner() {
        let (g, p) = fixture();
        let train: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(3).collect();
        let lps = build_local_partitions(&g, &p, &train);
        let total: usize = lps.iter().map(|lp| lp.train_nodes.len()).sum();
        assert_eq!(total, train.len());
        for lp in &lps {
            for &t in &lp.train_nodes {
                assert_eq!(p.part_of(t), lp.part_id);
            }
        }
    }

    #[test]
    fn random_partition_has_more_halo_than_multilevel() {
        let g = erdos_renyi(800, 6000, 11);
        let ml = multilevel_partition(&g, 4, 11);
        let rp = random_partition(&g, 4, 11);
        let halo_ml: usize = build_local_partitions(&g, &ml, &[])
            .iter()
            .map(|lp| lp.num_halo())
            .sum();
        let halo_rp: usize = build_local_partitions(&g, &rp, &[])
            .iter()
            .map(|lp| lp.num_halo())
            .sum();
        assert!(halo_ml <= halo_rp, "ml {halo_ml} vs random {halo_rp}");
    }
}
