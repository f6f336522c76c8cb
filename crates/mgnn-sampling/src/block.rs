//! Bipartite message-flow-graph blocks, the unit the GNN layers consume.

/// One sampled bipartite layer (a DGL "block"/MFG).
///
/// Conventions (matching DGL):
/// * `src_nodes` are the unique partition-local ids feeding this layer;
///   the **first `num_dst` entries are the destination nodes themselves**
///   (every dst node is also a src node, self-inclusive).
/// * For dst `i` (`0 <= i < num_dst`), its sampled in-neighbors are
///   `indices[offsets[i]..offsets[i+1]]`, values being *positions into
///   `src_nodes`*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    /// Number of destination nodes (prefix of `src_nodes`).
    pub num_dst: usize,
    /// Unique partition-local ids of source nodes, dst prefix first.
    pub src_nodes: Vec<u32>,
    /// CSR offsets into `indices`, length `num_dst + 1`.
    pub offsets: Vec<u32>,
    /// Sampled neighbor positions (into `src_nodes`).
    pub indices: Vec<u32>,
}

impl Block {
    /// Number of source nodes.
    #[inline]
    pub fn num_src(&self) -> usize {
        self.src_nodes.len()
    }

    /// Sampled in-neighbor positions of dst `i`.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total sampled edges in this block.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Check internal invariants (offsets monotone, indices in range,
    /// dst prefix property).
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.num_dst + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.num_dst > self.src_nodes.len() {
            return Err("more dst than src".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() as usize != self.indices.len() {
            return Err("offset bounds wrong".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets not monotone".into());
            }
        }
        let n = self.src_nodes.len() as u32;
        if self.indices.iter().any(|&x| x >= n) {
            return Err("index out of range".into());
        }
        // src uniqueness
        let mut seen = std::collections::HashSet::new();
        for &s in &self.src_nodes {
            if !seen.insert(s) {
                return Err(format!("duplicate src node {s}"));
            }
        }
        Ok(())
    }
}

/// A fully sampled minibatch: the layer blocks plus the flat list of input
/// nodes whose features must be gathered before training.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampledMinibatch {
    /// Seed (output) nodes, partition-local ids.
    pub seeds: Vec<u32>,
    /// Blocks in forward order: `blocks[0]` consumes raw input features.
    pub blocks: Vec<Block>,
    /// Unique partition-local ids needing input features
    /// (= `blocks[0].src_nodes`).
    pub input_nodes: Vec<u32>,
}

impl SampledMinibatch {
    /// Total sampled edges across all blocks — the sampling workload, used
    /// by the cost model's `t_sampling`.
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(|b| b.num_edges()).sum()
    }

    /// Split `input_nodes` into (local, halo) by the partition's local
    /// count `num_local`: ids `< num_local` are locally owned, the rest are
    /// halo — Algorithm 2 lines 2–3.
    pub fn split_local_halo(&self, num_local: usize) -> (Vec<u32>, Vec<u32>) {
        let mut local = Vec::new();
        let mut halo = Vec::new();
        self.split_local_halo_into(num_local, &mut local, &mut halo);
        (local, halo)
    }

    /// [`split_local_halo`](Self::split_local_halo) into caller-owned
    /// buffers (cleared first) — the allocation-free steady-state path.
    pub fn split_local_halo_into(
        &self,
        num_local: usize,
        local: &mut Vec<u32>,
        halo: &mut Vec<u32>,
    ) {
        local.clear();
        halo.clear();
        for &n in &self.input_nodes {
            if (n as usize) < num_local {
                local.push(n);
            } else {
                halo.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        Block {
            num_dst: 2,
            src_nodes: vec![10, 20, 30, 40],
            offsets: vec![0, 2, 3],
            indices: vec![2, 3, 0],
        }
    }

    #[test]
    fn accessors() {
        let b = block();
        assert_eq!(b.num_src(), 4);
        assert_eq!(b.num_edges(), 3);
        assert_eq!(b.neighbors_of(0), &[2, 3]);
        assert_eq!(b.neighbors_of(1), &[0]);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_offsets() {
        let mut b = block();
        b.offsets = vec![0, 3, 2];
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_catches_oob_index() {
        let mut b = block();
        b.indices[0] = 99;
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_catches_duplicate_src() {
        let mut b = block();
        b.src_nodes[3] = 10;
        assert!(b.validate().is_err());
    }

    #[test]
    fn split_local_halo() {
        let mb = SampledMinibatch {
            seeds: vec![0],
            blocks: vec![],
            input_nodes: vec![0, 5, 9, 12],
        };
        let (l, h) = mb.split_local_halo(10);
        assert_eq!(l, vec![0, 5, 9]);
        assert_eq!(h, vec![12]);
    }
}
