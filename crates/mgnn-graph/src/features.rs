//! Node features and labels.
//!
//! [`FeatureStore`] is a row-major `f32` matrix (one row per node) plus a
//! label per node. Synthesis is *label-correlated*: each class gets a random
//! centroid and node features are `centroid + noise`, then one smoothing
//! round averages each node with its neighborhood mean — so a GNN that
//! aggregates neighborhoods genuinely has signal to learn, and training
//! accuracy in tests/examples is meaningful rather than noise.
//!
//! The matrix is the largest object a run holds, so it exists once: a
//! `FeatureStore` is a handle on shared, immutable storage, and cloning
//! one (each simulated KVStore server keeps a clone) copies no rows.

use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;

/// The rows and labels every handle of one store points at.
#[derive(Debug, PartialEq)]
struct Storage {
    /// Row-major `num_nodes × dim`.
    data: Vec<f32>,
    labels: Vec<u32>,
}

/// Dense per-node features and labels. `Clone` is a handle copy: clones
/// share one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStore {
    num_nodes: usize,
    dim: usize,
    storage: Arc<Storage>,
    num_classes: usize,
}

impl FeatureStore {
    /// Build from raw parts. Panics if shapes disagree.
    pub fn from_parts(
        num_nodes: usize,
        dim: usize,
        data: Vec<f32>,
        labels: Vec<u32>,
        num_classes: usize,
    ) -> Self {
        assert_eq!(data.len(), num_nodes * dim, "feature matrix shape mismatch");
        assert_eq!(labels.len(), num_nodes, "label vector shape mismatch");
        assert!(labels.iter().all(|&l| (l as usize) < num_classes));
        FeatureStore {
            num_nodes,
            dim,
            storage: Arc::new(Storage { data, labels }),
            num_classes,
        }
    }

    /// Synthesize label-correlated features for `graph`.
    ///
    /// * class labels are drawn from a mild power-law over `num_classes`
    ///   (real node-classification datasets have imbalanced classes);
    /// * features = class centroid + N(0, noise);
    /// * one neighborhood-mean smoothing pass mixes graph structure in.
    pub fn synthesize(graph: &CsrGraph, dim: usize, num_classes: usize, seed: u64) -> Self {
        assert!(num_classes >= 2, "need at least 2 classes");
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);

        // Imbalanced class prior: weight of class c is 1/(c+1).
        let weights: Vec<f64> = (0..num_classes).map(|c| 1.0 / (c as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let labels: Vec<u32> = (0..n)
            .map(|_| {
                let mut r = rng.gen::<f64>() * total;
                for (c, &w) in weights.iter().enumerate() {
                    if r < w {
                        return c as u32;
                    }
                    r -= w;
                }
                (num_classes - 1) as u32
            })
            .collect();

        // Class centroids in [-1, 1]^dim.
        let centroids: Vec<f32> = (0..num_classes * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();

        // The output matrix is written in place, a row per task. The
        // unsmoothed matrix it is computed from never exists whole: it is
        // drawn one column block at a time into a scratch that is
        // `1 / COLUMN_PASSES` of a matrix.
        let mut data = vec![0.0f32; n * dim];
        let width = dim.div_ceil(COLUMN_PASSES).max(1);
        let mut scratch = vec![0.0f32; n * width];
        for first in (0..dim).step_by(width) {
            let cols = first..(first + width).min(dim);
            let raw = &mut scratch[..n * cols.len()];
            noisy_centroid_block(raw, cols.clone(), &labels, &centroids, dim, seed);
            smooth_block(graph, raw, cols, &mut data, dim);
        }

        FeatureStore {
            num_nodes: n,
            dim,
            storage: Arc::new(Storage { data, labels }),
            num_classes,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of label classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature row of node `u`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &[f32] {
        let u = u as usize;
        &self.storage.data[u * self.dim..(u + 1) * self.dim]
    }

    /// Label of node `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> u32 {
        self.storage.labels[u as usize]
    }
}

/// Feature noise amplitude around the class centroid.
const NOISE: f32 = 0.5;

/// Column blocks `synthesize` works through. Smoothing a block needs the
/// unsmoothed block of *every* row, so the scratch is `1/COLUMN_PASSES` of
/// a matrix; each further pass re-draws (and discards) the columns before
/// its block, which is cheap next to the smoothing it feeds.
const COLUMN_PASSES: usize = 2;

/// `centroid(label) + noise` for columns `cols` of every row, row-major
/// `n × cols.len()` into `raw`. Row `u` draws from its own stream, seeded
/// per row (so rows can be drawn in any order on any number of threads),
/// one draw per column from column 0: a block that starts later discards
/// the draws of the columns before it.
fn noisy_centroid_block(
    raw: &mut [f32],
    cols: std::ops::Range<usize>,
    labels: &[u32],
    centroids: &[f32],
    dim: usize,
    seed: u64,
) {
    raw.par_chunks_mut(cols.len())
        .enumerate()
        .for_each(|(u, row)| {
            let mut r = StdRng::seed_from_u64(seed ^ 0xabcd_ef12u64 ^ ((u as u64) << 17));
            for _ in 0..cols.start {
                r.gen::<f32>();
            }
            let centre = &centroids[labels[u] as usize * dim..][cols.clone()];
            for (x, &c) in row.iter_mut().zip(centre) {
                *x = c + NOISE * (r.gen::<f32>() * 2.0 - 1.0);
            }
        });
}

/// One smoothing round, `x_u <- 0.6 x_u + 0.4 mean(x_N(u))`, of columns
/// `cols`: reads the unsmoothed block `raw`, overwrites `data[u][cols]`.
/// An isolated node keeps its row. Neighbour rows are summed in adjacency
/// order.
fn smooth_block(
    graph: &CsrGraph,
    raw: &[f32],
    cols: std::ops::Range<usize>,
    data: &mut [f32],
    dim: usize,
) {
    let width = cols.len();
    data.par_chunks_mut(dim).enumerate().for_each(|(u, row)| {
        let out = &mut row[cols.clone()];
        let block = |v: NodeId| &raw[v as usize * width..(v as usize + 1) * width];
        let own = block(u as NodeId);
        let Some((&first, rest)) = graph.neighbors(u as NodeId).split_first() else {
            out.copy_from_slice(own);
            return;
        };
        // `0.0 + y` is what a zeroed row holds after its first neighbour,
        // bit for bit (also for `y = -0.0`), but stored without reading
        // `out`, so the first touch of every output page is a write. A
        // read would map the shared zero page first and the write after
        // it pay a second, copy-on-write fault: with `+=` from the start
        // this stage took 0.29 s instead of 0.10 s (Papers/Bench).
        for (x, &y) in out.iter_mut().zip(block(first)) {
            *x = 0.0 + y;
        }
        for &v in rest {
            for (x, &y) in out.iter_mut().zip(block(v)) {
                *x += y;
            }
        }
        let nbrs = rest.len() + 1;
        let inv = 0.4 / nbrs as f32;
        for (x, &o) in out.iter_mut().zip(own) {
            *x = 0.6 * o + inv * *x;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    /// `synthesize` as it was before the rows were written in place: both
    /// matrices collected from per-row `Vec`s. Kept as the bit-for-bit
    /// reference of the RNG streams and the summation order.
    fn synthesize_reference(
        graph: &CsrGraph,
        dim: usize,
        num_classes: usize,
        seed: u64,
    ) -> FeatureStore {
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..num_classes).map(|c| 1.0 / (c as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let labels: Vec<u32> = (0..n)
            .map(|_| {
                let mut r = rng.gen::<f64>() * total;
                for (c, &w) in weights.iter().enumerate() {
                    if r < w {
                        return c as u32;
                    }
                    r -= w;
                }
                (num_classes - 1) as u32
            })
            .collect();
        let centroids: Vec<f32> = (0..num_classes * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let noise = 0.5f32;
        let raw: Vec<f32> = (0..n)
            .into_par_iter()
            .flat_map_iter(|u| {
                let mut r = StdRng::seed_from_u64(seed ^ 0xabcd_ef12u64 ^ ((u as u64) << 17));
                let c = labels[u] as usize;
                let centroids = &centroids;
                (0..dim)
                    .map(|j| centroids[c * dim + j] + noise * (r.gen::<f32>() * 2.0 - 1.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let data: Vec<f32> = (0..n)
            .into_par_iter()
            .flat_map_iter(|u| {
                let nbrs = graph.neighbors(u as NodeId);
                let mut row = vec![0.0f32; dim];
                if nbrs.is_empty() {
                    row.copy_from_slice(&raw[u * dim..(u + 1) * dim]);
                } else {
                    for &v in nbrs {
                        let vrow = &raw[v as usize * dim..(v as usize + 1) * dim];
                        for j in 0..dim {
                            row[j] += vrow[j];
                        }
                    }
                    let inv = 0.4 / nbrs.len() as f32;
                    let own = &raw[u * dim..(u + 1) * dim];
                    for j in 0..dim {
                        row[j] = 0.6 * own[j] + inv * row[j];
                    }
                }
                row
            })
            .collect();
        FeatureStore::from_parts(n, dim, data, labels, num_classes)
    }

    #[test]
    fn in_place_synthesis_matches_the_reference_bit_for_bit() {
        // Sparse enough that some nodes are isolated: both branches of
        // the smoothing pass are compared.
        let g = erdos_renyi(400, 300, 8);
        assert!(g.nodes().any(|u| g.degree(u) == 0), "want isolated nodes");
        assert!(g.nodes().any(|u| g.degree(u) > 1));
        for (dim, classes, seed) in [(16, 4, 2), (1, 2, 9), (33, 7, 0xfeed)] {
            let got = FeatureStore::synthesize(&g, dim, classes, seed);
            let want = synthesize_reference(&g, dim, classes, seed);
            for u in g.nodes() {
                assert_eq!(got.label(u), want.label(u));
                let bits =
                    |f: &FeatureStore| f.row(u).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "node {u} dim {dim} seed {seed}");
            }
        }
    }

    #[test]
    fn clones_share_one_matrix() {
        let g = erdos_renyi(40, 120, 1);
        let f = FeatureStore::synthesize(&g, 4, 2, 3);
        let handle = f.clone();
        assert_eq!(handle.row(0).as_ptr(), f.row(0).as_ptr());
        // An equal store built separately is a different matrix.
        let again = FeatureStore::synthesize(&g, 4, 2, 3);
        assert_eq!(again, f);
        assert_ne!(again.row(0).as_ptr(), f.row(0).as_ptr());
    }

    #[test]
    fn shapes() {
        let g = erdos_renyi(100, 400, 1);
        let f = FeatureStore::synthesize(&g, 16, 4, 2);
        assert_eq!(f.num_nodes(), 100);
        assert_eq!(f.dim(), 16);
        assert_eq!(f.row(5).len(), 16);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(50, 200, 3);
        let a = FeatureStore::synthesize(&g, 8, 3, 9);
        let b = FeatureStore::synthesize(&g, 8, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_in_range() {
        let g = erdos_renyi(200, 600, 4);
        let f = FeatureStore::synthesize(&g, 8, 5, 1);
        assert!(g.nodes().all(|u| f.label(u) < 5));
        // All classes should appear on 200 nodes with 5 classes.
        for c in 0..5u32 {
            assert!(g.nodes().any(|u| f.label(u) == c), "class {c} missing");
        }
    }

    #[test]
    fn class_separation_exists() {
        // Mean intra-class feature distance should be below inter-class.
        let g = erdos_renyi(300, 1200, 6);
        let f = FeatureStore::synthesize(&g, 16, 3, 7);
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        let mut intra = (0.0f64, 0usize);
        let mut inter = (0.0f64, 0usize);
        for u in 0..300u32 {
            for v in (u + 1)..300u32 {
                let d = dist(f.row(u), f.row(v)) as f64;
                if f.label(u) == f.label(v) {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            intra_mean < inter_mean,
            "intra {intra_mean} should be < inter {inter_mean}"
        );
    }

    #[test]
    fn from_parts_validates() {
        let f = FeatureStore::from_parts(2, 3, vec![0.0; 6], vec![0, 1], 2);
        assert_eq!(f.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_shape() {
        FeatureStore::from_parts(2, 3, vec![0.0; 5], vec![0, 1], 2);
    }
}
