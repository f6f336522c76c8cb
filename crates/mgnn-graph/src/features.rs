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
//!
//! Synthesis holds nothing beside that matrix: the unsmoothed rows are
//! never stored. One sweep pushes each node's row, drawn from its own
//! stream, into its neighbours' output rows; a second draws every row's
//! own values again and finishes the average in place.

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
    ///
    /// `graph` must be symmetric with ascending, deduplicated rows, as
    /// every graph `GraphBuilder` makes is (debug builds check): the
    /// smoothing pushes each row to its neighbours, and that sums a row's
    /// neighbours in adjacency order only if `v ∈ N(u)` exactly when
    /// `u ∈ N(v)`.
    pub fn synthesize(graph: &CsrGraph, dim: usize, num_classes: usize, seed: u64) -> Self {
        let matrix = vec![0.0f32; graph.num_nodes() * dim];
        let ranges = rayon::current_num_threads();
        Self::synthesize_split(graph, dim, num_classes, seed, ranges, matrix)
    }

    /// [`FeatureStore::synthesize`], pushing the rows in `ranges` tasks
    /// into `data`, `num_nodes × dim` long, whose content is overwritten.
    pub(crate) fn synthesize_split(
        graph: &CsrGraph,
        dim: usize,
        num_classes: usize,
        seed: u64,
        ranges: usize,
        mut data: Vec<f32>,
    ) -> Self {
        assert!(num_classes >= 2, "need at least 2 classes");
        assert_eq!(
            data.len(),
            graph.num_nodes() * dim,
            "feature matrix shape mismatch"
        );
        // Rows are ascending and deduplicated in every `CsrGraph` (checked
        // when it was made); symmetry is up to the graph's maker.
        debug_assert!(
            graph.is_symmetric(),
            "feature synthesis needs a symmetric graph"
        );
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

        let raw = Unsmoothed {
            labels: &labels,
            centroids: &centroids,
            dim,
            seed,
        };
        push_neighbour_rows(graph, &raw, &mut data, ranges);
        finalize(graph, &raw, &mut data);

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

/// The unsmoothed features, `centroid(label) + noise`, which are never
/// stored. Row `u` draws from its own stream, seeded per row, one draw per
/// column, so it can be drawn again, in any order, on any thread.
struct Unsmoothed<'a> {
    labels: &'a [u32],
    centroids: &'a [f32],
    dim: usize,
    seed: u64,
}

impl Unsmoothed<'_> {
    /// Row `u`, column by column.
    fn row(&self, u: usize) -> impl Iterator<Item = f32> + '_ {
        let mut r = StdRng::seed_from_u64(self.seed ^ 0xabcd_ef12u64 ^ ((u as u64) << 17));
        let centre = &self.centroids[self.labels[u] as usize * self.dim..][..self.dim];
        centre
            .iter()
            .map(move |&c| c + NOISE * (r.gen::<f32>() * 2.0 - 1.0))
    }
}

/// Sum each row's unsmoothed neighbours into `data` (zeroed), in
/// adjacency order: `u` is visited in ascending order and its row added
/// to `data[v]` for every `v ∈ N(u)`. In a symmetric graph with ascending
/// rows, row `v` so receives the rows of `N(v)` in ascending order, the
/// order a pull over `N(v)` sums them in, and the first lands on `0.0` as
/// the pull's does — the same bits.
///
/// The rows are cut into `ranges` contiguous ranges with about equal
/// incoming edges, one task each. A task walks every `u`, finds its
/// range's slice of `N(u)` by binary search and draws `u` only when that
/// slice is not empty; no row receives addends from two tasks, so any cut
/// gives the same bits.
fn push_neighbour_rows(graph: &CsrGraph, raw: &Unsmoothed, data: &mut [f32], ranges: usize) {
    let n = graph.num_nodes();
    let dim = raw.dim;
    // In a symmetric graph a row's incoming edges are its out-degree, so
    // the offsets are the running count of incoming edges.
    let offsets = graph.offsets();
    let edges = graph.num_edges();
    let mut tasks = Vec::with_capacity(ranges);
    let (mut rest, mut lo) = (data, 0);
    for k in 1..=ranges {
        let hi = if k == ranges {
            n
        } else {
            let share = (edges * k / ranges) as u64;
            offsets.partition_point(|&o| o < share).clamp(lo, n)
        };
        let (out, tail) = rest.split_at_mut((hi - lo) * dim);
        tasks.push((lo..hi, out));
        (rest, lo) = (tail, hi);
    }
    tasks.par_chunks_mut(1).enumerate().for_each(|(_, task)| {
        let (rows, out) = &mut task[0];
        // Zeroed pages read before they are written map the shared zero
        // page first, and the write after it pays a second, copy-on-write
        // fault (0.29 s instead of 0.10 s on Papers/Bench when the first
        // touch was a `+=`): write every page of the range before pushing.
        out.fill(0.0);
        let mut row = vec![0.0f32; dim];
        for u in 0..n {
            let nbrs = graph.neighbors(u as NodeId);
            let first = nbrs.partition_point(|&v| (v as usize) < rows.start);
            let len = nbrs[first..].partition_point(|&v| (v as usize) < rows.end);
            if len == 0 {
                continue;
            }
            for (x, y) in row.iter_mut().zip(raw.row(u)) {
                *x = y;
            }
            for &v in &nbrs[first..first + len] {
                let target = &mut out[(v as usize - rows.start) * dim..][..dim];
                for (x, &y) in target.iter_mut().zip(&row) {
                    *x += y;
                }
            }
        }
    });
}

/// One smoothing round, `x_u <- 0.6 x_u + 0.4 mean(x_N(u))`, of every row,
/// from the neighbour sums in `data` and row `u`'s own values drawn again.
/// An isolated node keeps its row.
fn finalize(graph: &CsrGraph, raw: &Unsmoothed, data: &mut [f32]) {
    data.par_chunks_mut(raw.dim)
        .enumerate()
        .for_each(|(u, out)| {
            let own = raw.row(u);
            match graph.degree(u as NodeId) {
                0 => out.iter_mut().zip(own).for_each(|(x, o)| *x = o),
                degree => {
                    let inv = 0.4 / degree as f32;
                    out.iter_mut()
                        .zip(own)
                        .for_each(|(x, o)| *x = 0.6 * o + inv * *x);
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi, rmat, RmatParams};
    use proptest::prelude::*;

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
            .flat_map(|u| {
                let mut r = StdRng::seed_from_u64(seed ^ 0xabcd_ef12u64 ^ ((u as u64) << 17));
                let c = labels[u] as usize;
                let centroids = &centroids;
                (0..dim)
                    .map(|j| centroids[c * dim + j] + noise * (r.gen::<f32>() * 2.0 - 1.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let data: Vec<f32> = (0..n)
            .flat_map(|u| {
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

    fn assert_bits_equal(got: &FeatureStore, want: &FeatureStore) {
        assert_eq!(got.num_nodes(), want.num_nodes());
        for u in 0..got.num_nodes() as NodeId {
            assert_eq!(got.label(u), want.label(u));
            let bits = |f: &FeatureStore| f.row(u).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "node {u}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pushed smoothing against the pulled reference, on sparse
        /// graphs with isolated nodes, heavy-tailed ones with hubs and
        /// preferential attachment, at every range split up to four: by
        /// the pool's cap (as wide as the pool goes) and named directly.
        #[test]
        fn pushed_synthesis_matches_the_reference_bit_for_bit(
            shape in 0u8..3,
            n in 8usize..300,
            dim in prop_oneof![Just(1usize), Just(13), Just(128)],
            classes in 2usize..6,
            ranges in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
            let g = match shape {
                0 => erdos_renyi(n, n / 2, seed),
                1 => rmat(n, 4 * n, RmatParams::default(), seed),
                _ => barabasi_albert(n, 1 + (seed % 3) as usize, seed),
            };
            let want = synthesize_reference(&g, dim, classes, seed);
            let capped = rayon::pool::with_max_threads(ranges, || {
                FeatureStore::synthesize(&g, dim, classes, seed)
            });
            assert_bits_equal(&capped, &want);
            let dirty = vec![f32::NAN; g.num_nodes() * dim];
            let split = FeatureStore::synthesize_split(&g, dim, classes, seed, ranges, dirty);
            assert_bits_equal(&split, &want);
        }
    }

    /// The push needs `v ∈ N(u)` exactly when `u ∈ N(v)`; only debug
    /// builds check it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "symmetric graph")]
    fn synthesis_rejects_an_asymmetric_graph() {
        // 0 → 1 and 1 → 2, with no edge back.
        let g = CsrGraph::from_parts_unchecked(vec![0, 1, 2, 2], vec![1, 2]);
        FeatureStore::synthesize(&g, 4, 2, 1);
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
