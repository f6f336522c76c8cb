//! OGB-lookalike dataset presets (Table II of the paper).
//!
//! | Dataset  | Nodes  | Edges  | Feat dim | classes |
//! |----------|--------|--------|----------|---------|
//! | arxiv    | 0.16M  | 1.16M  | 128      | 40      |
//! | products | 2.4M   | 61.85M | 100      | 47      |
//! | reddit   | 0.23M  | 114.61M| 602      | 41      |
//! | papers   | 111M   | 1.6B   | 128      | 172     |
//!
//! A [`Scale`] divides node/edge counts while preserving *average degree*
//! (the property that drives neighborhood sampling and halo traffic) and the
//! exact feature dimension and class count. `Scale::Unit` is for unit tests,
//! `Scale::Small` for integration tests and examples, `Scale::Bench` for the
//! figure-reproduction harness.

use crate::csr::{CsrGraph, NodeId};
use crate::features::FeatureStore;
use crate::generators::{barabasi_albert, erdos_renyi, rmat, RmatParams};

/// Which OGB dataset a preset imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// `ogbn-arxiv`: small, sparse (avg deg ≈ 7 undirected), large diameter.
    Arxiv,
    /// `ogbn-products`: co-purchase, heavy-tailed, avg deg ≈ 52.
    Products,
    /// `reddit`: extremely dense, avg deg ≈ 500 (capped in presets), flat core.
    Reddit,
    /// `ogbn-papers100M`: huge citation graph, avg deg ≈ 29, heavy-tailed.
    Papers,
}

impl DatasetKind {
    /// All four paper datasets in Table II order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Arxiv,
        DatasetKind::Products,
        DatasetKind::Reddit,
        DatasetKind::Papers,
    ];

    /// Lower-case name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Arxiv => "arxiv",
            DatasetKind::Products => "products",
            DatasetKind::Reddit => "reddit",
            DatasetKind::Papers => "papers",
        }
    }

    /// Paper-reported node count (Table II).
    pub fn paper_nodes(&self) -> u64 {
        match self {
            DatasetKind::Arxiv => 160_000,
            DatasetKind::Products => 2_400_000,
            DatasetKind::Reddit => 230_000,
            DatasetKind::Papers => 111_000_000,
        }
    }

    /// Paper-reported edge count (Table II).
    pub fn paper_edges(&self) -> u64 {
        match self {
            DatasetKind::Arxiv => 1_160_000,
            DatasetKind::Products => 61_850_000,
            DatasetKind::Reddit => 114_610_000,
            DatasetKind::Papers => 1_600_000_000,
        }
    }

    /// Feature dimension (Table II, exact).
    pub fn feature_dim(&self) -> usize {
        match self {
            DatasetKind::Arxiv => 128,
            DatasetKind::Products => 100,
            DatasetKind::Reddit => 602,
            DatasetKind::Papers => 128,
        }
    }

    /// Class count of the node-classification task.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetKind::Arxiv => 40,
            DatasetKind::Products => 47,
            DatasetKind::Reddit => 41,
            DatasetKind::Papers => 172,
        }
    }

    /// Paper average undirected degree = E/V (directed-edge count / nodes).
    pub fn paper_avg_degree(&self) -> f64 {
        self.paper_edges() as f64 / self.paper_nodes() as f64
    }
}

/// How much to shrink the paper's dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: for unit tests (~1–4K nodes).
    Unit,
    /// Small: integration tests & quickstart (~8–30K nodes).
    Small,
    /// Bench: figure-reproduction harness (~30–120K nodes).
    Bench,
    /// Custom divisor applied to the paper node count (min 1K nodes).
    Custom(u64),
}

impl Scale {
    fn nodes_for(&self, kind: DatasetKind) -> usize {
        match self {
            Scale::Unit => match kind {
                DatasetKind::Arxiv => 2_000,
                DatasetKind::Products => 3_000,
                DatasetKind::Reddit => 1_500,
                DatasetKind::Papers => 4_000,
            },
            Scale::Small => match kind {
                DatasetKind::Arxiv => 12_000,
                DatasetKind::Products => 20_000,
                DatasetKind::Reddit => 8_000,
                DatasetKind::Papers => 30_000,
            },
            Scale::Bench => match kind {
                DatasetKind::Arxiv => 30_000,
                DatasetKind::Products => 60_000,
                DatasetKind::Reddit => 20_000,
                DatasetKind::Papers => 120_000,
            },
            Scale::Custom(div) => ((kind.paper_nodes() / div.max(&1)) as usize).max(1_000),
        }
    }
}

/// A fully materialized dataset: graph + features + train/val/test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which paper dataset this imitates.
    pub kind: DatasetKind,
    /// The (undirected, symmetrized) graph.
    pub graph: CsrGraph,
    /// Node features and labels.
    pub features: FeatureStore,
    /// Node ids used for training (the classification task's train split).
    pub train_nodes: Vec<u32>,
    /// Validation split.
    pub val_nodes: Vec<u32>,
    /// Test split.
    pub test_nodes: Vec<u32>,
}

/// The structural half of a [`Dataset`]: graph and train/val/test split —
/// everything partitioning and halo construction read — before the
/// feature matrix, the largest object of a run, exists. Synthesizing the
/// features ([`DatasetGraph::features`]) only reads the graph, so a
/// caller can partition it at the same time, then complete the dataset
/// with [`DatasetGraph::with_features`].
#[derive(Debug, Clone)]
pub struct DatasetGraph {
    /// Which paper dataset this imitates.
    pub kind: DatasetKind,
    /// The (undirected, symmetrized) graph.
    pub graph: CsrGraph,
    /// Node ids used for training (the classification task's train split).
    pub train_nodes: Vec<u32>,
    /// Validation split.
    pub val_nodes: Vec<u32>,
    /// Test split.
    pub test_nodes: Vec<u32>,
    seed: u64,
}

impl DatasetGraph {
    /// Generate the graph and split of the preset for `kind` at `scale`
    /// with deterministic `seed`.
    pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> DatasetGraph {
        let n = scale.nodes_for(kind);
        // Preserve paper average degree, but cap reddit's (avg ~498) to keep
        // test-scale graphs tractable; density regime is still "very dense".
        let avg_deg = match kind {
            DatasetKind::Reddit => kind.paper_avg_degree().min(120.0),
            _ => kind.paper_avg_degree(),
        };
        // undirected edges to request = n * avg_deg / 2 (builder symmetrizes).
        let m = ((n as f64 * avg_deg) / 2.0).round() as usize;

        let graph = match kind {
            DatasetKind::Arxiv => {
                // BA with m = avg_deg/2 rounded: sparse, power-law, big diameter.
                let ba_m = ((avg_deg / 2.0).round() as usize).max(2);
                barabasi_albert(n, ba_m, seed)
            }
            DatasetKind::Products => rmat(n, m, RmatParams::default(), seed),
            DatasetKind::Reddit => {
                // Dense flat core: ER dominates, with an RMAT overlay for a
                // modest heavy tail (reddit does have hubs).
                let core = erdos_renyi(n, (m as f64 * 0.7) as usize, seed);
                let tail = rmat(
                    n,
                    (m as f64 * 0.3) as usize,
                    RmatParams::default(),
                    seed ^ 0x5eed,
                );
                merge(core, tail)
            }
            DatasetKind::Papers => rmat(
                n,
                m,
                RmatParams {
                    a: 0.55,
                    b: 0.2,
                    c: 0.2,
                    noise: 0.1,
                },
                seed,
            ),
        };

        // Deterministic 60/20/20 split by hashed node id (OGB splits are
        // fixed per dataset; a hash split is the seedable equivalent).
        let mut train = Vec::new();
        let mut val = Vec::new();
        let mut test = Vec::new();
        for u in 0..n as u32 {
            let h = splitmix(seed ^ 0x51_71 ^ u as u64) % 100;
            if h < 60 {
                train.push(u);
            } else if h < 80 {
                val.push(u);
            } else {
                test.push(u);
            }
        }

        DatasetGraph {
            kind,
            graph,
            train_nodes: train,
            val_nodes: val,
            test_nodes: test,
            seed,
        }
    }

    /// Synthesize the features and labels that belong to this graph and
    /// seed.
    pub fn features(&self) -> FeatureStore {
        FeatureStore::synthesize(
            &self.graph,
            self.kind.feature_dim(),
            self.kind.num_classes(),
            self.seed ^ 0xfeed,
        )
    }

    /// Complete the [`Dataset`] with `features`, what
    /// [`DatasetGraph::features`] synthesized for this graph.
    pub fn with_features(self, features: FeatureStore) -> Dataset {
        debug_assert_eq!(features.num_nodes(), self.graph.num_nodes());
        Dataset {
            kind: self.kind,
            graph: self.graph,
            features,
            train_nodes: self.train_nodes,
            val_nodes: self.val_nodes,
            test_nodes: self.test_nodes,
        }
    }
}

impl Dataset {
    /// Generate the preset for `kind` at `scale` with deterministic `seed`:
    /// [`DatasetGraph::generate`], then its features.
    pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> Dataset {
        let graph = DatasetGraph::generate(kind, scale, seed);
        let features = graph.features();
        graph.with_features(features)
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
}

/// The union of two canonical graphs on the same nodes, row by row: both
/// rows are ascending, deduplicated and loop-free, so one merge pass emits
/// their ascending union (an edge in both, once). The overlap's slots stay
/// as spare capacity.
fn merge(a: CsrGraph, b: CsrGraph) -> CsrGraph {
    assert_eq!(a.num_nodes(), b.num_nodes());
    let mut offsets = Vec::with_capacity(a.num_nodes() + 1);
    offsets.push(0u64);
    let mut targets = Vec::with_capacity(a.num_edges() + b.num_edges());
    for u in 0..a.num_nodes() as NodeId {
        let (mut x, mut y) = (a.neighbors(u), b.neighbors(u));
        while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
            targets.push(p.min(q));
            if p <= q {
                x = &x[1..];
            }
            if q <= p {
                y = &y[1..];
            }
        }
        targets.extend_from_slice(x);
        targets.extend_from_slice(y);
        offsets.push(targets.len() as u64);
    }
    CsrGraph::from_parts_unchecked(offsets, targets)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate_at_unit_scale() {
        for kind in DatasetKind::ALL {
            let d = Dataset::generate(kind, Scale::Unit, 42);
            assert!(d.num_nodes() >= 1_000, "{}", kind.name());
            assert_eq!(d.features.dim(), kind.feature_dim());
            assert_eq!(d.features.num_classes(), kind.num_classes());
            assert!(d.graph.validate().is_ok());
            assert!(d.graph.is_symmetric());
        }
    }

    #[test]
    fn split_partitions_nodes() {
        let d = Dataset::generate(DatasetKind::Arxiv, Scale::Unit, 7);
        let total = d.train_nodes.len() + d.val_nodes.len() + d.test_nodes.len();
        assert_eq!(total, d.num_nodes());
        // Roughly 60/20/20.
        let frac = d.train_nodes.len() as f64 / total as f64;
        assert!((0.5..0.7).contains(&frac), "train fraction {frac}");
    }

    #[test]
    fn avg_degree_tracks_paper() {
        let d = Dataset::generate(DatasetKind::Products, Scale::Unit, 3);
        let avg = d.graph.avg_degree();
        let paper = DatasetKind::Products.paper_avg_degree();
        // Within 2x (dedup and rejection sampling shave edges).
        assert!(
            avg > paper * 0.5 && avg < paper * 2.0,
            "avg {avg} vs paper {paper}"
        );
    }

    #[test]
    fn deterministic() {
        let a = Dataset::generate(DatasetKind::Arxiv, Scale::Unit, 5);
        let b = Dataset::generate(DatasetKind::Arxiv, Scale::Unit, 5);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.train_nodes, b.train_nodes);
    }

    #[test]
    fn graph_half_is_the_datasets_graph_and_split() {
        for kind in [DatasetKind::Arxiv, DatasetKind::Reddit] {
            let half = DatasetGraph::generate(kind, Scale::Unit, 11);
            let full = Dataset::generate(kind, Scale::Unit, 11);
            assert_eq!(half.graph, full.graph);
            assert_eq!(half.train_nodes, full.train_nodes);
            assert_eq!(half.val_nodes, full.val_nodes);
            assert_eq!(half.test_nodes, full.test_nodes);
            assert_eq!(half.features(), full.features);
        }
    }

    #[test]
    fn arxiv_is_sparser_than_products() {
        let a = Dataset::generate(DatasetKind::Arxiv, Scale::Unit, 1);
        let p = Dataset::generate(DatasetKind::Products, Scale::Unit, 1);
        assert!(a.graph.avg_degree() < p.graph.avg_degree());
    }

    #[test]
    fn custom_scale_respects_divisor() {
        let d = Dataset::generate(DatasetKind::Papers, Scale::Custom(50_000), 1);
        // 111M / 50k = 2220 -> clamped to min 1000... actually 2220 nodes.
        assert!(d.num_nodes() >= 1_000 && d.num_nodes() <= 3_000);
    }

    #[test]
    fn table2_paper_stats() {
        assert_eq!(DatasetKind::Papers.paper_nodes(), 111_000_000);
        assert!((DatasetKind::Arxiv.paper_avg_degree() - 7.25).abs() < 0.01);
    }
}
