//! Set-up identity: `Dataset::generate`, `multilevel_partition` and
//! `build_local_partitions` must keep producing the exact bits they
//! produced before their memory footprint was cut. The dataset and
//! partition columns below were recorded on commit `32e4ef1` with
//! [`print_setup_fingerprints`], the halo-view column and the
//! Papers/Bench row on `335fda1`; a rewrite of the builder, the R-MAT
//! generator, `FeatureStore::synthesize`, any stage of the partitioner or
//! the halo views has to reproduce every row. `Engine::build`, which
//! synthesizes the features on a second thread while it partitions, has
//! to assemble what these stages make one after another.

use massivegnn::{Engine, EngineConfig};
use mgnn_graph::{CsrGraph, Dataset, DatasetGraph, DatasetKind, FeatureStore, Scale};
use mgnn_partition::{
    build_local_partitions, multilevel_partition, split_train_nodes, LocalPartition, Partitioning,
};
use std::borrow::Borrow;
use std::sync::Arc;

/// 64-bit FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        // Length first, so moving an element between two adjacent
        // sequences changes the fingerprint.
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn u64s(&mut self, xs: &[u64]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Offsets, targets, feature bits, labels, splits.
fn dataset_fingerprint(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    graph_fingerprint(&mut h, &d.graph);
    let nodes = || 0..d.graph.num_nodes() as u32;
    let rows: Vec<f32> = nodes().flat_map(|u| d.features.row(u)).copied().collect();
    h.f32s(&rows);
    h.u32s(&nodes().map(|u| d.features.label(u)).collect::<Vec<_>>());
    h.u32s(&d.train_nodes);
    h.u32s(&d.val_nodes);
    h.u32s(&d.test_nodes);
    h.0
}

/// Offsets, targets.
fn graph_fingerprint(h: &mut Fnv, g: &CsrGraph) {
    h.u64s(g.offsets());
    h.u32s(g.targets());
}

fn assignment_fingerprint(assignment: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.u32s(assignment);
    h.0
}

/// Every partition's local and halo ids, halo owners and degrees, local
/// CSR and train nodes.
fn views_fingerprint(graph: &CsrGraph, p: &Partitioning, train: &[u32]) -> u64 {
    local_views_fingerprint(&build_local_partitions(graph, p, train))
}

fn local_views_fingerprint<V: Borrow<LocalPartition>>(views: &[V]) -> u64 {
    let mut h = Fnv::new();
    for view in views {
        let view: &LocalPartition = view.borrow();
        h.u32s(&[view.part_id]);
        h.u32s(&view.local_nodes);
        h.u32s(&view.halo_nodes);
        h.u32s(&view.halo_owner);
        h.u32s(&view.halo_degree);
        graph_fingerprint(&mut h, &view.graph);
        h.u32s(&view.train_nodes);
    }
    h.0
}

const SEEDS: [u64; 2] = [1, 42];
const PARTS: [usize; 2] = [2, 4];
const SCALES: [Scale; 2] = [Scale::Unit, Scale::Small];

/// `(dataset, partition into 2 and 4, halo views of each)` fingerprints.
fn fingerprints(kind: DatasetKind, scale: Scale, seed: u64) -> (u64, [u64; 2], [u64; 2]) {
    let d = Dataset::generate(kind, scale, seed);
    let partitions = PARTS.map(|k| multilevel_partition(&d.graph, k, seed));
    let parts = partitions
        .each_ref()
        .map(|p| assignment_fingerprint(&p.assignment));
    let views = partitions
        .each_ref()
        .map(|p| views_fingerprint(&d.graph, p, &d.train_nodes));
    (dataset_fingerprint(&d), parts, views)
}

struct Row {
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    dataset: u64,
    parts: [u64; 2],
    views: [u64; 2],
}

const fn row(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    dataset: u64,
    parts: [u64; 2],
    views: [u64; 2],
) -> Row {
    Row {
        kind,
        scale,
        seed,
        dataset,
        parts,
        views,
    }
}

use DatasetKind::{Arxiv, Papers, Products, Reddit};
use Scale::{Small, Unit};

/// Recorded on the parent commit; regenerate only for a change that is
/// *meant* to alter the data (and say so in CHANGES.md).
#[rustfmt::skip]
const PARENT: [Row; 16] = [
    row(Arxiv, Unit, 1, 0xe380807b3e672694, [0x7adf361e224062d8, 0xc897ac4a48656708], [0xd0776b3239f34d38, 0xc6ef75c707ccc8f6]),
    row(Arxiv, Unit, 42, 0x06e7706c72eb2223, [0xd3d99bcc424034d8, 0x611970080536f808], [0x261fa909e5f72b28, 0x5a71d8bbb396e7af]),
    row(Arxiv, Small, 1, 0xeaa483d1a02c3766, [0xeec64bf87fdcd14b, 0x9a749eadcfeafbdb], [0x7e953e5aeba21118, 0x440fdaad548c146f]),
    row(Arxiv, Small, 42, 0xab95eebb5d510daf, [0x9c039cc87669cb6b, 0x43e7051e53aba9cb], [0xe06f4c803015324f, 0x4e06032ea54ebc63]),
    row(Products, Unit, 1, 0x409db06e71678bac, [0x62384e64b1b5a005, 0x590bc4045631a987], [0xdc10db29dfdeee02, 0xf2bc5178f7bacb88]),
    row(Products, Unit, 42, 0x9a696824934958da, [0xf2f9c5e572b73f55, 0x5949a6e67665e387], [0x0196dd999b3775a0, 0x028c4fe57c18dfd6]),
    row(Products, Small, 1, 0xcc695ad2687c3144, [0xa4f941734b46f1db, 0xd500a23a8bfd968a], [0xa3a12efcbb21ec4c, 0x4c92d62b27016547]),
    row(Products, Small, 42, 0x842c733a2d30983d, [0x5dfdaaa7e29b3e2b, 0xcac2fd380d74eabb], [0x11e5e1509c7c83e8, 0xc7c600e8d05ea6f0]),
    row(Reddit, Unit, 1, 0xb30ecfe4993caabc, [0x621840527ea7578a, 0x7b80b1a1cc7629fa], [0x8da274764a86ef0c, 0x3ca0ac07305e9e3a]),
    row(Reddit, Unit, 42, 0x630d026f932bd649, [0x476156b421fa28ba, 0x2c828e8163d7e35a], [0x9e5bbd2f01df9076, 0xdbdb16bac979639d]),
    row(Reddit, Small, 1, 0x58dbfe4079add144, [0xf022869d55dc18f0, 0x990de2df437d0950], [0x3849a74c73357865, 0x2544e335c539adef]),
    row(Reddit, Small, 42, 0xf8ccabb82e490d11, [0xef8c4d0bf7c68ce0, 0x76f7bac9707bdd00], [0xc891a73f14e4bd16, 0xd8af7b9747707f8a]),
    row(Papers, Unit, 1, 0x61be52799ee6b7da, [0x9f38408a63194710, 0x159bd9df57017721], [0x921bc00c7d10968a, 0x3399f2141e60873c]),
    row(Papers, Unit, 42, 0x11dec8c2521f00a2, [0x684764dda6888910, 0x0e309f576b2f8ff1], [0x00915e32c1c4f463, 0x07e0896a12ed826f]),
    row(Papers, Small, 1, 0x7415065d8cd2abe3, [0xa0202f576361ed0e, 0x0b7f5793b0a1b01e], [0x83d1e8a2c2173775, 0x3fc50590565c8bf3]),
    row(Papers, Small, 42, 0xa6571cd070451bc1, [0xb56ad8a3d9aeb61e, 0x7ec75cfb36e06a4f], [0x1f713dd9fb70cf24, 0x17ed3f1c5a7127ce]),
];

/// Every row of `kind` (one test per kind, so they run side by side).
fn reproduces_the_parent_bits(kind: DatasetKind) {
    for r in PARENT.iter().filter(|r| r.kind == kind) {
        let (dataset, parts, views) = fingerprints(r.kind, r.scale, r.seed);
        let at = format!("{} {:?} seed {}", r.kind.name(), r.scale, r.seed);
        assert_eq!(dataset, r.dataset, "Dataset::generate moved: {at}");
        for (i, k) in PARTS.iter().enumerate() {
            assert_eq!(
                parts[i], r.parts[i],
                "multilevel_partition moved: {at}, {k} parts"
            );
            assert_eq!(
                views[i], r.views[i],
                "build_local_partitions moved: {at}, {k} parts"
            );
        }
    }
}

/// Papers/Bench at 4 parts — the benchmark's largest shape, whose
/// coarsening stalls over 7 levels: `(graph and splits, partition, halo
/// views)`. The features are left out; the table above covers them.
fn papers_bench_fingerprints() -> [u64; 3] {
    let d = DatasetGraph::generate(Papers, Scale::Bench, 42);
    let mut graph = Fnv::new();
    graph_fingerprint(&mut graph, &d.graph);
    graph.u32s(&d.train_nodes);
    graph.u32s(&d.val_nodes);
    graph.u32s(&d.test_nodes);
    let p = multilevel_partition(&d.graph, 4, 42);
    [
        graph.0,
        assignment_fingerprint(&p.assignment),
        views_fingerprint(&d.graph, &p, &d.train_nodes),
    ]
}

/// Recorded on `335fda1`.
const PARENT_PAPERS_BENCH: [u64; 3] = [0x00ff2fda9546a71c, 0x3af08ccc6fd83e61, 0x5907837a40d0357b];

#[test]
fn papers_bench_setup_reproduces_the_parent_bits() {
    assert_eq!(papers_bench_fingerprints(), PARENT_PAPERS_BENCH);
}

#[test]
fn arxiv_setup_reproduces_the_parent_bits() {
    reproduces_the_parent_bits(Arxiv);
}

#[test]
fn products_setup_reproduces_the_parent_bits() {
    reproduces_the_parent_bits(Products);
}

#[test]
fn reddit_setup_reproduces_the_parent_bits() {
    reproduces_the_parent_bits(Reddit);
}

#[test]
fn papers_setup_reproduces_the_parent_bits() {
    reproduces_the_parent_bits(Papers);
}

#[test]
fn table_covers_every_kind_scale_and_seed() {
    let mut want = Vec::new();
    for kind in DatasetKind::ALL {
        for scale in SCALES {
            for seed in SEEDS {
                want.push((kind, scale, seed));
            }
        }
    }
    let have: Vec<_> = PARENT.iter().map(|r| (r.kind, r.scale, r.seed)).collect();
    assert_eq!(have, want);
}

#[test]
fn the_overlapped_build_assembles_what_the_stages_make_one_after_another() {
    for (kind, scale, num_parts, trainers_per_part) in [(Papers, Small, 4, 2), (Reddit, Unit, 3, 1)]
    {
        let cfg = EngineConfig {
            dataset: kind,
            scale,
            num_parts,
            trainers_per_part,
            seed: 42,
            ..Default::default()
        };
        let engine = Engine::build(cfg.clone());
        let at = format!("{} {scale:?} at {num_parts} parts", kind.name());

        // generate → partition → features → halo views → trainer shards.
        let topology = DatasetGraph::generate(kind, scale, cfg.seed);
        let p = multilevel_partition(&topology.graph, num_parts, cfg.seed);
        let features = topology.features();
        let d = topology.with_features(features);
        let views = build_local_partitions(&d.graph, &p, &d.train_nodes);

        // The engine keeps the features and the validation split; every
        // local node of a view keeps all its edges, so the views hold the
        // global graph, which the engine itself does not keep.
        let (features, val_nodes) = engine.eval_data();
        let nodes = || 0..d.num_nodes() as u32;
        let bits = |f: &FeatureStore| -> Vec<u32> {
            nodes()
                .flat_map(|u| f.row(u))
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(features), bits(&d.features), "feature bits: {at}");
        let labels = |f: &FeatureStore| nodes().map(|u| f.label(u)).collect::<Vec<_>>();
        assert_eq!(labels(features), labels(&d.features), "labels: {at}");
        assert_eq!(val_nodes, d.val_nodes, "validation split: {at}");
        assert_eq!(
            graph_from_views(engine.partitions(), d.num_nodes()),
            (d.graph.offsets().to_vec(), d.graph.targets().to_vec()),
            "graph: {at}"
        );
        let mut assignment = vec![u32::MAX; d.num_nodes()];
        for view in engine.partitions() {
            for &u in &view.local_nodes {
                assignment[u as usize] = view.part_id;
            }
        }
        assert_eq!(assignment, p.assignment, "assignment: {at}");
        assert_eq!(
            local_views_fingerprint(engine.partitions()),
            local_views_fingerprint(&views),
            "halo views: {at}"
        );
        // Each trainer's shard, as the set of seeds its loader deals out;
        // the split is seeded per partition as `Engine::build_with` seeds it.
        let mut want = Vec::new();
        for view in &views {
            let pid = u64::from(view.part_id);
            let seed = cfg.seed ^ pid.wrapping_mul(0x9e37);
            for shard in split_train_nodes(&view.train_nodes, trainers_per_part, seed) {
                let mut local: Vec<u32> =
                    shard.iter().map(|&u| view.local_id(u).unwrap()).collect();
                local.sort_unstable();
                want.push((view.part_id, local));
            }
        }
        let have: Vec<_> = (0..engine.world())
            .map(|t| {
                let (view, loader, _) = engine.trainer_inputs(t);
                let mut seeds: Vec<u32> = loader
                    .epoch(0)
                    .iter()
                    .flat_map(|b| b.iter().copied())
                    .collect();
                seeds.sort_unstable();
                (view.part_id, seeds)
            })
            .collect();
        assert_eq!(have, want, "trainer shards: {at}");
    }
}

/// The global graph's offsets and targets, read back from `views`: every
/// node is local to one view, which keeps all its edges.
fn graph_from_views(views: &[Arc<LocalPartition>], num_nodes: usize) -> (Vec<u64>, Vec<u32>) {
    let mut rows = vec![Vec::new(); num_nodes];
    for view in views {
        for (l, &u) in view.local_nodes.iter().enumerate() {
            let neighbours = view.graph.neighbors(l as u32);
            let row: &mut Vec<u32> = &mut rows[u as usize];
            row.extend(neighbours.iter().map(|&v| view.global_id(v)));
            row.sort_unstable();
        }
    }
    let mut offsets = vec![0u64];
    let mut targets = Vec::new();
    for row in rows {
        targets.extend(row);
        offsets.push(targets.len() as u64);
    }
    (offsets, targets)
}

/// `cargo test --release -p mgnn-bench --test integration_setup -- --ignored --nocapture`
/// prints the table in source form.
#[test]
#[ignore = "prints the fingerprint table; run on the commit whose bits are the reference"]
fn print_setup_fingerprints() {
    for kind in DatasetKind::ALL {
        for scale in SCALES {
            for seed in SEEDS {
                let (dataset, parts, views) = fingerprints(kind, scale, seed);
                println!(
                    "    row({kind:?}, {scale:?}, {seed}, {dataset:#018x}, [{:#018x}, {:#018x}], [{:#018x}, {:#018x}]),",
                    parts[0], parts[1], views[0], views[1]
                );
            }
        }
    }
    let [graph, part, views] = papers_bench_fingerprints();
    println!("const PARENT_PAPERS_BENCH: [u64; 3] = [{graph:#018x}, {part:#018x}, {views:#018x}];");
}
