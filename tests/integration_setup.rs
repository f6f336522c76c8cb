//! Set-up identity: `Dataset::generate` and `multilevel_partition` must
//! keep producing the exact bits they produced before their memory
//! footprint was cut (PR 13). The table below was recorded on the parent
//! commit (`32e4ef1`) with [`print_setup_fingerprints`]; a rewrite of the
//! builder, the R-MAT generator, `FeatureStore::synthesize` or any stage
//! of the partitioner has to reproduce every row.

use mgnn_graph::{Dataset, DatasetKind, Scale};
use mgnn_partition::multilevel_partition;

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
    h.u64s(d.graph.offsets());
    h.u32s(d.graph.targets());
    let nodes = || 0..d.graph.num_nodes() as u32;
    let rows: Vec<f32> = nodes().flat_map(|u| d.features.row(u)).copied().collect();
    h.f32s(&rows);
    h.u32s(&nodes().map(|u| d.features.label(u)).collect::<Vec<_>>());
    h.u32s(&d.train_nodes);
    h.u32s(&d.val_nodes);
    h.u32s(&d.test_nodes);
    h.0
}

fn assignment_fingerprint(assignment: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.u32s(assignment);
    h.0
}

const SEEDS: [u64; 2] = [1, 42];
const PARTS: [usize; 2] = [2, 4];
const SCALES: [Scale; 2] = [Scale::Unit, Scale::Small];

/// `(dataset, partition into 2, partition into 4)` fingerprints.
fn fingerprints(kind: DatasetKind, scale: Scale, seed: u64) -> (u64, [u64; 2]) {
    let d = Dataset::generate(kind, scale, seed);
    let parts =
        PARTS.map(|k| assignment_fingerprint(&multilevel_partition(&d.graph, k, seed).assignment));
    (dataset_fingerprint(&d), parts)
}

struct Row {
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    dataset: u64,
    parts: [u64; 2],
}

const fn row(kind: DatasetKind, scale: Scale, seed: u64, dataset: u64, parts: [u64; 2]) -> Row {
    Row {
        kind,
        scale,
        seed,
        dataset,
        parts,
    }
}

use DatasetKind::{Arxiv, Papers, Products, Reddit};
use Scale::{Small, Unit};

/// Recorded on the parent commit; regenerate only for a change that is
/// *meant* to alter the data (and say so in CHANGES.md).
#[rustfmt::skip]
const PARENT: [Row; 16] = [
    row(Arxiv, Unit, 1, 0xe380807b3e672694, [0x7adf361e224062d8, 0xc897ac4a48656708]),
    row(Arxiv, Unit, 42, 0x06e7706c72eb2223, [0xd3d99bcc424034d8, 0x611970080536f808]),
    row(Arxiv, Small, 1, 0xeaa483d1a02c3766, [0xeec64bf87fdcd14b, 0x9a749eadcfeafbdb]),
    row(Arxiv, Small, 42, 0xab95eebb5d510daf, [0x9c039cc87669cb6b, 0x43e7051e53aba9cb]),
    row(Products, Unit, 1, 0x409db06e71678bac, [0x62384e64b1b5a005, 0x590bc4045631a987]),
    row(Products, Unit, 42, 0x9a696824934958da, [0xf2f9c5e572b73f55, 0x5949a6e67665e387]),
    row(Products, Small, 1, 0xcc695ad2687c3144, [0xa4f941734b46f1db, 0xd500a23a8bfd968a]),
    row(Products, Small, 42, 0x842c733a2d30983d, [0x5dfdaaa7e29b3e2b, 0xcac2fd380d74eabb]),
    row(Reddit, Unit, 1, 0xb30ecfe4993caabc, [0x621840527ea7578a, 0x7b80b1a1cc7629fa]),
    row(Reddit, Unit, 42, 0x630d026f932bd649, [0x476156b421fa28ba, 0x2c828e8163d7e35a]),
    row(Reddit, Small, 1, 0x58dbfe4079add144, [0xf022869d55dc18f0, 0x990de2df437d0950]),
    row(Reddit, Small, 42, 0xf8ccabb82e490d11, [0xef8c4d0bf7c68ce0, 0x76f7bac9707bdd00]),
    row(Papers, Unit, 1, 0x61be52799ee6b7da, [0x9f38408a63194710, 0x159bd9df57017721]),
    row(Papers, Unit, 42, 0x11dec8c2521f00a2, [0x684764dda6888910, 0x0e309f576b2f8ff1]),
    row(Papers, Small, 1, 0x7415065d8cd2abe3, [0xa0202f576361ed0e, 0x0b7f5793b0a1b01e]),
    row(Papers, Small, 42, 0xa6571cd070451bc1, [0xb56ad8a3d9aeb61e, 0x7ec75cfb36e06a4f]),
];

/// Every row of `kind` (one test per kind, so they run side by side).
fn reproduces_the_parent_bits(kind: DatasetKind) {
    for r in PARENT.iter().filter(|r| r.kind == kind) {
        let (dataset, parts) = fingerprints(r.kind, r.scale, r.seed);
        let at = format!("{} {:?} seed {}", r.kind.name(), r.scale, r.seed);
        assert_eq!(dataset, r.dataset, "Dataset::generate moved: {at}");
        for (i, k) in PARTS.iter().enumerate() {
            assert_eq!(
                parts[i], r.parts[i],
                "multilevel_partition moved: {at}, {k} parts"
            );
        }
    }
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

/// `cargo test --release -p mgnn-bench --test integration_setup -- --ignored --nocapture`
/// prints the table in source form.
#[test]
#[ignore = "prints the fingerprint table; run on the commit whose bits are the reference"]
fn print_setup_fingerprints() {
    for kind in DatasetKind::ALL {
        for scale in SCALES {
            for seed in SEEDS {
                let (dataset, parts) = fingerprints(kind, scale, seed);
                println!(
                    "    row({kind:?}, {scale:?}, {seed}, {dataset:#018x}, [{:#018x}, {:#018x}]),",
                    parts[0], parts[1]
                );
            }
        }
    }
}
