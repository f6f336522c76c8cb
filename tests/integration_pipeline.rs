//! Cross-crate integration: dataset → partition → cluster → sampler →
//! prefetcher, verifying that data stays consistent across every layer
//! boundary (the features a trainer assembles must equal ground truth —
//! local rows as stored, halo rows as the wire format rounds them —
//! regardless of whether they came from the local KVStore, the prefetch
//! buffer, or a remote fetch).

use massivegnn::init::initialize_prefetcher;
use massivegnn::prefetcher::{baseline_prepare_reuse, PrepareScratch};
use massivegnn::PrefetchConfig;
use mgnn_graph::{Dataset, DatasetKind, Scale};
use mgnn_model::{Model, SageModel};
use mgnn_net::{
    wire, CommMetrics, CostModel, FaultProfile, MetricsSnapshot, RetryPolicy, SimCluster,
};
use mgnn_partition::{build_local_partitions, multilevel_partition};
use mgnn_sampling::NeighborSampler;
use mgnn_tensor::loss::cross_entropy;
use mgnn_tensor::Tensor;
use std::sync::Arc;

struct Fixture {
    dataset: Dataset,
    cluster: Arc<SimCluster>,
    parts: Vec<mgnn_partition::LocalPartition>,
}

/// What a halo row must equal after its one trip over the wire, exactly.
fn on_wire(row: &[f32]) -> Vec<f32> {
    row.iter().map(|&x| wire::round_trip(x)).collect()
}

fn fixture(kind: DatasetKind) -> Fixture {
    fixture_of(kind, 3)
}

fn fixture_of(kind: DatasetKind, num_parts: usize) -> Fixture {
    let dataset = Dataset::generate(kind, Scale::Unit, 77);
    let partitioning = multilevel_partition(&dataset.graph, num_parts, 77);
    let cluster = Arc::new(SimCluster::new(
        &dataset.features,
        &partitioning.assignment,
        num_parts,
    ));
    let parts = build_local_partitions(&dataset.graph, &partitioning, &dataset.train_nodes);
    Fixture {
        dataset,
        cluster,
        parts,
    }
}

#[test]
fn prefetched_features_match_ground_truth_across_modes() {
    let fx = fixture(DatasetKind::Products);
    let cost = CostModel::default();
    for part in &fx.parts {
        if part.train_nodes.is_empty() {
            continue;
        }
        let seeds: Vec<u32> = part
            .train_nodes
            .iter()
            .take(32)
            .map(|&g| part.local_id(g).unwrap())
            .collect();
        let sampler = NeighborSampler::new(vec![5, 10], 9);
        let metrics = CommMetrics::new();
        let (mut pf, _) = initialize_prefetcher(
            part,
            PrefetchConfig {
                f_h: 0.3,
                delta: 2,
                gamma: 0.9,
                ..Default::default()
            },
            fx.dataset.num_nodes(),
            &fx.cluster,
            &cost,
            &metrics,
        );
        for step in 0..6u64 {
            let batch = pf.prepare_reuse(
                None,
                part,
                &sampler,
                &seeds,
                0,
                step,
                &fx.cluster,
                &cost,
                &metrics,
            );
            // Every assembled input row must equal the global feature
            // store's row for that node: local rows exactly, halo rows
            // exactly as the wire format rounds them (they crossed the
            // network once, whether buffered, replaced or missed).
            for (i, &lid) in batch.minibatch.input_nodes.iter().enumerate() {
                let gid = part.global_id(lid);
                let row = fx.dataset.features.row(gid);
                let expected = if lid as usize >= part.num_local() {
                    on_wire(row)
                } else {
                    row.to_vec()
                };
                let got = batch.input.row(i);
                assert_eq!(got, expected, "feature mismatch at node {gid} step {step}");
            }
            // Labels must match too.
            for (i, &lid) in batch.minibatch.seeds.iter().enumerate() {
                let gid = part.global_id(lid);
                assert_eq!(batch.labels[i], fx.dataset.features.label(gid));
            }
        }
        pf.buffer.check_invariants().unwrap();
    }
}

#[test]
fn baseline_and_prefetch_assemble_identical_batches() {
    let fx = fixture(DatasetKind::Arxiv);
    let cost = CostModel::default();
    let part = &fx.parts[0];
    let seeds: Vec<u32> = part
        .train_nodes
        .iter()
        .take(24)
        .map(|&g| part.local_id(g).unwrap())
        .collect();
    let sampler = NeighborSampler::new(vec![4, 8], 3);
    let m1 = CommMetrics::new();
    let m2 = CommMetrics::new();
    let m3 = CommMetrics::new();
    let prefetcher = |f_h, metrics| {
        let cfg = PrefetchConfig {
            f_h,
            ..Default::default()
        };
        initialize_prefetcher(
            part,
            cfg,
            fx.dataset.num_nodes(),
            &fx.cluster,
            &cost,
            metrics,
        )
        .0
    };
    let mut pf = prefetcher(PrefetchConfig::default().f_h, &m1);
    // Algorithm 2 with nothing to hit: the baseline must be exactly this.
    let mut empty = prefetcher(0.0, &m3);
    assert_eq!(empty.buffer.capacity(), 0);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pulled = |now: MetricsSnapshot, was: MetricsSnapshot| {
        [
            now.remote_nodes_fetched - was.remote_nodes_fetched,
            now.remote_bytes - was.remote_bytes,
            now.rpc_calls - was.rpc_calls,
        ]
    };
    for step in 0..4u64 {
        let (was_b, was_e) = (m2.snapshot(), m3.snapshot());
        let e = empty.prepare_reuse(
            None,
            part,
            &sampler,
            &seeds,
            0,
            step,
            &fx.cluster,
            &cost,
            &m3,
        );
        let a = pf.prepare_reuse(
            None,
            part,
            &sampler,
            &seeds,
            0,
            step,
            &fx.cluster,
            &cost,
            &m1,
        );
        let b = baseline_prepare_reuse(
            None,
            &mut PrepareScratch::default(),
            part,
            &sampler,
            &seeds,
            0,
            step,
            &fx.cluster,
            &cost,
            &m2,
        );
        assert_eq!(
            a.minibatch, b.minibatch,
            "sampling must be mode-independent"
        );
        assert_eq!(a.input.data(), b.input.data(), "features must be identical");
        assert_eq!(a.labels, b.labels);

        // A baseline batch is an empty buffer's, bit for bit, priced as
        // Eq. 2: the same sampling, pull and copy, and nothing else.
        assert_eq!(e.minibatch, b.minibatch, "step {step}");
        assert_eq!(bits(&e.input), bits(&b.input), "step {step}");
        assert_eq!(e.labels, b.labels, "step {step}");
        let (te, tb) = (e.timing, b.timing);
        assert_eq!(
            [te.t_sampling, te.t_rpc, te.t_copy].map(f64::to_bits),
            [tb.t_sampling, tb.t_rpc, tb.t_copy].map(f64::to_bits),
            "step {step}"
        );
        assert_eq!(
            [tb.t_lookup, tb.t_scoring, tb.t_evict, tb.t_planned].map(f64::to_bits),
            [0.0f64.to_bits(); 4],
            "step {step}: the baseline charges only Eq. 2's terms"
        );
        assert_eq!((b.counts.hits, b.counts.misses), (0, b.counts.halo));
        let (now_b, now_e) = (m2.snapshot(), m3.snapshot());
        assert_eq!(pulled(now_b, was_b), pulled(now_e, was_e), "step {step}");
        assert_eq!(
            (now_b.buffer_hits, now_b.buffer_misses),
            (0, 0),
            "the baseline books no buffer lookups"
        );
    }
    // But the prefetch path must have moved strictly fewer remote rows
    // during steady state (excluding its init fetch).
    let hits = m1.snapshot().buffer_hits;
    assert!(hits > 0, "no hits in 4 steps");
}

/// The wire rounds halo rows to bf16, so training no longer sees the
/// stored f32 inputs bit for bit. It must see them to within noise: on
/// the same sampled blocks and the same model, inputs that crossed the
/// wire and inputs rebuilt exactly from the dataset give the same loss to
/// < 1 % and the same prediction for ≥ 99 % of seed nodes.
#[test]
fn wire_rounding_stays_inside_training_noise() {
    let fx = fixture_of(DatasetKind::Products, 4);
    let cost = CostModel::default();
    let dim = fx.dataset.features.dim();
    let classes = fx.dataset.features.num_classes();
    let mut model = SageModel::new(&[dim, 32, classes], 5);
    let sampler = NeighborSampler::new(vec![5, 10], 9);
    let argmax = |row: &[f32]| {
        (0..row.len())
            .max_by(|&a, &b| row[a].total_cmp(&row[b]))
            .unwrap()
    };
    let (mut batches, mut seeds_seen, mut flipped, mut rounded_elems) = (0, 0usize, 0usize, 0usize);
    for part in fx.parts.iter().filter(|p| !p.train_nodes.is_empty()) {
        let seeds: Vec<u32> = part
            .train_nodes
            .iter()
            .take(48)
            .map(|&g| part.local_id(g).unwrap())
            .collect();
        let metrics = CommMetrics::new();
        for step in 0..3u64 {
            let wire_batch = baseline_prepare_reuse(
                None,
                &mut PrepareScratch::default(),
                part,
                &sampler,
                &seeds,
                0,
                step,
                &fx.cluster,
                &cost,
                &metrics,
            );
            let nodes = &wire_batch.minibatch.input_nodes;
            let exact_rows: Vec<f32> = nodes
                .iter()
                .flat_map(|&lid| fx.dataset.features.row(part.global_id(lid)))
                .copied()
                .collect();
            let exact = Tensor::from_vec(nodes.len(), dim, exact_rows);
            rounded_elems += exact
                .data()
                .iter()
                .zip(wire_batch.input.data())
                .filter(|(a, b)| a != b)
                .count();

            let blocks = &wire_batch.minibatch.blocks;
            let logits_wire = model.forward(blocks, &wire_batch.input);
            let reference = model.forward(blocks, &exact);
            let (loss_wire, _) = cross_entropy(&logits_wire, &wire_batch.labels);
            let (loss_ref, _) = cross_entropy(&reference, &wire_batch.labels);
            let rel = ((loss_wire - loss_ref) / loss_ref).abs();
            assert!(
                rel < 0.01,
                "part {} step {step}: loss {loss_wire} vs exact {loss_ref}",
                part.part_id
            );
            flipped += (0..reference.rows())
                .filter(|&i| argmax(logits_wire.row(i)) != argmax(reference.row(i)))
                .count();
            seeds_seen += reference.rows();
            batches += 1;
        }
    }
    assert!(batches >= 8, "only {batches} batches prepared");
    assert!(
        rounded_elems > 0,
        "no halo row was rounded: nothing compared"
    );
    assert!(
        flipped * 100 <= seeds_seen,
        "{flipped} of {seeds_seen} predictions changed"
    );
}

#[test]
fn eviction_keeps_buffer_capacity_constant_across_many_steps() {
    let fx = fixture(DatasetKind::Products);
    let cost = CostModel::default();
    let part = &fx.parts[1];
    let seeds: Vec<u32> = part
        .train_nodes
        .iter()
        .take(48)
        .map(|&g| part.local_id(g).unwrap())
        .collect();
    let sampler = NeighborSampler::new(vec![5, 10], 13);
    let metrics = CommMetrics::new();
    let (mut pf, _) = initialize_prefetcher(
        part,
        PrefetchConfig {
            f_h: 0.2,
            gamma: 0.8, // aggressive decay forces eviction traffic
            delta: 3,
            ..Default::default()
        },
        fx.dataset.num_nodes(),
        &fx.cluster,
        &cost,
        &metrics,
    );
    let capacity = pf.buffer.len();
    for epoch in 0..3u64 {
        for step in 0..10u64 {
            pf.prepare_reuse(
                None,
                part,
                &sampler,
                &seeds,
                epoch,
                epoch * 10 + step,
                &fx.cluster,
                &cost,
                &metrics,
            );
            assert_eq!(pf.buffer.len(), capacity, "buffer size drifted");
            pf.buffer.check_invariants().unwrap();
        }
    }
    assert!(
        metrics.snapshot().evictions > 0,
        "aggressive decay must evict"
    );
    // Evicted == replaced (paper: constant buffer size).
    let s = metrics.snapshot();
    assert_eq!(s.evictions, s.replacements_fetched);
}

#[test]
fn buffered_features_stay_fresh_after_replacements() {
    // After many evict/replace rounds, every buffered feature row must
    // still equal the owning KVStore's row (no stale or corrupt slots).
    let fx = fixture(DatasetKind::Reddit);
    let cost = CostModel::default();
    let part = &fx.parts[2];
    let seeds: Vec<u32> = part
        .train_nodes
        .iter()
        .take(32)
        .map(|&g| part.local_id(g).unwrap())
        .collect();
    let sampler = NeighborSampler::new(vec![8], 21);
    let metrics = CommMetrics::new();
    let (mut pf, _) = initialize_prefetcher(
        part,
        PrefetchConfig {
            f_h: 0.15,
            gamma: 0.7,
            delta: 2,
            ..Default::default()
        },
        fx.dataset.num_nodes(),
        &fx.cluster,
        &cost,
        &metrics,
    );
    for step in 0..12u64 {
        pf.prepare_reuse(
            None,
            part,
            &sampler,
            &seeds,
            0,
            step,
            &fx.cluster,
            &cost,
            &metrics,
        );
    }
    for (slot, h) in pf.buffer.occupied() {
        let gid = part.halo_nodes[h as usize];
        let owner = fx.cluster.owner(gid);
        assert_eq!(
            pf.buffer.row(slot),
            on_wire(fx.cluster.store(owner).row(gid)),
            "stale slot for node {gid}"
        );
    }
}

/// A row whose fetch exhausted every retry is served as zeros — also when
/// the input matrix is a recycled one that still holds the last batch's
/// features, which nothing clears: the zeros are written row by row.
#[test]
fn degraded_rows_are_zero_in_a_recycled_input_matrix() {
    let fx = fixture(DatasetKind::Products);
    // Same features and ownership, but every reply comes back truncated:
    // each ladder is exhausted, every remote row of a pull fails.
    let assignment: Vec<u32> = (0..fx.dataset.num_nodes() as u32)
        .map(|g| fx.cluster.owner(g))
        .collect();
    let starved = SimCluster::with_faults(
        &fx.dataset.features,
        &assignment,
        fx.parts.len(),
        Some(FaultProfile {
            truncate_prob: 1.0,
            ..FaultProfile::off(3)
        }),
        RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        },
    );
    let cost = CostModel::default();
    let part = &fx.parts[0];
    let seeds: Vec<u32> = part
        .train_nodes
        .iter()
        .take(32)
        .map(|&g| part.local_id(g).unwrap())
        .collect();
    let sampler = NeighborSampler::new(vec![5, 10], 9);
    let metrics = CommMetrics::new();
    let local_or = |lid: u32, halo: &dyn Fn(&[f32]) -> Vec<f32>| {
        let row = fx.dataset.features.row(part.global_id(lid));
        if lid as usize >= part.num_local() {
            halo(row)
        } else {
            row.to_vec()
        }
    };

    // Baseline: a healthy step fills the matrix, the starved step reuses it.
    let mut scratch = PrepareScratch::default();
    let healthy = baseline_prepare_reuse(
        None,
        &mut scratch,
        part,
        &sampler,
        &seeds,
        0,
        0,
        &fx.cluster,
        &cost,
        &metrics,
    );
    assert!(healthy.input.data().iter().all(|&x| x != 0.0));
    let before = metrics.snapshot();
    let batch = baseline_prepare_reuse(
        Some(healthy),
        &mut scratch,
        part,
        &sampler,
        &seeds,
        0,
        1,
        &starved,
        &cost,
        &metrics,
    );
    assert!(batch.counts.halo > 0);
    assert_eq!(
        metrics.snapshot().degraded_rows - before.degraded_rows,
        batch.counts.halo as u64
    );
    for (i, &lid) in batch.minibatch.input_nodes.iter().enumerate() {
        let want = local_or(lid, &|row| vec![0.0; row.len()]);
        assert_eq!(batch.input.row(i), want, "baseline node {lid}");
    }

    // Prefetch: buffered rows keep serving, only the misses are zeros —
    // and no failed replacement was installed.
    let (mut pf, _) = initialize_prefetcher(
        part,
        PrefetchConfig {
            f_h: 0.3,
            delta: 1,
            gamma: 0.5,
            ..Default::default()
        },
        fx.dataset.num_nodes(),
        &fx.cluster,
        &cost,
        &metrics,
    );
    let mut carcass = pf.prepare_reuse(
        None,
        part,
        &sampler,
        &seeds,
        0,
        0,
        &fx.cluster,
        &cost,
        &metrics,
    );
    let mut degraded = 0;
    for step in 1..4u64 {
        let buffered: Vec<bool> = (0..part.num_halo() as u32)
            .map(|h| pf.buffer.contains(h))
            .collect();
        let before = metrics.snapshot();
        let batch = pf.prepare_reuse(
            Some(carcass),
            part,
            &sampler,
            &seeds,
            0,
            step,
            &starved,
            &cost,
            &metrics,
        );
        let booked = metrics.snapshot();
        assert_eq!(
            booked.evictions, before.evictions,
            "a failed replacement is cancelled"
        );
        for (i, &lid) in batch.minibatch.input_nodes.iter().enumerate() {
            let hit = lid as usize >= part.num_local() && buffered[lid as usize - part.num_local()];
            let want = local_or(lid, &|row| {
                if hit {
                    on_wire(row)
                } else {
                    vec![0.0; row.len()]
                }
            });
            assert_eq!(batch.input.row(i), want, "prefetch node {lid} step {step}");
        }
        degraded += booked.degraded_rows - before.degraded_rows;
        carcass = batch;
    }
    assert!(degraded > 0, "no miss was starved: nothing compared");
}
