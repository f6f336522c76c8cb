//! Property-based tests over the runtime substrate: cost-model
//! monotonicity/positivity, metrics accounting, the bf16 wire format,
//! KVStore/cluster pull consistency under arbitrary ownership (decoded
//! row by row or as one image, with and without faults), and
//! SpMM-vs-fused-aggregation equivalence.

use mgnn_graph::FeatureStore;
use mgnn_net::{wire, Backend, CommMetrics, CostModel, FaultProfile, RetryPolicy, SimCluster};
use mgnn_sampling::Block;
use mgnn_tensor::sparse::SparseMatrix;
use mgnn_tensor::Tensor;
use proptest::prelude::*;

/// Largest finite bf16 code, (2 − 2⁻⁷)·2¹²⁷.
const BF16_MAX: wire::WireElem = 0x7f7f;

/// Exhaustive over the 65 536 codes: every non-NaN code is a fixed point
/// of decode → encode (so bf16-representable rows, ±0, ±∞ and subnormals
/// cross unchanged), the codes are ordered as their values are, and
/// rounding is to nearest with ties to even at every code — which at the
/// top finite code means overflow to ∞.
#[test]
fn wire_every_code_round_trips() {
    for h in 0..=u16::MAX {
        let x = wire::decode(h);
        if x.is_nan() {
            assert!(wire::round_trip(x).is_nan(), "{h:#06x}");
        } else {
            assert_eq!(wire::encode(x), h, "{h:#06x}");
        }
    }
    for h in 0..0x7f80u16 {
        assert!(wire::decode(h) < wire::decode(h + 1), "{h:#06x}");
    }
    // Round-to-nearest-even against its definition, at every code's
    // rounding boundaries: below, at and above the half-way point.
    for h in (0..0x7f80u32).chain(0x8000..0xff80) {
        for low in [0u32, 1, 0x7fff, 0x8000, 0x8001, 0xffff] {
            let want = match low.cmp(&0x8000) {
                std::cmp::Ordering::Less => h,
                std::cmp::Ordering::Equal => h + (h & 1),
                std::cmp::Ordering::Greater => h + 1,
            };
            let got = wire::encode(f32::from_bits(h << 16 | low));
            assert_eq!(u32::from(got), want, "{h:#06x} {low:#06x}");
        }
    }
}

/// The cases the sweep above cannot name: NaNs, whose bare rounding add
/// would carry into the sign bit or round the payload away.
#[test]
fn wire_nan_hazards_stay_nan() {
    for bits in [0x7fff_ffffu32, 0xffff_ffff, 0x7f80_0001, 0xff80_0001] {
        let y = wire::round_trip(f32::from_bits(bits));
        assert!(y.is_nan(), "{bits:#010x} -> {y}");
        assert_eq!(y.is_sign_negative(), bits >> 31 == 1, "{bits:#010x}");
    }
    // And the finite neighbours of those patterns overflow to ∞ instead.
    assert_eq!(wire::round_trip(f32::MAX), f32::INFINITY);
    assert_eq!(wire::round_trip(f32::MIN), f32::NEG_INFINITY);
}

proptest! {
    // Cheap per case, and the domain is all of f32: sample it densely.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn wire_error_bounded_for_every_finite_normal(bits in 0u32..=u32::MAX) {
        let x = f32::from_bits(bits);
        prop_assume!(x.is_normal());
        let y = wire::round_trip(x);
        if y.is_finite() {
            // Half an ulp of an 8-bit significand, relative to |x|.
            let err = (f64::from(y) - f64::from(x)).abs();
            prop_assert!(err <= f64::from(x).abs() / 256.0, "{x} -> {y}");
        } else {
            // RNE sends the top half-ulp below 2^128 to infinity.
            prop_assert!(x.abs() > wire::decode(BF16_MAX), "{x} overflowed");
            prop_assert_eq!(y, f32::INFINITY.copysign(x));
        }
    }

    #[test]
    fn wire_monotone_and_sign_symmetric(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        prop_assume!(!x.is_nan() && !y.is_nan());
        if x <= y {
            prop_assert!(wire::round_trip(x) <= wire::round_trip(y), "{x} <= {y}");
        }
        prop_assert_eq!(wire::encode(-x), wire::encode(x) ^ 0x8000);
    }

    #[test]
    fn wire_nan_stays_nan_with_its_sign(payload in 1u32..0x0080_0000, sign in 0u32..2) {
        let bits = 0x7f80_0000 | payload | (sign << 31);
        let y = wire::round_trip(f32::from_bits(bits));
        prop_assert!(y.is_nan(), "{bits:#x} -> {y}");
        prop_assert_eq!(y.is_sign_negative(), sign == 1);
    }
}

/// `n` rows of width `dim` whose values the wire has to round (so a row
/// that skipped it would show), none of them zero (so a zero-filled row
/// cannot pass for a delivered one).
fn off_grid_store(n: usize, dim: usize) -> FeatureStore {
    let data = (0..n * dim)
        .map(|i| 1.001 + i as f32 * 0.001_234_5)
        .collect();
    FeatureStore::from_parts(n, dim, data, vec![0; n], 2)
}

/// No drops, so no verdict depends on the wall clock; the timeout only
/// has to outlast a loaded host.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        timeout: std::time::Duration::from_secs(60),
        ..RetryPolicy::default()
    }
}

/// A thousand pulls through one cluster park at most one receive buffer
/// per partition ever touched — they are recycled, not accumulated.
#[test]
fn a_thousand_pulls_leave_one_buffer_per_touched_partition() {
    let n = 64;
    let f = off_grid_store(n, 8);
    let assignment: Vec<u32> = (0..n as u32).map(|u| u % 5).collect();
    let cluster = SimCluster::new(&f, &assignment, 5);
    let mut touched = [false; 5];
    for round in 0..1000u32 {
        // 0..=12 ids from a window of partitions that moves and never
        // reaches partition 4.
        let len = round % 13;
        let ids: Vec<u32> = (0..len)
            .map(|k| (round * 7 + k * 11) % n as u32)
            .filter(|u| u % 5 != 4 && u % 5 <= round % 4)
            .collect();
        for &u in &ids {
            touched[(u % 5) as usize] = true;
        }
        let (rows, outcome) = cluster.pull_rows(&ids, 0);
        assert!(!outcome.had_faults());
        drop(rows);
        let ceiling = touched.iter().filter(|&&t| t).count();
        assert!(
            cluster.pooled_buffers() <= ceiling,
            "round {round}: {} buffers parked for {ceiling} partitions",
            cluster.pooled_buffers()
        );
    }
    assert_eq!(touched, [true, true, true, true, false]);
    assert_eq!(cluster.pooled_buffers(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decoding row by row off the wire payloads is the materialised
    /// image, bit for bit, and both are the ground truth: a delivered
    /// row is the store's row as the wire rounds it, a failed row is
    /// zeros — whatever the output buffer held before.
    #[test]
    fn scatter_decode_equals_the_materialised_image(
        parts in 1usize..=5,
        dim_sel in 0usize..4,
        owners in prop::collection::vec(0u32..5, 12..40),
        queries in prop::collection::vec(0usize..40, 0..30),
        one_partition in 0u32..2,
        fault_sel in 0u32..4,
        seed in 0u64..1000,
    ) {
        let dim = [0, 1, 8, 602][dim_sel];
        let n = owners.len();
        let assignment: Vec<u32> = owners.iter().map(|&o| o % parts as u32).collect();
        let f = off_grid_store(n, dim);
        // Duplicates are kept; optionally every id sits on one partition.
        let mut ids: Vec<u32> = queries.iter().map(|&q| (q % n) as u32).collect();
        if one_partition == 1 {
            if let Some(&first) = ids.first() {
                ids.retain(|&g| assignment[g as usize] == assignment[first as usize]);
            }
        }
        let profile = match fault_sel {
            0 => None,
            // Some ladders recover, some are exhausted.
            1 => Some(FaultProfile { truncate_prob: 0.5, ..FaultProfile::off(seed) }),
            // A crash within the three rounds below, on top of truncations.
            2 => Some(FaultProfile {
                truncate_prob: 0.2,
                crash_part: Some((seed % parts as u64) as u32),
                crash_after: seed % 3,
                ..FaultProfile::off(seed)
            }),
            // Every ladder is exhausted.
            _ => Some(FaultProfile { truncate_prob: 1.0, ..FaultProfile::off(seed) }),
        };
        // Same seed, same request order: both clusters see the same verdicts.
        let make = || SimCluster::with_faults(&f, &assignment, parts, profile.clone(), patient_retry());
        let (whole, scattered) = (make(), make());
        for round in 0..3 {
            let (image, want) = whole.pull_grouped_checked(&ids);
            let (rows, got) = scattered.pull_rows(&ids, 0);
            prop_assert_eq!(&got, &want, "round {}", round);
            let mut out = vec![f32::NAN; ids.len() * dim];
            for row in (0..ids.len()).rev() {
                rows.decode_into(row, &mut out[row * dim..(row + 1) * dim]);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&out), bits(&image), "round {}", round);
            for (row, &g) in ids.iter().enumerate() {
                let truth: Vec<f32> = if got.failed_rows.binary_search(&row).is_ok() {
                    vec![0.0; dim]
                } else {
                    f.row(g).iter().map(|&x| wire::round_trip(x)).collect()
                };
                prop_assert_eq!(bits(&out[row * dim..(row + 1) * dim]), bits(&truth), "row {}", row);
            }
            // A truncation cannot show on zero-width rows.
            if fault_sel == 3 && dim > 0 {
                prop_assert_eq!(&got.failed_rows, &(0..ids.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn cost_model_monotone_and_positive(
        nodes in 1usize..100_000,
        dim in 1usize..1024,
        world in 1usize..64,
        macs in 1.0f64..1e12,
    ) {
        let c = CostModel::default();
        prop_assert!(c.t_rpc(nodes, dim) > 0.0);
        prop_assert!(c.t_rpc(nodes + 1, dim) >= c.t_rpc(nodes, dim));
        prop_assert!(c.t_rpc(nodes, dim + 1) >= c.t_rpc(nodes, dim));
        prop_assert!(c.t_copy(nodes, dim) >= 0.0);
        prop_assert!(c.t_rpc(nodes, dim) > c.t_copy(nodes, dim), "remote must cost more than local");
        prop_assert!(c.t_allreduce(1 << 20, world + 1) >= c.t_allreduce(1 << 20, world));
        let cpu = c.t_ddp(macs, nodes * dim * 4, 1 << 20, world, Backend::Cpu);
        let gpu = c.t_ddp(macs, nodes * dim * 4, 1 << 20, world, Backend::Gpu);
        prop_assert!(cpu > 0.0 && gpu > 0.0);
        prop_assert!(gpu <= cpu, "GPU compute must not be slower");
    }

    #[test]
    fn scoring_cost_ordering(
        nodes in 1usize..100_000,
        halo in 2usize..1_000_000,
    ) {
        let c = CostModel::default();
        let dense = c.t_scoring(nodes, false, halo);
        let me = c.t_scoring(nodes, true, halo);
        prop_assert!(me >= dense, "binary-search layout must cost at least as much");
    }

    #[test]
    fn metrics_accounting_exact(
        events in prop::collection::vec((0u64..500, 0u64..500, 1usize..64), 1..50)
    ) {
        let m = CommMetrics::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut nodes = 0u64;
        let mut bytes = 0u64;
        for &(h, mi, dim) in &events {
            m.record_lookup(h, mi);
            m.record_rpc(mi, dim);
            hits += h;
            misses += mi;
            if mi > 0 {
                nodes += mi;
                bytes += mi * (dim * wire::BYTES_PER_ELEM) as u64;
            }
        }
        let s = m.snapshot();
        prop_assert_eq!(s.buffer_hits, hits);
        prop_assert_eq!(s.buffer_misses, misses);
        prop_assert_eq!(s.remote_nodes_fetched, nodes);
        prop_assert_eq!(s.remote_bytes, bytes);
        if hits + misses > 0 {
            prop_assert!((s.hit_rate() - hits as f64 / (hits + misses) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn cluster_pull_matches_ground_truth_for_any_assignment(
        assignment in prop::collection::vec(0u32..4, 8..60),
        queries in prop::collection::vec(0usize..60, 1..30),
    ) {
        let n = assignment.len();
        let g = mgnn_graph::generators::erdos_renyi(n.max(2), n * 3, 5);
        let f = mgnn_graph::FeatureStore::synthesize(&g, 4, 2, 9);
        let cluster = SimCluster::new(&f, &assignment, 4);
        let ids: Vec<u32> = queries.into_iter().map(|q| (q % n) as u32).collect();
        let (out, outcome) = cluster.pull_grouped_checked(&ids);
        prop_assert!(outcome.rpcs <= 4);
        for (i, &gid) in ids.iter().enumerate() {
            let on_wire: Vec<f32> = f.row(gid).iter().map(|&x| wire::round_trip(x)).collect();
            prop_assert_eq!(&out[i * 4..(i + 1) * 4], &on_wire[..]);
        }
    }

    #[test]
    fn spmm_equals_fused_sage_aggregation(
        num_dst in 1usize..10,
        extra in 0usize..10,
        deg in 0usize..6,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let num_src = num_dst + extra;
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for _ in 0..num_dst {
            let d = rng.gen_range(0..=deg);
            for _ in 0..d {
                indices.push(rng.gen_range(0..num_src as u32));
            }
            offsets.push(indices.len() as u32);
        }
        let block = Block {
            num_dst,
            src_nodes: (0..num_src as u32).collect(),
            offsets: offsets.clone(),
            indices: indices.clone(),
        };
        let dim = 3;
        let x = Tensor::from_vec(
            num_src,
            dim,
            (0..num_src * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        // Reference: explicit sparse mean aggregator.
        let a = SparseMatrix::mean_aggregator(num_dst, num_src, &offsets, &indices);
        let via_spmm = a.spmm(&x);
        // Fused: replicate SAGE's neighbor-mean loop.
        let mut fused = Tensor::zeros(num_dst, dim);
        for i in 0..num_dst {
            let nbrs = block.neighbors_of(i);
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let row = fused.row_mut(i);
            for &j in nbrs {
                for (r, &v) in row.iter_mut().zip(x.row(j as usize)) {
                    *r += v;
                }
            }
            for r in row.iter_mut() {
                *r *= inv;
            }
        }
        for (p, q) in via_spmm.data().iter().zip(fused.data()) {
            prop_assert!((p - q).abs() < 1e-5, "{p} vs {q}");
        }
    }
}
