//! The shim's determinism contract, pinned: every operation returns
//! bitwise-identical results at any thread count, because chunk
//! boundaries depend only on input length and per-chunk results are
//! combined in chunk order.
//!
//! The pool is sized once per process; `setup()` forces `MGNN_THREADS=8`
//! before the first pool touch so these tests exercise real worker
//! threads even on a single-core host, then each case re-runs the same
//! operation under `with_max_threads` caps of 1, 2 and 8 and compares
//! bitwise.

use proptest::prelude::*;
use rayon::pool::with_max_threads;
use rayon::prelude::*;
use std::sync::Once;

/// Lengths straddling the chunk-grid breakpoints (TARGET_CHUNKS = 64):
/// below, at, and just past one-item-per-chunk, and around the
/// chunk_len 2→3 step.
const EDGE_LENGTHS: &[usize] = &[0, 1, 2, 63, 64, 65, 127, 128, 129, 1000];

fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        // Before any pool access: 1 caller + 7 workers.
        std::env::set_var("MGNN_THREADS", "8");
        assert_eq!(rayon::current_num_threads(), 8);
    });
}

/// Run `f` under thread caps 1, 2 and 8; assert all results equal and
/// return the capped-at-1 (fully inline) result.
fn across_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    setup();
    let r1 = with_max_threads(1, &f);
    let r2 = with_max_threads(2, &f);
    let r8 = with_max_threads(8, &f);
    assert_eq!(r1, r2, "1-thread vs 2-thread results differ");
    assert_eq!(r1, r8, "1-thread vs 8-thread results differ");
    r1
}

fn input(len: usize, salt: u32) -> Vec<f32> {
    (0..len as u32)
        .map(|i| {
            let h = i.wrapping_add(salt).wrapping_mul(2_654_435_761);
            ((h % 1013) as f32 - 506.0) / 37.0
        })
        .collect()
}

#[test]
fn map_collect_bitwise_identical_at_edge_lengths() {
    for &len in EDGE_LENGTHS {
        let data = input(len, 1);
        let out = across_thread_counts(|| {
            (0..len)
                .into_par_iter()
                .map(|i| data[i] * 1.7 - 0.3)
                .collect::<Vec<f32>>()
        });
        let reference: Vec<f32> = data.iter().map(|&x| x * 1.7 - 0.3).collect();
        assert!(
            out.iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "map/collect diverged from sequential at len {len}"
        );
    }
}

#[test]
fn for_each_indexed_writes_every_slot_once() {
    for &len in EDGE_LENGTHS {
        let out = across_thread_counts(|| {
            let mut out = vec![0u32; len];
            out.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
                slot[0] += i as u32 + 1;
            });
            out
        });
        assert_eq!(out, (1..=len as u32).collect::<Vec<u32>>(), "len {len}");
    }
}

#[test]
fn fold_reduce_bitwise_identical_across_thread_counts() {
    for &len in EDGE_LENGTHS {
        let data = input(len, 2);
        let total = across_thread_counts(|| {
            (0..len)
                .into_par_iter()
                .fold(|| 0.0f32, |acc, i| acc + data[i] * data[i])
                .reduce(|| 0.0f32, |a, b| a + b)
                .to_bits()
        });
        // Empty input must yield the identity exactly.
        if len == 0 {
            assert_eq!(total, 0.0f32.to_bits());
        }
    }
}

#[test]
fn par_chunks_mut_identical_across_thread_counts() {
    for &len in EDGE_LENGTHS {
        for chunk in [1usize, 3, 64, 200] {
            let out = across_thread_counts(|| {
                let mut v = vec![0u32; len];
                v.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| {
                    for (j, x) in c.iter_mut().enumerate() {
                        *x = (i * 1000 + j) as u32;
                    }
                });
                v
            });
            let mut reference = vec![0u32; len];
            for (i, c) in reference.chunks_mut(chunk).enumerate() {
                for (j, x) in c.iter_mut().enumerate() {
                    *x = (i * 1000 + j) as u32;
                }
            }
            assert_eq!(
                out, reference,
                "par_chunks_mut diverged at len {len} chunk {chunk}"
            );
        }
    }
}

#[test]
fn panic_in_parallel_closure_propagates() {
    setup();
    let result = std::panic::catch_unwind(|| {
        (0..1000usize)
            .into_par_iter()
            .map(|i| {
                if i == 777 {
                    panic!("item 777");
                }
                i
            })
            .collect::<Vec<usize>>()
    });
    assert!(result.is_err(), "panic must cross the pool boundary");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary data and lengths: map+collect and fold+reduce both
    /// bitwise-stable across thread counts, and map+collect matches a
    /// plain sequential iterator.
    #[test]
    fn shim_ops_deterministic(data in prop::collection::vec(-1e6f32..1e6f32, 0..700)) {
        let collected = across_thread_counts(|| {
            (0..data.len())
                .into_par_iter()
                .map(|i| data[i].mul_add(0.5, 1.25))
                .collect::<Vec<f32>>()
        });
        let reference: Vec<f32> = data.iter().map(|&x| x.mul_add(0.5, 1.25)).collect();
        prop_assert!(collected.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()));

        // fold/reduce: pinned across thread counts (chunked order differs
        // from a plain sequential fold by design, but never by threads).
        let _ = across_thread_counts(|| {
            (0..data.len())
                .into_par_iter()
                .fold(|| 0.0f64, |acc, i| acc + f64::from(data[i]))
                .reduce(|| 0.0f64, |a, b| a + b)
                .to_bits()
        });
    }

}
