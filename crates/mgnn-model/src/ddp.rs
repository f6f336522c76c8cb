//! Synchronous data-parallel gradient averaging.
//!
//! PyTorch DDP allreduces gradients during the backward pass; the paper's
//! trainers synchronize every minibatch (Algorithm 1 line 15). Here the
//! trainers live in one process, so the ring allreduce is implemented
//! directly over their flat gradient buffers — numerically identical to
//! the distributed version (chunked reduce-scatter + allgather), with the
//! communication *cost* charged by `mgnn_net::CostModel::t_allreduce`.

/// Average `world` gradient buffers in place via a chunked ring
/// reduce-scatter + allgather. All buffers must have equal length; after
/// the call every buffer holds the elementwise mean, bitwise identical
/// across ranks. Each hop borrows its two ranks' buffers in place, so the
/// call allocates nothing.
pub fn ring_allreduce_average(grads: &mut [Vec<f32>]) {
    let world = grads.len();
    if world == 0 {
        return;
    }
    let len = grads[0].len();
    assert!(
        grads.iter().all(|g| g.len() == len),
        "gradient buffers must have equal length"
    );
    if world == 1 {
        return;
    }
    // Bounds of chunk `c` of `world` chunks of ~len/world.
    let chunk = |c: usize| (c * len / world, (c + 1) * len / world);

    // Reduce-scatter: at hop `step` rank r sends chunk (r - step) to rank
    // r+1, which accumulates it; after world-1 hops rank r holds the full
    // sum of chunk (r+1) mod world.
    for step in 0..world - 1 {
        for r in 0..world {
            let (s, e) = chunk((r + world - step) % world);
            let (src, dst) = hop(grads, r);
            for (d, v) in dst[s..e].iter_mut().zip(&src[s..e]) {
                *d += *v;
            }
        }
    }
    // Allgather: propagate each completed chunk around the ring.
    for step in 0..world - 1 {
        for r in 0..world {
            let (s, e) = chunk((r + 1 + world - step) % world);
            let (src, dst) = hop(grads, r);
            dst[s..e].copy_from_slice(&src[s..e]);
        }
    }
    // Average.
    let inv = 1.0 / world as f32;
    for g in grads.iter_mut() {
        for v in g.iter_mut() {
            *v *= inv;
        }
    }
}

/// Rank `r`'s buffer (the sender) and rank `r + 1`'s (the receiver,
/// wrapping to rank 0), borrowed side by side. Needs two ranks or more.
fn hop(grads: &mut [Vec<f32>], r: usize) -> (&[f32], &mut [f32]) {
    if r + 1 < grads.len() {
        let (lo, hi) = grads.split_at_mut(r + 1);
        (&lo[r], &mut hi[0])
    } else {
        let (first, rest) = grads.split_at_mut(1);
        (&rest[r - 1], &mut first[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_average(grads: &[Vec<f32>]) -> Vec<f32> {
        let len = grads[0].len();
        let mut out = vec![0.0f32; len];
        for g in grads {
            for (o, &v) in out.iter_mut().zip(g) {
                *o += v;
            }
        }
        let inv = 1.0 / grads.len() as f32;
        out.iter_mut().for_each(|v| *v *= inv);
        out
    }

    #[test]
    fn matches_naive_average() {
        for world in [2usize, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let mut grads: Vec<Vec<f32>> = (0..world)
                    .map(|r| (0..len).map(|i| (r * 31 + i) as f32 * 0.1).collect())
                    .collect();
                let expected = naive_average(&grads);
                ring_allreduce_average(&mut grads);
                for g in &grads {
                    for (a, b) in g.iter().zip(&expected) {
                        assert!((a - b).abs() < 1e-4, "world={world} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_untouched() {
        let mut grads = vec![vec![1.0, 2.0, 3.0]];
        ring_allreduce_average(&mut grads);
        assert_eq!(grads[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn all_ranks_agree_after() {
        let mut grads: Vec<Vec<f32>> = (0..5).map(|r| vec![r as f32; 10]).collect();
        ring_allreduce_average(&mut grads);
        for g in &grads {
            for &v in g {
                assert!((v - 2.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut grads = vec![vec![0.0; 3], vec![0.0; 4]];
        ring_allreduce_average(&mut grads);
    }

    /// Gradient fixtures with mixed magnitudes so any deviation in f32
    /// summation order shows up in the low mantissa bits.
    fn nasty_grads(world: usize, len: usize) -> Vec<Vec<f32>> {
        (0..world)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        let m = [1.0e-4f32, 3.7, 1.0e4, -2.5e-2][(r + i) % 4];
                        m * ((r * 131 + i * 17 + 1) as f32).sin()
                    })
                    .collect()
            })
            .collect()
    }

    /// The allocating ring this module used to run: every hop copied the
    /// sender's chunk into a temporary before the receiver read it.
    fn allocating_ring(grads: &mut [Vec<f32>]) {
        let world = grads.len();
        if world <= 1 {
            return;
        }
        let len = grads[0].len();
        let bounds: Vec<(usize, usize)> = (0..world)
            .map(|c| (c * len / world, (c + 1) * len / world))
            .collect();
        for step in 0..world - 1 {
            for r in 0..world {
                let (s, e) = bounds[(r + world - step) % world];
                let src_chunk = grads[r][s..e].to_vec();
                for (d, v) in grads[(r + 1) % world][s..e].iter_mut().zip(src_chunk) {
                    *d += v;
                }
            }
        }
        for step in 0..world - 1 {
            for r in 0..world {
                let (s, e) = bounds[(r + 1 + world - step) % world];
                let src_chunk = grads[r][s..e].to_vec();
                grads[(r + 1) % world][s..e].copy_from_slice(&src_chunk);
            }
        }
        let inv = 1.0 / world as f32;
        for v in grads.iter_mut().flatten() {
            *v *= inv;
        }
    }

    #[test]
    fn ring_in_place_matches_the_allocating_ring() {
        for world in [1usize, 2, 3, 4, 5, 8] {
            for len in [0usize, 1, 3, 7, 16, 33, 257] {
                let mut in_place = nasty_grads(world, len);
                let mut reference = in_place.clone();
                ring_allreduce_average(&mut in_place);
                allocating_ring(&mut reference);
                for (r, (a, b)) in in_place.iter().zip(&reference).enumerate() {
                    for (i, (a, b)) in a.iter().zip(b).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "world={world} len={len} rank={r} i={i}: in place {a} vs allocating {b}"
                        );
                    }
                }
            }
        }
    }
}
