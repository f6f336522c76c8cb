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
/// the call every buffer holds the elementwise mean.
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

    // Chunk boundaries: world chunks of ~len/world.
    let bounds: Vec<(usize, usize)> = (0..world)
        .map(|c| {
            let s = c * len / world;
            let e = (c + 1) * len / world;
            (s, e)
        })
        .collect();

    // Reduce-scatter: after world-1 steps, rank r holds the full sum of
    // chunk (r+1) mod world.
    for step in 0..world - 1 {
        for r in 0..world {
            // Rank r sends chunk (r - step) to rank (r+1); emulate by
            // accumulating into the receiver in a temporary pass.
            let chunk = (r + world - step) % world;
            let (s, e) = bounds[chunk];
            let src_rank = r;
            let dst_rank = (r + 1) % world;
            // Accumulate src's chunk into dst. Split borrow.
            if s == e {
                continue;
            }
            let (src_chunk, dst): (Vec<f32>, &mut Vec<f32>) = {
                let tmp = grads[src_rank][s..e].to_vec();
                (tmp, &mut grads[dst_rank])
            };
            for (d, v) in dst[s..e].iter_mut().zip(src_chunk) {
                *d += v;
            }
        }
    }
    // Allgather: propagate each completed chunk around the ring.
    for step in 0..world - 1 {
        for r in 0..world {
            let chunk = (r + 1 + world - step) % world;
            let (s, e) = bounds[chunk];
            if s == e {
                continue;
            }
            let dst_rank = (r + 1) % world;
            let src_chunk = grads[r][s..e].to_vec();
            grads[dst_rank][s..e].copy_from_slice(&src_chunk);
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

/// Bounds `[start, end)` of ring chunk `chunk` for a gradient of `len`
/// elements split across `world` ranks. Pure function of `(len, world)` —
/// the same deterministic-chunking contract the rayon shim enforces — so
/// any thread can compute any chunk without coordination.
#[inline]
pub fn ring_chunk_bounds(len: usize, world: usize, chunk: usize) -> (usize, usize) {
    (chunk * len / world, (chunk + 1) * len / world)
}

/// Average chunk `chunk` of `world` equal-length gradient buffers into
/// `dst`, reproducing `ring_allreduce_average`'s accumulation order bit
/// for bit: the ring's reduce-scatter folds chunk `c` as
/// `((g_{c+1} + g_c) + g_{c+2}) + … + g_{c+world-1}` (ranks mod `world`),
/// then scales by `1.0 / world as f32` — except at `world == 1`, where the
/// ring returns early and the chunk is copied unscaled.
///
/// `src(r)` returns rank `r`'s full gradient buffer of `len` elements and
/// `dst` is exactly the chunk's `[start, end)` window
/// (`ring_chunk_bounds(len, world, chunk)`), so reducing every chunk
/// covers a shared buffer exactly once, and a caller can lend per-rank
/// views without materializing (allocating) a `&[&[f32]]` every step.
pub fn reduce_ring_chunk_average_with<'a, F>(
    chunk: usize,
    world: usize,
    len: usize,
    src: F,
    dst: &mut [f32],
) where
    F: Fn(usize) -> &'a [f32],
{
    assert!(world > 0 && chunk < world, "chunk {chunk} out of {world}");
    let (s, e) = ring_chunk_bounds(len, world, chunk);
    debug_assert_eq!(dst.len(), e - s);
    if s == e {
        return;
    }
    if world == 1 {
        dst.copy_from_slice(&src(0)[s..e]);
        return;
    }
    // Ring step 0 accumulates rank `chunk`'s send into rank `chunk+1`.
    dst.copy_from_slice(&src((chunk + 1) % world)[s..e]);
    for (d, v) in dst.iter_mut().zip(&src(chunk)[s..e]) {
        *d += *v;
    }
    // Remaining ring hops add ranks chunk+2 … chunk+world-1 in order.
    for k in 2..world {
        for (d, v) in dst.iter_mut().zip(&src((chunk + k) % world)[s..e]) {
            *d += *v;
        }
    }
    let inv = 1.0 / world as f32;
    for d in dst.iter_mut() {
        *d *= inv;
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

    #[test]
    fn chunked_reduction_bitwise_matches_ring() {
        for world in [1usize, 2, 3, 4, 5, 8] {
            for len in [0usize, 1, 3, 7, 16, 33, 257] {
                let grads = nasty_grads(world, len);
                let mut ring = grads.clone();
                ring_allreduce_average(&mut ring);

                let srcs: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
                let mut chunked = vec![0.0f32; len];
                for c in 0..world {
                    let (s, e) = ring_chunk_bounds(len, world, c);
                    reduce_ring_chunk_average_with(c, world, len, |r| srcs[r], &mut chunked[s..e]);
                }
                for (r, g) in ring.iter().enumerate() {
                    for (i, (a, b)) in g.iter().zip(&chunked).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "world={world} len={len} rank={r} i={i}: ring {a} vs chunked {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_bounds_tile_exactly() {
        for world in [1usize, 2, 3, 4, 7] {
            for len in [0usize, 1, 5, 16, 31] {
                let mut next = 0usize;
                for c in 0..world {
                    let (s, e) = ring_chunk_bounds(len, world, c);
                    assert_eq!(s, next);
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
    }
}
