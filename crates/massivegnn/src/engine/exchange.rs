//! Lock-free DDP gradient exchange — every `unsafe` line under `engine/`
//! lives in this file, behind an interface safe code cannot misuse.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::Barrier;

/// f32 lanes per cache line.
const CELL_F32: usize = 16;

/// One 64-byte cache line of interior-mutable f32 storage. `repr(C)`
/// pins the `UnsafeCell` at offset 0 and `[f32; 16]` fills the line
/// exactly, so every byte of a `CacheCell` is inside its `UnsafeCell` —
/// the property that makes writing through pointers derived from a
/// shared `&[CacheCell]` sound.
#[repr(C, align(64))]
struct CacheCell(UnsafeCell<[f32; CELL_F32]>);

/// One cache-line-aligned gradient slot per trainer plus a shared average
/// region, in a single arena allocated once per run — no lock, no
/// per-step allocation, no single-threaded reduction: ring chunk `c` is
/// reduced by whoever steps trainer `c`, and the chunk grid is a pure
/// function of the gradient length ([`mgnn_model::ring_chunk_bounds`]),
/// so the f32 accumulation order — and therefore every low mantissa bit —
/// is that of [`mgnn_model::ring_allreduce_average`] however many threads
/// take part.
///
/// Slot starts are padded to a whole number of cache lines, so two
/// trainers writing their slots concurrently never share a line (no
/// false sharing, and no cross-thread byte overlap at all).
///
/// # Phase protocol ([`Share::all_reduce`])
///
/// ```text
/// write own slots    -- disjoint &mut [f32] per share
///     barrier
/// reduce own chunks  -- shared reads of all slots, disjoint &mut of avg
///     barrier
/// apply shared avg   -- shared reads of avg
/// ```
///
/// Each phase's references are created inside the phase and dropped
/// before the barrier, so no `&mut` coexists with an aliasing access.
/// The barriers publish writes (acquire/release) between phases. A share
/// looping into the next round writes only its own slots, which no other
/// share touches outside the reduce phase it cannot reach before the same
/// barrier.
pub(super) struct GradExchange {
    cells: Box<[CacheCell]>,
    len: usize,
    cells_per_slot: usize,
    world: usize,
    /// One party per share of the current deal.
    barrier: Barrier,
}

// SAFETY: `cells` is only mutated through `UnsafeCell` under the phase
// protocol above, where the mutable views are disjoint by construction
// (a share's ranks, a rank's ring chunk); `Barrier` is `Sync`; the other
// fields are plain integers written only through `&mut self`.
unsafe impl Sync for GradExchange {}

/// One scheduler thread's part in the exchange: the consecutive trainer
/// ranks it steps. Ranks of the shares of one deal tile `0..world`
/// without overlap, which is what keeps their mutable views disjoint.
pub(super) struct Share<'a> {
    ex: &'a GradExchange,
    ranks: Range<usize>,
}

impl GradExchange {
    /// Arena for `world` gradient buffers of `len` f32s (+ the shared
    /// average region), zero-initialized.
    pub(super) fn new(world: usize, len: usize) -> Self {
        assert!(world > 0);
        let cells_per_slot = len.div_ceil(CELL_F32).max(1);
        let cells: Box<[CacheCell]> = (0..cells_per_slot * (world + 1))
            .map(|_| CacheCell(UnsafeCell::new([0.0; CELL_F32])))
            .collect();
        GradExchange {
            cells,
            len,
            cells_per_slot,
            world,
            barrier: Barrier::new(1),
        }
    }

    /// Deal the trainers out, `per_share` consecutive ranks to a share
    /// (`world` for one round-robin thread, 1 for a thread per trainer),
    /// and size the barrier to the number of shares. The shares borrow
    /// the arena exclusively, so no second deal — other ranks, another
    /// barrier — can exist beside them.
    pub(super) fn shares(&mut self, per_share: usize) -> Vec<Share<'_>> {
        assert!(per_share > 0);
        let parties = self.world.div_ceil(per_share);
        self.barrier = Barrier::new(parties);
        let ex = &*self;
        (0..parties)
            .map(|p| Share {
                ex,
                ranks: p * per_share..((p + 1) * per_share).min(ex.world),
            })
            .collect()
    }

    /// First f32 of region `r` (slots `0..world`; the average at `world`).
    /// Provenance covers the whole arena: derived from the full-slice
    /// pointer, not a single element's.
    #[inline]
    fn region_ptr(&self, r: usize) -> *mut f32 {
        assert!(r <= self.world);
        // SAFETY: `r <= world` and the arena holds `world + 1` regions of
        // `cells_per_slot * CELL_F32` f32s, so the offset stays inside it.
        unsafe { (self.cells.as_ptr() as *mut f32).add(r * self.cells_per_slot * CELL_F32) }
    }

    /// Shared view of region `r`: trainer `r`'s gradient slot, or the
    /// averaged gradient at `r == world`.
    ///
    /// # Safety
    /// No `&mut` into region `r` may be live: slots are read between the
    /// two barriers, the average after the second.
    unsafe fn region(&self, r: usize) -> &[f32] {
        std::slice::from_raw_parts(self.region_ptr(r), self.len)
    }

    /// Exclusive view of elements `start..end` of region `r`.
    ///
    /// # Safety
    /// Caller must hold exclusive access to that window for the lifetime
    /// of the returned slice: a whole slot of its own before the first
    /// barrier, its own ring chunks of the average between the two.
    #[allow(clippy::mut_from_ref)]
    unsafe fn region_mut(&self, r: usize, start: usize, end: usize) -> &mut [f32] {
        assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.region_ptr(r).add(start), end - start)
    }
}

impl Share<'_> {
    /// One allreduce round over the whole deal; blocks until every share
    /// has joined it. `trainers` are this share's, in rank order:
    /// `publish` writes a trainer's gradients into its slot, `apply`
    /// hands every trainer the elementwise mean over all `world` slots.
    pub(super) fn all_reduce<T>(
        &mut self,
        trainers: &mut [T],
        publish: impl Fn(&T, &mut [f32]),
        apply: impl Fn(&mut T, &[f32]),
    ) {
        let ex = self.ex;
        assert_eq!(trainers.len(), self.ranks.len(), "one trainer per rank");
        for (t, trainer) in self.ranks.clone().zip(trainers.iter()) {
            // SAFETY: rank `t` belongs to this share alone, `&mut self`
            // keeps the share to one round at a time, and no share reads
            // any slot until the barrier below.
            publish(trainer, unsafe { ex.region_mut(t, 0, ex.len) });
        }
        ex.barrier.wait();
        for c in self.ranks.clone() {
            let (start, end) = mgnn_model::ring_chunk_bounds(ex.len, ex.world, c);
            // SAFETY: chunks tile the average without overlap and chunk
            // `c` belongs to this share alone; every slot is only read
            // between the two barriers.
            let dst = unsafe { ex.region_mut(ex.world, start, end) };
            let slot = |r| unsafe { ex.region(r) };
            mgnn_model::reduce_ring_chunk_average_with(c, ex.world, ex.len, slot, dst);
        }
        ex.barrier.wait();
        // SAFETY: the average is not written again before every share
        // has passed the next round's first barrier, which this share
        // reaches only after the borrow below has ended.
        let avg = unsafe { ex.region(ex.world) };
        for trainer in trainers {
            apply(trainer, avg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in trainer: the gradient it publishes this round and the
    /// average it was handed.
    type Rank = (Vec<f32>, Vec<f32>);

    fn gradient(rank: usize, round: usize, len: usize) -> Vec<f32> {
        // Irregular magnitudes, so a changed summation order shows in the
        // low bits.
        (0..len)
            .map(|i| ((rank * 31 + round * 17 + i * 7) % 97) as f32 * 0.37 - 11.3 / (1 + i) as f32)
            .collect()
    }

    /// Three rounds on one arena with `per_share` ranks per thread.
    fn rounds_match_the_ring(ex: &mut GradExchange, world: usize, len: usize, per_share: usize) {
        for round in 0..3 {
            let mut ranks: Vec<Rank> = (0..world)
                .map(|r| (gradient(r, round, len), Vec::new()))
                .collect();
            let mut expect: Vec<Vec<f32>> = ranks.iter().map(|r| r.0.clone()).collect();
            mgnn_model::ring_allreduce_average(&mut expect);

            let shares = ex.shares(per_share);
            assert_eq!(shares.len(), world.div_ceil(per_share));
            std::thread::scope(|s| {
                for (mut share, mine) in shares.into_iter().zip(ranks.chunks_mut(per_share)) {
                    s.spawn(move || {
                        share.all_reduce(
                            mine,
                            |r, slot| slot.copy_from_slice(&r.0),
                            |r, avg| r.1 = avg.to_vec(),
                        )
                    });
                }
            });
            for (r, (got, want)) in ranks.iter().zip(&expect).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got.1),
                    bits(want),
                    "world {world} len {len} per_share {per_share} round {round} rank {r}"
                );
            }
        }
    }

    #[test]
    fn exchange_equals_ring_allreduce_under_both_schedulers() {
        for world in [1, 2, 3, 5, 8] {
            // Fewer elements than trainers, one cache line exactly, one over.
            for len in [0, 1, 15, 16, 17, 1000] {
                let mut ex = GradExchange::new(world, len);
                // A thread per trainer with a `world`-party barrier, then
                // one thread with a 1-party barrier, on the same arena: a
                // stale slot or average would survive into the next round.
                rounds_match_the_ring(&mut ex, world, len, 1);
                rounds_match_the_ring(&mut ex, world, len, world);
            }
        }
    }

    #[test]
    fn shares_tile_the_world_without_overlap() {
        let mut ex = GradExchange::new(5, 3);
        let ranks: Vec<_> = ex.shares(2).iter().map(|s| s.ranks.clone()).collect();
        assert_eq!(ranks, [0..2, 2..4, 4..5]);
    }
}
