//! DDP gradient exchange: one lock over the gradients, one barrier, and
//! the barrier's leader running the ring allreduce on them.

use mgnn_model::ring_allreduce_average;
use std::ops::Range;
use std::sync::{Barrier, RwLock};

/// One gradient slot per trainer behind one [`RwLock`], allocated once
/// per run, and the barrier the shares of a deal meet at.
///
/// # Round protocol ([`Share::all_reduce`])
///
/// ```text
/// write own slots    -- write lock, a share's own ranks
///     barrier
/// leader averages    -- write lock, the ring over every slot
///     barrier
/// apply own slots    -- read lock
/// ```
///
/// The leader runs [`ring_allreduce_average`] itself, so every rank's
/// average is the ring's bit for bit, whichever thread leads and however
/// many threads take part; after its allgather every slot holds the
/// average, so each share reads its own ranks' slots. A share looping
/// into the next round takes the write lock to publish only once every
/// reader of this round's average has let go of it, and the next
/// allreduce waits for every share at the next first barrier.
pub(super) struct GradExchange {
    slots: RwLock<Vec<Vec<f32>>>,
    world: usize,
    /// One party per share of the current deal.
    barrier: Barrier,
}

/// One scheduler thread's part in the exchange: the consecutive trainer
/// ranks it steps. Ranks of the shares of one deal tile `0..world`
/// without overlap, so each slot has one writer.
pub(super) struct Share<'a> {
    ex: &'a GradExchange,
    ranks: Range<usize>,
}

impl GradExchange {
    /// Slots for `world` gradients of `len` f32s, zero-initialized.
    pub(super) fn new(world: usize, len: usize) -> Self {
        assert!(world > 0);
        GradExchange {
            slots: RwLock::new(vec![vec![0.0; len]; world]),
            world,
            barrier: Barrier::new(1),
        }
    }

    /// Deal the trainers out, `per_share` consecutive ranks to a share
    /// (`world` for one round-robin thread, 1 for a thread per trainer),
    /// and size the barrier to the number of shares. The shares borrow
    /// the exchange exclusively, so no second deal — other ranks, another
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
        {
            let mut slots = ex.slots.write().expect("a trainer panicked mid-exchange");
            for (slot, trainer) in slots[self.ranks.clone()].iter_mut().zip(&*trainers) {
                publish(trainer, slot);
            }
        }
        if ex.barrier.wait().is_leader() {
            ring_allreduce_average(&mut ex.slots.write().expect("a trainer panicked mid-exchange"));
        }
        ex.barrier.wait();
        let slots = ex.slots.read().expect("a trainer panicked mid-exchange");
        for (trainer, avg) in trainers.iter_mut().zip(&slots[self.ranks.clone()]) {
            apply(trainer, avg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in trainer: its rank and the average it was handed.
    type Rank = (usize, Vec<f32>);

    fn gradient(rank: usize, round: usize, len: usize) -> Vec<f32> {
        // Irregular magnitudes, so a changed summation order shows in the
        // low bits.
        (0..len)
            .map(|i| ((rank * 31 + round * 17 + i * 7) % 97) as f32 * 0.37 - 11.3 / (1 + i) as f32)
            .collect()
    }

    /// Hold rank `rank` up before `phase` (0 publish, 1 apply) of round
    /// `round`: yield the thread or spin, a number of times drawn from
    /// `schedule`, so the shares reach the lock and the barriers in an
    /// order the seed picks.
    fn stall(schedule: u64, rank: usize, round: usize, phase: u64) {
        // splitmix64 over the point in the schedule.
        let mut h = schedule ^ ((rank as u64) << 40) ^ ((round as u64) << 8) ^ phase;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        for _ in 0..h % 4 {
            if h & (1 << 32) != 0 {
                std::thread::yield_now();
            } else {
                for _ in 0..(h >> 40) % 512 {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Run `rounds` on one exchange with `per_share` ranks per thread,
    /// every share stepping through all of them on its own thread under
    /// the `schedule` seed's stalls; every rank's average must equal the
    /// ring's bit for bit in every round.
    fn rounds_match_the_ring(
        ex: &mut GradExchange,
        world: usize,
        len: usize,
        per_share: usize,
        rounds: Range<usize>,
        schedule: u64,
    ) {
        let expect: Vec<Vec<Vec<f32>>> = rounds
            .clone()
            .map(|round| {
                let mut g: Vec<Vec<f32>> = (0..world).map(|r| gradient(r, round, len)).collect();
                mgnn_model::ring_allreduce_average(&mut g);
                g
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let shares = ex.shares(per_share);
        assert_eq!(shares.len(), world.div_ceil(per_share));
        // A share that panicked mid-run would leave the others waiting at
        // the barrier, so each share lists its mismatches and the check
        // runs after the join.
        let mismatches: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|mut share| {
                    let (expect, rounds) = (&expect, rounds.clone());
                    s.spawn(move || {
                        let mut mine: Vec<Rank> =
                            share.ranks.clone().map(|r| (r, Vec::new())).collect();
                        let mut bad = Vec::new();
                        for round in rounds.clone() {
                            share.all_reduce(
                                &mut mine,
                                |&(r, _), slot| {
                                    stall(schedule, r, round, 0);
                                    slot.copy_from_slice(&gradient(r, round, len));
                                },
                                |(r, got), avg| {
                                    stall(schedule, *r, round, 1);
                                    *got = avg.to_vec();
                                },
                            );
                            for (r, got) in &mine {
                                if bits(got) != bits(&expect[round - rounds.start][*r]) {
                                    bad.push(format!("round {round} rank {r}"));
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert!(
            mismatches.is_empty(),
            "world {world} len {len} per_share {per_share} schedule {schedule}: {mismatches:?}"
        );
    }

    #[test]
    fn exchange_equals_ring_allreduce_under_both_schedulers() {
        for world in [1, 2, 3, 5, 8] {
            // Fewer elements than trainers, a few, many.
            for len in [0, 1, 17, 1000] {
                let mut ex = GradExchange::new(world, len);
                let schedule = (world * 10_000 + len) as u64;
                // A thread per trainer with a `world`-party barrier, then
                // one thread with a 1-party barrier, on the same buffers
                // and with fresh gradients: a stale slot or average would
                // survive into the next round.
                rounds_match_the_ring(&mut ex, world, len, 1, 0..200, schedule);
                rounds_match_the_ring(&mut ex, world, len, world, 200..400, schedule);
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
