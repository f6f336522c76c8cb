//! Eviction-policy ablation: replay a real sampled halo-node stream
//! through alternative cache policies and compare hit rates against the
//! paper's score-based periodic evict-and-replace.
//!
//! The paper argues (§III, §IV-E) that classic per-access policies (LRU,
//! LFU) do per-minibatch bookkeeping on every touched node and evict
//! one-at-a-time on misses — fine for a CPU cache, but the prefetch buffer
//! wants *bulk periodic* maintenance so score updates hide under the miss
//! RPC and replacements batch into one fetch. This module makes that
//! trade-off measurable: all policies see the identical access stream
//! (hit/miss counting only, no feature payloads), so differences are
//! purely the replacement decisions.

use crate::buffer::PrefetchBuffer;
use crate::config::{PrefetchConfig, ScoreLayout};
use crate::hitrate::HitRateTracker;
use crate::scoreboard::{AccessScores, EvictionScores, Scoreboards};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which replacement policy a [`CacheSim`] uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachePolicy {
    /// The paper's scheme: decay-based eviction scores, Δ-periodic bulk
    /// evict-and-replace by access scores.
    ScoreBased {
        /// Decay factor γ.
        gamma: f64,
        /// Eviction interval Δ.
        delta: usize,
    },
    /// Static buffer: initialize once, never evict
    /// ("prefetch without eviction").
    Static,
    /// Classic LRU: on miss, evict the least-recently-used entry.
    Lru,
    /// Classic LFU: on miss, evict the least-frequently-used entry.
    Lfu,
    /// Random replacement on miss.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl CachePolicy {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::ScoreBased { .. } => "score-based",
            CachePolicy::Static => "static",
            CachePolicy::Lru => "lru",
            CachePolicy::Lfu => "lfu",
            CachePolicy::Random { .. } => "random",
        }
    }
}

/// A feature-less cache simulator over halo indices `0..num_halo`.
pub struct CacheSim {
    policy: CachePolicy,
    /// Who is resident, and in which slot: the prefetcher's buffer at
    /// zero width (no feature payloads).
    pub buffer: PrefetchBuffer,
    /// Halo indices are their own ids here (what `S_A` is addressed by).
    halo_ids: Vec<u32>,
    halo_degree: Vec<u32>,
    last_used: Vec<u64>, // LRU timestamps, per halo
    freq: Vec<u64>,      // LFU counts, per halo
    /// Score-based: the production scoreboards, driven through
    /// [`Scoreboards`] exactly as the prefetcher drives them.
    pub s_e: EvictionScores,
    /// See [`s_e`](Self::s_e).
    pub s_a: AccessScores,
    /// Minibatches seen so far: the prefetcher's global step.
    step: u64,
    rng: StdRng,
    /// Running hit/miss record.
    pub tracker: HitRateTracker,
    /// Total replacements performed (bulk or per-miss).
    pub replacements: u64,
    /// Number of maintenance events (bookkeeping rounds): per-minibatch
    /// for LRU/LFU, every Δ-th minibatch for score-based, 0 for static.
    pub maintenance_events: u64,
}

impl CacheSim {
    /// Create over halo nodes of the given degrees (which break the
    /// score-based policy's ties) with an initial occupant set, in slot
    /// order (e.g. [`crate::init::top_degree_halo`]).
    pub fn new(policy: CachePolicy, halo_degree: &[u32], initial: &[u32]) -> Self {
        let num_halo = halo_degree.len();
        let mut buffer = PrefetchBuffer::new(num_halo, initial.len(), 0);
        let mut s_a = AccessScores::new(ScoreLayout::Dense, num_halo, num_halo);
        let halo_ids: Vec<u32> = (0..num_halo as u32).collect();
        for &h in initial {
            buffer.insert_with(h, |_| ());
            s_a.set(&halo_ids, h, -1.0);
        }
        let seed = match policy {
            CachePolicy::Random { seed } => seed,
            _ => 0,
        };
        CacheSim {
            policy,
            s_e: EvictionScores::new(initial.len()),
            s_a,
            buffer,
            halo_ids,
            halo_degree: halo_degree.to_vec(),
            last_used: vec![0; num_halo],
            freq: vec![0; num_halo],
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            tracker: HitRateTracker::new(),
            replacements: 0,
            maintenance_events: 0,
        }
    }

    /// Process one minibatch's sampled halo set (deduplicated ids).
    pub fn access(&mut self, sampled: &[u32]) {
        let step = self.step;
        self.step += 1;
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        self.buffer
            .probe_batch_into(sampled, &mut hits, &mut misses);
        for &h in sampled {
            self.freq[h as usize] += 1;
        }
        for &h in &hits {
            self.last_used[h as usize] = self.step;
        }
        self.tracker.record(hits.len() as u64, misses.len() as u64);
        if self.buffer.capacity() == 0 {
            return;
        }

        match self.policy {
            CachePolicy::Static => {}
            CachePolicy::Lru => {
                self.maintenance_events += 1;
                for &h in &misses {
                    let victim = self.victim_min_by(|s, h| s.last_used[h as usize]);
                    self.swap_in(victim, h);
                    self.last_used[h as usize] = self.step;
                }
            }
            CachePolicy::Lfu => {
                self.maintenance_events += 1;
                for &h in &misses {
                    let victim = self.victim_min_by(|s, h| s.freq[h as usize]);
                    // Only replace if the newcomer is at least as frequent
                    // (classic LFU admission).
                    let old = self.buffer.halo_at(victim);
                    if self.freq[h as usize] >= self.freq[old as usize] {
                        self.swap_in(victim, h);
                    }
                }
            }
            CachePolicy::Random { .. } => {
                self.maintenance_events += 1;
                for &h in &misses {
                    let victim = self.rng.gen_range(0..self.buffer.len()) as u32;
                    self.swap_in(victim, h);
                }
            }
            CachePolicy::ScoreBased { gamma, delta } => {
                let cfg = PrefetchConfig {
                    gamma,
                    delta,
                    ..PrefetchConfig::default()
                };
                let mut boards = Scoreboards {
                    s_e: &mut self.s_e,
                    s_a: &mut self.s_a,
                    halo_nodes: &self.halo_ids,
                    halo_degree: &self.halo_degree,
                };
                let (last_used, now) = (&self.last_used, self.step);
                boards.record_minibatch(
                    &self.buffer,
                    gamma,
                    |h| last_used[h as usize] == now,
                    &misses,
                );
                let mut pairs = Vec::new();
                let round = boards.select_replacements(
                    &self.buffer,
                    &cfg,
                    step,
                    &hits,
                    &mut Vec::new(),
                    &mut pairs,
                );
                self.maintenance_events += u64::from(round.is_some());
                for &(slot, new_h) in &pairs {
                    let old_h = self.buffer.replace_with(slot, new_h, |_| ());
                    boards.swap_scores(slot, old_h, new_h);
                }
                self.replacements += pairs.len() as u64;
            }
        }
    }

    /// The occupied slot whose occupant has the smallest `key`.
    fn victim_min_by(&self, key: impl Fn(&Self, u32) -> u64) -> u32 {
        let mut best = 0u32;
        let mut best_key = u64::MAX;
        for (slot, h) in self.buffer.occupied() {
            let k = key(self, h);
            if k < best_key {
                best_key = k;
                best = slot;
            }
        }
        best
    }

    fn swap_in(&mut self, slot: u32, new_h: u32) {
        self.buffer.replace_with(slot, new_h, |_| ());
        self.replacements += 1;
    }
}

/// Replay the same access stream through several policies. Each element of
/// `stream` is one minibatch's deduplicated sampled halo set; `initial` is
/// the shared starting occupancy (top-degree, as the paper initializes).
pub fn replay_policies(
    policies: &[CachePolicy],
    halo_degree: &[u32],
    initial: &[u32],
    stream: &[Vec<u32>],
) -> Vec<CacheSim> {
    policies
        .iter()
        .map(|&p| {
            let mut sim = CacheSim::new(p, halo_degree, initial);
            for mb in stream {
                sim.access(mb);
            }
            sim
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic skewed stream: node h is sampled with probability
    /// proportional to a power-law over a shuffled popularity ranking, so
    /// the popular set is stable but not identical to the initial set.
    fn skewed_stream(
        num_halo: usize,
        minibatches: usize,
        per_mb: usize,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        // popularity rank: permutation of halo ids
        let mut rank: Vec<u32> = (0..num_halo as u32).collect();
        use rand::seq::SliceRandom;
        rank.shuffle(&mut rng);
        (0..minibatches)
            .map(|_| {
                let mut mb: Vec<u32> = Vec::with_capacity(per_mb);
                while mb.len() < per_mb {
                    // Zipf-ish: index ~ floor(u^3 * n) concentrates mass on
                    // low ranks.
                    let u: f64 = rng.gen();
                    let idx = ((u * u * u) * num_halo as f64) as usize;
                    let h = rank[idx.min(num_halo - 1)];
                    if !mb.contains(&h) {
                        mb.push(h);
                    }
                }
                mb
            })
            .collect()
    }

    fn initial_random(num_halo: usize, capacity: usize) -> Vec<u32> {
        // A deliberately bad initial set (the tail ids) so adaptive
        // policies have room to improve.
        ((num_halo - capacity) as u32..num_halo as u32).collect()
    }

    #[test]
    fn capacity_constant_for_all_policies() {
        let stream = skewed_stream(500, 60, 40, 1);
        let initial = initial_random(500, 100);
        let policies = [
            CachePolicy::ScoreBased {
                gamma: 0.95,
                delta: 8,
            },
            CachePolicy::Static,
            CachePolicy::Lru,
            CachePolicy::Lfu,
            CachePolicy::Random { seed: 3 },
        ];
        for sim in replay_policies(&policies, &[0; 500], &initial, &stream) {
            assert_eq!(sim.buffer.len(), 100, "{}", sim.policy.name());
            sim.buffer.check_invariants().unwrap();
        }
    }

    #[test]
    fn adaptive_policies_beat_static_on_skewed_stream() {
        let stream = skewed_stream(800, 150, 50, 7);
        let initial = initial_random(800, 150);
        let policies = [
            CachePolicy::ScoreBased {
                gamma: 0.95,
                delta: 8,
            },
            CachePolicy::Static,
            CachePolicy::Lru,
            CachePolicy::Lfu,
        ];
        let sims = replay_policies(&policies, &[0; 800], &initial, &stream);
        let hr: Vec<f64> = sims.iter().map(|s| s.tracker.cumulative()).collect();
        let (score, stat, lru, lfu) = (hr[0], hr[1], hr[2], hr[3]);
        assert!(score > stat + 0.05, "score {score} vs static {stat}");
        assert!(lru > stat, "lru {lru} vs static {stat}");
        assert!(lfu > stat, "lfu {lfu} vs static {stat}");
    }

    #[test]
    fn score_based_does_fewer_maintenance_rounds_than_lru() {
        let stream = skewed_stream(500, 64, 40, 5);
        let initial = initial_random(500, 100);
        let sims = replay_policies(
            &[
                CachePolicy::ScoreBased {
                    gamma: 0.95,
                    delta: 16,
                },
                CachePolicy::Lru,
            ],
            &[0; 500],
            &initial,
            &stream,
        );
        assert!(
            sims[0].maintenance_events < sims[1].maintenance_events,
            "score {} vs lru {}",
            sims[0].maintenance_events,
            sims[1].maintenance_events
        );
        // And the bulk policy stays within striking distance of LRU's
        // hit rate despite 16× fewer maintenance rounds.
        let score = sims[0].tracker.cumulative();
        let lru = sims[1].tracker.cumulative();
        assert!(score > lru * 0.6, "score {score} vs lru {lru}");
    }

    #[test]
    fn static_never_replaces() {
        let stream = skewed_stream(300, 30, 20, 2);
        let initial = initial_random(300, 50);
        let sims = replay_policies(&[CachePolicy::Static], &[0; 300], &initial, &stream);
        assert_eq!(sims[0].replacements, 0);
        assert_eq!(sims[0].maintenance_events, 0);
    }

    #[test]
    fn random_policy_reproducible() {
        let stream = skewed_stream(300, 30, 20, 2);
        let initial = initial_random(300, 50);
        let a = replay_policies(
            &[CachePolicy::Random { seed: 9 }],
            &[0; 300],
            &initial,
            &stream,
        );
        let b = replay_policies(
            &[CachePolicy::Random { seed: 9 }],
            &[0; 300],
            &initial,
            &stream,
        );
        assert_eq!(a[0].tracker.cumulative(), b[0].tracker.cumulative());
        assert_eq!(a[0].replacements, b[0].replacements);
    }

    #[test]
    fn zero_capacity_all_misses() {
        let stream = skewed_stream(100, 10, 5, 1);
        let mut sim = CacheSim::new(CachePolicy::Lru, &[0; 100], &[]);
        for mb in &stream {
            sim.access(mb);
        }
        assert_eq!(sim.tracker.cumulative(), 0.0);
    }
}
