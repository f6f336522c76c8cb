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

use crate::hitrate::HitRateTracker;
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
    capacity: usize,
    num_halo: usize,
    /// halo -> present
    present: Vec<bool>,
    /// Occupants (unordered for score-based/static, recency-ordered for
    /// LRU where front = oldest).
    occupants: Vec<u32>,
    // Per-policy state.
    last_used: Vec<u64>, // LRU timestamps, per halo
    freq: Vec<u64>,      // LFU counts, per halo
    s_e: Vec<f64>,       // score-based: aligned with occupants
    s_a: Vec<f64>,       // score-based: per halo
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
    /// Create with an initial occupant set (e.g. top-degree halo indices).
    pub fn new(policy: CachePolicy, num_halo: usize, initial: &[u32]) -> Self {
        let capacity = initial.len();
        let mut present = vec![false; num_halo];
        for &h in initial {
            assert!((h as usize) < num_halo);
            assert!(!present[h as usize], "duplicate initial occupant");
            present[h as usize] = true;
        }
        let seed = match policy {
            CachePolicy::Random { seed } => seed,
            _ => 0,
        };
        CacheSim {
            policy,
            capacity,
            num_halo,
            present,
            occupants: initial.to_vec(),
            last_used: vec![0; num_halo],
            freq: vec![0; num_halo],
            s_e: vec![1.0; capacity],
            s_a: vec![0.0; num_halo],
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            tracker: HitRateTracker::new(),
            replacements: 0,
            maintenance_events: 0,
        }
    }

    /// Process one minibatch's sampled halo set (deduplicated ids).
    pub fn access(&mut self, sampled: &[u32]) {
        self.step += 1;
        let mut hits = 0u64;
        let mut misses_list: Vec<u32> = Vec::new();
        for &h in sampled {
            if self.present[h as usize] {
                hits += 1;
                self.last_used[h as usize] = self.step;
                self.freq[h as usize] += 1;
            } else {
                misses_list.push(h);
                self.freq[h as usize] += 1;
            }
        }
        self.tracker.record(hits, misses_list.len() as u64);
        if self.capacity == 0 {
            return;
        }

        match self.policy {
            CachePolicy::Static => {}
            CachePolicy::Lru => {
                self.maintenance_events += 1;
                for &h in &misses_list {
                    let victim_pos = self.victim_min_by(|s, h| s.last_used[h as usize]);
                    self.swap_in(victim_pos, h);
                    self.last_used[h as usize] = self.step;
                }
            }
            CachePolicy::Lfu => {
                self.maintenance_events += 1;
                for &h in &misses_list {
                    let victim_pos = self.victim_min_by(|s, h| s.freq[h as usize]);
                    // Only replace if the newcomer is at least as frequent
                    // (classic LFU admission).
                    let victim = self.occupants[victim_pos];
                    if self.freq[h as usize] >= self.freq[victim as usize] {
                        self.swap_in(victim_pos, h);
                    }
                }
            }
            CachePolicy::Random { .. } => {
                self.maintenance_events += 1;
                for &h in &misses_list {
                    let victim_pos = self.rng.gen_range(0..self.occupants.len());
                    self.swap_in(victim_pos, h);
                }
            }
            CachePolicy::ScoreBased { gamma, delta } => {
                // Decay unsampled occupants (used ones reset to 1),
                // bump S_A of misses.
                for i in 0..self.occupants.len() {
                    let h = self.occupants[i];
                    if self.last_used[h as usize] != self.step {
                        self.s_e[i] *= gamma;
                    } else {
                        self.s_e[i] = 1.0;
                    }
                }
                for &h in &misses_list {
                    self.s_a[h as usize] += 1.0;
                }
                if delta > 0 && self.step.is_multiple_of(delta as u64) {
                    self.maintenance_events += 1;
                    let alpha = gamma.powi(delta as i32);
                    // Eviction candidates at/below threshold (Eq. 1 is
                    // inclusive — see scoreboard::meets_eviction_threshold),
                    // ascending score.
                    let mut evict: Vec<usize> = (0..self.occupants.len())
                        .filter(|&i| {
                            crate::scoreboard::meets_eviction_threshold(self.s_e[i], alpha)
                                && self.last_used[self.occupants[i] as usize] != self.step
                        })
                        .collect();
                    // `total_cmp` + index tie-break: panic-proof under
                    // NaN and fully deterministic on equal scores.
                    evict.sort_unstable_by(|&a, &b| {
                        self.s_e[a].total_cmp(&self.s_e[b]).then(a.cmp(&b))
                    });
                    // Replacement candidates: uncached with S_A > 0, by S_A.
                    let mut cands: Vec<u32> = (0..self.num_halo as u32)
                        .filter(|&h| !self.present[h as usize] && self.s_a[h as usize] > 0.0)
                        .collect();
                    cands.sort_unstable_by(|&a, &b| {
                        self.s_a[b as usize]
                            .total_cmp(&self.s_a[a as usize])
                            .then(a.cmp(&b))
                    });
                    let k = evict.len().min(cands.len());
                    for i in 0..k {
                        let pos = evict[i];
                        let new_h = cands[i];
                        let old = self.occupants[pos];
                        // Score swap, as in the paper.
                        self.s_a[old as usize] = self.s_e[pos];
                        self.s_e[pos] = self.s_a[new_h as usize];
                        self.s_a[new_h as usize] = -1.0;
                        self.swap_in(pos, new_h);
                    }
                }
            }
        }
    }

    fn victim_min_by(&self, key: impl Fn(&Self, u32) -> u64) -> usize {
        let mut best = 0usize;
        let mut best_key = u64::MAX;
        for (i, &h) in self.occupants.iter().enumerate() {
            let k = key(self, h);
            if k < best_key {
                best_key = k;
                best = i;
            }
        }
        best
    }

    fn swap_in(&mut self, pos: usize, new_h: u32) {
        let old = self.occupants[pos];
        debug_assert!(self.present[old as usize] && !self.present[new_h as usize]);
        self.present[old as usize] = false;
        self.present[new_h as usize] = true;
        self.occupants[pos] = new_h;
        self.replacements += 1;
    }
}

/// Replay the same access stream through several policies. Each element of
/// `stream` is one minibatch's deduplicated sampled halo set; `initial` is
/// the shared starting occupancy (top-degree, as the paper initializes).
pub fn replay_policies(
    policies: &[CachePolicy],
    num_halo: usize,
    initial: &[u32],
    stream: &[Vec<u32>],
) -> Vec<CacheSim> {
    policies
        .iter()
        .map(|&p| {
            let mut sim = CacheSim::new(p, num_halo, initial);
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
        for sim in replay_policies(&policies, 500, &initial, &stream) {
            assert_eq!(sim.occupants.len(), 100, "{}", sim.policy.name());
            // present[] agrees with occupants
            let count = sim.present.iter().filter(|&&p| p).count();
            assert_eq!(count, 100);
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
        let sims = replay_policies(&policies, 800, &initial, &stream);
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
            500,
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
        let sims = replay_policies(&[CachePolicy::Static], 300, &initial, &stream);
        assert_eq!(sims[0].replacements, 0);
        assert_eq!(sims[0].maintenance_events, 0);
    }

    #[test]
    fn random_policy_reproducible() {
        let stream = skewed_stream(300, 30, 20, 2);
        let initial = initial_random(300, 50);
        let a = replay_policies(&[CachePolicy::Random { seed: 9 }], 300, &initial, &stream);
        let b = replay_policies(&[CachePolicy::Random { seed: 9 }], 300, &initial, &stream);
        assert_eq!(a[0].tracker.cumulative(), b[0].tracker.cumulative());
        assert_eq!(a[0].replacements, b[0].replacements);
    }

    #[test]
    fn zero_capacity_all_misses() {
        let stream = skewed_stream(100, 10, 5, 1);
        let mut sim = CacheSim::new(CachePolicy::Lru, 100, &[]);
        for mb in &stream {
            sim.access(mb);
        }
        assert_eq!(sim.tracker.cumulative(), 0.0);
    }
}
