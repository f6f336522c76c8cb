//! Ablation (beyond the paper's figures): the score-based periodic
//! evict-and-replace against classic per-access policies (LRU, LFU,
//! random) and the static buffer, replaying the *identical* sampled
//! halo stream from a real partition. Quantifies the design trade-off
//! §IV-E argues qualitatively: bulk periodic maintenance buys nearly
//! per-access-policy hit rates at a fraction of the maintenance rounds.

use crate::harness::{engine_config, Opts};
use massivegnn::ablation::{replay_policies, CachePolicy};
use massivegnn::init::top_degree_halo;
use massivegnn::Engine;
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One policy's outcome on the shared stream.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label.
    pub policy: &'static str,
    /// Cumulative hit rate.
    pub hit_rate: f64,
    /// Replacements performed.
    pub replacements: u64,
    /// Maintenance rounds (bookkeeping events).
    pub maintenance_events: u64,
}

/// The ablation result.
pub struct Ablation {
    /// One row per policy.
    pub rows: Vec<Row>,
    /// Minibatches replayed.
    pub minibatches: usize,
    /// Buffer capacity used.
    pub capacity: usize,
}

/// Build the halo stream trainer 0 of a products-like engine samples and
/// replay it through all policies, on the long-run profile of the
/// eviction-dynamics figures ([`Opts::longrun_of`]): on a shorter stream
/// no occupant stays idle a whole Δ interval, so the score-based policy
/// replaces nothing and reads exactly as static.
pub fn run(opts: &Opts) -> Ablation {
    let opts = &opts.longrun_of();
    let cfg = engine_config(opts, DatasetKind::Products, Backend::Cpu, 2);
    let engine = Engine::build(cfg);
    // Trainer 0's partition, shard and seeds, as every run gets them.
    let (part, loader, sampler) = engine.trainer_inputs(0);
    let num_local = part.num_local();

    // The engine's schedule: `steps_per_epoch()` steps an epoch (the
    // minimum shard's), at the engine's global step numbers — not every
    // batch of trainer 0's shard.
    let epochs = (opts.epochs * 8).max(12) as u64;
    let steps = engine.steps_per_epoch();
    let mut stream: Vec<Vec<u32>> = Vec::with_capacity(epochs as usize * steps);
    for epoch in 0..epochs {
        for (i, seeds) in loader.epoch(epoch).iter().take(steps).enumerate() {
            let mb = sampler.sample(&part, seeds, epoch, epoch * steps as u64 + i as u64);
            let (_, halo) = mb.split_local_halo(num_local);
            stream.push(halo.iter().map(|&l| l - num_local as u32).collect());
        }
    }

    // Shared initial occupancy: what a prefetcher buffers at `f_h` 0.25.
    let initial = top_degree_halo(&part, 0.25);

    let policies = [
        // Δ = 8, not the engine's default 64: at quick scale a 32-step
        // interval already leaves no occupant idle a full window,
        // silently disabling the policy under test.
        CachePolicy::ScoreBased {
            gamma: 0.995,
            delta: 8,
        },
        CachePolicy::Static,
        CachePolicy::Lru,
        CachePolicy::Lfu,
        CachePolicy::Random { seed: 11 },
    ];
    let sims = replay_policies(&policies, &part.halo_degree, &initial, &stream);
    let rows = policies
        .iter()
        .zip(&sims)
        .map(|(p, s)| Row {
            policy: p.name(),
            hit_rate: s.tracker.cumulative(),
            replacements: s.replacements,
            maintenance_events: s.maintenance_events,
        })
        .collect();
    Ablation {
        rows,
        minibatches: stream.len(),
        capacity: initial.len(),
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — eviction policy on an identical sampled stream ({} minibatches, capacity {})",
            self.minibatches, self.capacity
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>13} {:>13}",
            "policy", "hit(%)", "replacements", "maintenance"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8.1} {:>13} {:>13}",
                r.policy,
                100.0 * r.hit_rate,
                r.replacements,
                r.maintenance_events
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_replays_the_engines_steps() {
        // At batch 32 trainer 0's shard has 8 batches an epoch and the
        // smallest shard 7: the engine runs 7, so the replay must too.
        let mut opts = Opts::quick();
        opts.batch_size = 32;
        let long = opts.longrun_of();
        let cfg = engine_config(&long, DatasetKind::Products, Backend::Cpu, 2);
        let engine = Engine::build(cfg);
        let steps = engine.steps_per_epoch();
        assert!(
            engine.trainer_inputs(0).1.batches_per_epoch() > steps,
            "the world must have unequal shards"
        );
        let epochs = (long.epochs * 8).max(12);
        assert_eq!(run(&opts).minibatches, epochs * steps);
    }

    #[test]
    fn score_based_competitive_with_few_maintenance_rounds() {
        // On a real degree-skewed stream with top-degree initialization,
        // the static buffer is already close to optimal (degree ≈
        // popularity), so the honest claim is: the score-based policy
        // stays within a small margin of static/LRU while doing a small
        // fraction of the maintenance rounds — and clearly beats random
        // replacement. (Adaptivity's win over static under *poor*
        // initialization is covered by massivegnn::ablation's unit tests.)
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let ab = run(&opts);
        let get = |n: &str| ab.rows.iter().find(|r| r.policy == n).unwrap();
        let score = get("score-based");
        let stat = get("static");
        let lru = get("lru");
        let random = get("random");
        assert!(
            score.hit_rate >= stat.hit_rate - 0.05,
            "score {} fell too far below static {}",
            score.hit_rate,
            stat.hit_rate
        );
        assert!(
            score.hit_rate > random.hit_rate,
            "score {} vs random {}",
            score.hit_rate,
            random.hit_rate
        );
        assert!(
            score.maintenance_events < lru.maintenance_events,
            "periodic policy must do fewer rounds"
        );
        // Regression for the Eq. 1 boundary bug: with the strict `S_E < α`
        // compare the score-based policy performed literally zero
        // replacements — Algorithm 2's evict-and-replace was dead.
        assert!(
            score.replacements > 0,
            "score-based policy must actually replace nodes"
        );
        assert!(format!("{ab}").contains("Ablation"));
    }

    /// What `repro --experiment ablation` runs must exercise the policy
    /// under test: a stream too short for an occupant to sit idle a whole
    /// Δ interval replaces nothing, and the score-based row reads static's.
    #[test]
    fn score_based_replaces_at_the_default_profile() {
        let ab = run(&Opts::default());
        let score = ab.rows.iter().find(|r| r.policy == "score-based").unwrap();
        assert!(score.replacements > 0, "{ab}");
    }
}
