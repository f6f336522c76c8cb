//! Chaos determinism properties: a fault schedule is part of the seeded
//! configuration, so the same `FaultProfile` seed must replay bit for
//! bit — same counters, same degradation, same sim-clock charges — no
//! matter how wide the kernel pool runs.
//!
//! Chaos replay is pinned to the *sequential* engine (one issuing
//! thread gives every request a stable per-server index); the pool
//! width still varies the parallelism of every kernel underneath it,
//! which is exactly what the property stresses. Profiles here never
//! drop replies (drops are detected by wall-clock timeout, which a
//! property test cannot afford 64 times over); delays, truncations and
//! crashes are all detected instantly and cover every sim-time-charging
//! path: delay tags, retry round-trips, backoff, respawn.

use massivegnn::{
    Engine, EngineConfig, FaultProfile, Mode, PrefetchConfig, RetryPolicy, RunReport,
};
use proptest::prelude::*;
use serde::Serialize;
use std::time::Duration;

fn chaos_config(seed: u64, profile: FaultProfile, prefetch: bool) -> EngineConfig {
    EngineConfig {
        seed,
        epochs: 1,
        batch_size: 64,
        fanouts: vec![4, 4],
        hidden_dim: 16,
        // Timeouts only genuinely fire on dropped replies, which these
        // profiles never inject; a generous wall timeout means a busy CI
        // host can never turn a slow reply into a spurious (and
        // schedule-dependent) timeout.
        retry: RetryPolicy {
            timeout: Duration::from_secs(120),
            ..Default::default()
        },
        mode: if prefetch {
            Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                delta: 4,
                ..Default::default()
            })
        } else {
            Mode::Baseline
        },
        fault: Some(profile),
        ..Default::default()
    }
}

/// Everything the run produced, as one comparable string: counters
/// (including the fault lane), timing breakdowns, makespan, losses.
fn fingerprint(r: &RunReport) -> String {
    serde_json::to_string_pretty(&r.to_value())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_fault_seed_replays_identically_at_any_pool_width(
        run_seed in 0u64..1000,
        fault_seed in 0u64..1000,
        // Together at most one verdict per request: `validate()` refuses
        // a profile whose probabilities sum past 1.
        delay_prob in 0.0f64..0.7,
        truncate_prob in 0.0f64..0.3,
        crash_sel in 0u32..3, // 0/1: crash that part; 2: no crash
        crash_after in 1u64..16,
        prefetch_sel in 0u32..2,
    ) {
        let profile = FaultProfile {
            seed: fault_seed,
            drop_prob: 0.0,
            delay_prob,
            delay_factor: 3,
            truncate_prob,
            crash_part: (crash_sel < 2).then_some(crash_sel),
            crash_after: if crash_sel < 2 { crash_after } else { 0 },
        };
        let cfg = chaos_config(run_seed, profile, prefetch_sel == 1);
        let narrow = rayon::pool::with_max_threads(1, || Engine::build(cfg.clone()).run());
        let wide = rayon::pool::with_max_threads(4, || Engine::build(cfg.clone()).run());

        // Identical fault counters AND identical sim-clock charges:
        // retries/backoff must cost the same modeled seconds wherever
        // the pool schedules the work.
        prop_assert_eq!(narrow.aggregate_metrics(), wide.aggregate_metrics());
        prop_assert_eq!(narrow.makespan_s.to_bits(), wide.makespan_s.to_bits());
        prop_assert_eq!(fingerprint(&narrow), fingerprint(&wide));

        // And the replay is stable run-to-run, not just width-to-width.
        let again = rayon::pool::with_max_threads(4, || Engine::build(cfg).run());
        prop_assert_eq!(fingerprint(&wide), fingerprint(&again));
    }

    #[test]
    fn faultless_profile_counts_nothing(
        run_seed in 0u64..1000,
        fault_seed in 0u64..1000,
    ) {
        let cfg = chaos_config(run_seed, FaultProfile::off(fault_seed), true);
        let clean = {
            let mut c = cfg.clone();
            c.fault = None;
            Engine::build(c).run()
        };
        let armed = Engine::build(cfg).run();
        prop_assert!(!armed.aggregate_metrics().had_faults());
        prop_assert_eq!(fingerprint(&clean), fingerprint(&armed));
    }
}
