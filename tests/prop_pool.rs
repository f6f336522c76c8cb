//! Buffer-pooling purity properties: recycling `PreparedBatch` carcasses
//! and per-step scratch (PR5's zero-allocation steady state) is a pure
//! allocation optimization, so `pooling: false` — the fresh-allocation
//! behavior every earlier PR shipped — must reproduce the pooled run's
//! `RunReport` bit for bit: same counters, same sim-clock charges, same
//! final parameters. The property holds at any kernel-pool width, under
//! chaos (the `light` fault profile's dropped, delayed and truncated
//! replies exercise the degraded-fetch paths through the pooled
//! scratch), and on the threaded engine, chaos included.

use massivegnn::{Engine, EngineConfig, FaultProfile, Mode, PrefetchConfig, RunReport};
use proptest::prelude::*;
use serde::Serialize;

fn pool_config(seed: u64, prefetch: bool, fault: Option<FaultProfile>) -> EngineConfig {
    EngineConfig {
        seed,
        // Two epochs so recycling crosses an epoch-plan boundary (the
        // steady state the allocator proof measures starts at epoch 1).
        epochs: 2,
        batch_size: 64,
        fanouts: vec![4, 4],
        hidden_dim: 16,
        train_math: true,
        mode: if prefetch {
            Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                delta: 4,
                ..Default::default()
            })
        } else {
            Mode::Baseline
        },
        fault,
        ..Default::default()
    }
}

/// Everything the run produced, as one comparable string.
fn fingerprint(r: &RunReport) -> String {
    serde_json::to_string_pretty(&r.to_value())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pooled_run_bitwise_identical_to_fresh(
        run_seed in 0u64..1000,
        prefetch_sel in 0u32..2,
        width_sel in 0u32..2,
    ) {
        let width = if width_sel == 1 { 4 } else { 1 };
        let cfg = pool_config(run_seed, prefetch_sel == 1, None);
        let pooled =
            rayon::pool::with_max_threads(width, || Engine::build(cfg.clone()).run());
        let fresh = rayon::pool::with_max_threads(width, || {
            let mut c = cfg.clone();
            c.pooling = false;
            Engine::build(c).run()
        });
        prop_assert_eq!(pooled.aggregate_metrics(), fresh.aggregate_metrics());
        prop_assert_eq!(&pooled.final_params, &fresh.final_params);
        prop_assert_eq!(fingerprint(&pooled), fingerprint(&fresh));

        // The threaded engine recycles through the prepare-thread return
        // channel instead of a local carcass; same contract.
        let fresh_threaded = rayon::pool::with_max_threads(width, || {
            let mut c = cfg.clone();
            c.pooling = false;
            c.parallel = true;
            Engine::build(c).run()
        });
        prop_assert_eq!(fingerprint(&pooled), fingerprint(&fresh_threaded));
    }

    #[test]
    fn pooled_run_identical_under_light_chaos(
        run_seed in 0u64..1000,
        fault_seed in 0u64..1000,
        prefetch_sel in 0u32..2,
    ) {
        // Pooling must not perturb the fault schedule or the degraded
        // rows written into recycled feature buffers, on either
        // scheduler: `light` crashes nothing, so its verdicts are the
        // requests' own whichever thread issues them.
        let cfg = pool_config(run_seed, prefetch_sel == 1, Some(FaultProfile::light(fault_seed)));
        let pooled = Engine::build(cfg.clone()).run();
        let fresh = {
            let mut c = cfg.clone();
            c.pooling = false;
            Engine::build(c).run()
        };
        prop_assert_eq!(pooled.aggregate_metrics(), fresh.aggregate_metrics());
        prop_assert_eq!(fingerprint(&pooled), fingerprint(&fresh));
        let fresh_threaded = Engine::build(EngineConfig {
            pooling: false,
            parallel: true,
            ..cfg
        })
        .run();
        prop_assert_eq!(fingerprint(&pooled), fingerprint(&fresh_threaded));
    }
}
