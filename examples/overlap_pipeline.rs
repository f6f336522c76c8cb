//! Real-thread overlap demo: the same prefetch run stepped round-robin on
//! one thread, then with a trainer thread and a prepare thread (feeding a
//! bounded look-ahead queue) per trainer — the mechanism the paper
//! implements with ThreadPoolExecutor + NUMBA. Prints both wall clocks;
//! the two reports must agree bit for bit.
//!
//! ```bash
//! cargo run --release --example overlap_pipeline
//! ```

use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig};
use mgnn_graph::{DatasetKind, Scale};
use std::time::Instant;

fn main() {
    let mut cfg = EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Small,
        num_parts: 2,
        trainers_per_part: 1,
        batch_size: 256,
        epochs: 2,
        fanouts: vec![10, 25],
        hidden_dim: 96,
        train_math: true,
        mode: Mode::Prefetch(PrefetchConfig {
            f_h: 0.35,
            delta: 16,
            ..Default::default()
        }),
        ..Default::default()
    };
    let timed = |cfg: &EngineConfig| {
        let engine = Engine::build(cfg.clone());
        let t0 = Instant::now();
        let report = engine.run();
        (report, t0.elapsed())
    };

    let (sequential, serial) = timed(&cfg);
    println!(
        "sequential: {} steps x {} trainers in {serial:.2?} (final loss {:.3}, hit rate {:.1}%)",
        cfg.epochs * sequential.steps_per_epoch,
        sequential.world,
        sequential.epoch_loss.last().copied().unwrap_or(f32::NAN),
        100.0 * sequential.hit_rate()
    );

    // On a single core `parallel` falls back to round-robin unless
    // MGNN_THREADS forces the threads.
    cfg.parallel = true;
    let (threaded, overlapped) = timed(&cfg);
    println!("threaded:   same run in {overlapped:.2?}");
    println!(
        "wall-clock overlap benefit: {:.1}%",
        100.0 * (1.0 - overlapped.as_secs_f64() / serial.as_secs_f64())
    );

    assert_eq!(sequential.final_params, threaded.final_params);
    assert_eq!(sequential.epoch_loss, threaded.epoch_loss);
    assert_eq!(sequential.makespan_s, threaded.makespan_s);
    assert_eq!(sequential.aggregate_metrics(), threaded.aggregate_metrics());
    println!("both schedulers report the same run ✓");
}
