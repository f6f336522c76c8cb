//! Quickstart: train a 2-layer GraphSAGE on a products-like distributed
//! graph, baseline DistDGL vs MassiveGNN prefetch+eviction, and print the
//! headline comparison.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig};
use mgnn_graph::{DatasetKind, Scale};

fn main() {
    let cfg = EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Unit,
        num_parts: 2,
        trainers_per_part: 2,
        batch_size: 64,
        epochs: 4,
        fanouts: vec![10, 25],
        hidden_dim: 32,
        train_math: true,
        ..Default::default()
    };

    println!("== MassiveGNN quickstart ==");
    println!(
        "dataset: {}-like | partitions: {} | trainers/node: {} | epochs: {}",
        cfg.dataset.name(),
        cfg.num_parts,
        cfg.trainers_per_part,
        cfg.epochs
    );

    // One world, two runs: baseline DistDGL (the configured mode), then
    // MassiveGNN prefetch with eviction.
    let engine = Engine::build(cfg);
    let baseline = engine.run();
    let prefetch = engine
        .run_as(Mode::Prefetch(PrefetchConfig {
            f_h: 0.35,
            gamma: 0.995,
            delta: 32,
            ..Default::default()
        }))
        .expect("a valid prefetch configuration");

    let b = baseline.aggregate_metrics();
    let p = prefetch.aggregate_metrics();
    println!();
    println!(
        "{:<30} {:>14} {:>14}",
        "", baseline.mode_label, "MassiveGNN"
    );
    println!(
        "{:<30} {:>14.3} {:>14.3}",
        "simulated training time (s)", baseline.makespan_s, prefetch.makespan_s
    );
    println!(
        "{:<30} {:>14} {:>14}",
        "remote nodes fetched", b.remote_nodes_fetched, p.remote_nodes_fetched
    );
    println!(
        "{:<30} {:>14.1} {:>14.1}",
        "hit rate (%)",
        100.0 * baseline.hit_rate(),
        100.0 * prefetch.hit_rate()
    );
    println!(
        "{:<30} {:>14.3} {:>14.3}",
        "final epoch loss",
        baseline.epoch_loss.last().copied().unwrap_or(f32::NAN),
        prefetch.epoch_loss.last().copied().unwrap_or(f32::NAN)
    );
    println!(
        "{:<30} {:>14.3} {:>14.3}",
        "validation accuracy",
        engine.evaluate(&baseline.final_params),
        engine.evaluate(&prefetch.final_params)
    );
    let speedup = 100.0 * (1.0 - prefetch.makespan_s / baseline.makespan_s);
    println!();
    println!("end-to-end improvement: {speedup:.1}%  (paper reports 15–40%)");
    assert_eq!(
        baseline.epoch_loss, prefetch.epoch_loss,
        "prefetching must not change training math"
    );
    println!("training math identical in both modes ✓");
}
