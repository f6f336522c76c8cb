//! Sweep the prefetcher's tunables (f_p^h, γ, Δ) on one configuration and
//! print time + hit rate per setting — a miniature of Figs. 12–13 and the
//! Table IV optimum search.
//!
//! ```bash
//! cargo run --release --example parameter_sweep
//! ```

use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig};
use mgnn_graph::{DatasetKind, Scale};

fn main() {
    let base = EngineConfig {
        dataset: DatasetKind::Products,
        scale: Scale::Unit,
        num_parts: 2,
        trainers_per_part: 2,
        batch_size: 64,
        epochs: 4,
        fanouts: vec![10, 25],
        hidden_dim: 32,
        ..Default::default()
    };

    // One world for the whole sweep: the baseline is the configured
    // mode, every grid point another mode on the same engine.
    let engine = Engine::build(base);
    let baseline = engine.run();
    println!("baseline DistDGL: {:.3}s", baseline.makespan_s);
    println!();
    println!(
        "{:>6} {:>8} {:>6} {:>10} {:>8} {:>8}",
        "f_h", "gamma", "delta", "time(s)", "impr(%)", "hit(%)"
    );

    let mut best: Option<(f64, String)> = None;
    for &f_h in &[0.15, 0.25, 0.35, 0.5] {
        for &gamma in &[0.95, 0.995] {
            for &delta in &[16usize, 64, 256] {
                let r = engine
                    .run_as(Mode::Prefetch(PrefetchConfig {
                        f_h,
                        gamma,
                        delta,
                        ..Default::default()
                    }))
                    .expect("a valid prefetch configuration");
                let impr = 100.0 * (1.0 - r.makespan_s / baseline.makespan_s);
                println!(
                    "{:>6} {:>8} {:>6} {:>10.3} {:>8.1} {:>8.1}",
                    f_h,
                    gamma,
                    delta,
                    r.makespan_s,
                    impr,
                    100.0 * r.hit_rate()
                );
                let label = format!("f_h={f_h} γ={gamma} Δ={delta}");
                if best.as_ref().is_none_or(|(t, _)| r.makespan_s < *t) {
                    best = Some((r.makespan_s, label));
                }
            }
        }
    }
    let (t, label) = best.unwrap();
    println!();
    println!("optimal (Table IV style): {label} at {t:.3}s");
}
