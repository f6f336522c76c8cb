//! Shape tests for the paper's qualitative claims, run through the bench
//! harness itself (the same code path `repro` uses) at quick scale.

use mgnn_bench::figures::{fig11, fig6, fig9};
use mgnn_bench::tables::table3;
use mgnn_bench::Opts;

fn opts() -> Opts {
    Opts {
        epochs: 2,
        batch_size: 96,
        fanouts: vec![5, 10],
        hidden_dim: 32,
        ..Default::default()
    }
}

/// Fig. 6 is the most expensive artifact; share one run across its tests.
fn fig6_once() -> &'static fig6::Fig6 {
    use std::sync::OnceLock;
    static FIG: OnceLock<fig6::Fig6> = OnceLock::new();
    FIG.get_or_init(|| fig6::run(&opts()))
}

#[test]
fn fig6_shape_prefetch_wins_and_eviction_helps_on_cpu() {
    let fig = fig6_once();
    let mut evict_helped = 0usize;
    let mut cpu_groups = 0usize;
    for g in fig.groups.iter().filter(|g| g.backend == "CPU") {
        cpu_groups += 1;
        assert!(
            g.best_improvement_pct() > 0.0,
            "{} {}: prefetch must beat baseline on CPU",
            g.dataset,
            g.num_parts
        );
        let best_evict = g
            .with_evict
            .iter()
            .map(|&(_, _, t, _)| t)
            .fold(f64::INFINITY, f64::min);
        if best_evict <= g.no_evict.1 {
            evict_helped += 1;
        }
    }
    // Eviction helps (or at least ties) in the majority of CPU cells, as
    // in the paper's +5–12 point observation.
    assert!(
        evict_helped * 2 >= cpu_groups,
        "eviction helped in only {evict_helped}/{cpu_groups} CPU groups"
    );
}

#[test]
fn fig6_improvement_band_is_plausible() {
    // The paper reports 15–40% (up to 85% on arxiv). At test scale the
    // band is looser, but improvements must be positive on CPU and not
    // exceed the theoretical bound of 100%.
    let fig = fig6_once();
    for g in &fig.groups {
        let i = g.best_improvement_pct();
        assert!(
            i < 95.0,
            "{} {}: improbable improvement {i:.1}%",
            g.dataset,
            g.backend
        );
    }
}

#[test]
fn fig9_shape_cpu_perfect_gpu_partial() {
    let mut o = opts();
    o.hidden_dim = 128; // paper-like compute weight
    let fig = fig9::run(&o);
    for r in &fig.rows {
        if r.backend == "CPU" {
            assert!(
                r.overlap_efficiency > 0.85,
                "{}: CPU overlap {:.2} should be near-perfect",
                r.dataset,
                r.overlap_efficiency
            );
        }
    }
    // GPU pays H2D + fast compute ⇒ strictly lower overlap than CPU.
    let cpu: f64 = fig
        .rows
        .iter()
        .filter(|r| r.backend == "CPU")
        .map(|r| r.overlap_efficiency)
        .sum();
    let gpu: f64 = fig
        .rows
        .iter()
        .filter(|r| r.backend == "GPU")
        .map(|r| r.overlap_efficiency)
        .sum();
    assert!(cpu >= gpu, "cpu {cpu} vs gpu {gpu}");
}

#[test]
fn fig11_shape_remote_and_comm_reduced() {
    let mut o = opts();
    o.epochs = 3;
    let fig = fig11::run(&o);
    for r in &fig.rows {
        assert!(
            r.remote_reduction_pct() > 5.0,
            "{}: only {:.1}% remote reduction",
            r.dataset,
            r.remote_reduction_pct()
        );
        assert!(
            r.comm_reduction_pct() > 5.0,
            "{}: only {:.1}% comm reduction",
            r.dataset,
            r.comm_reduction_pct()
        );
    }
}

#[test]
fn table3_shape_minibatches_fall_remote_varies() {
    let t = table3::run(&opts());
    for (name, cells) in &t.rows {
        assert!(cells.len() >= 3, "{name}");
        assert!(
            cells.first().unwrap().minibatches > cells.last().unwrap().minibatches,
            "{name}: minibatches must fall with trainer count"
        );
    }
    // papers-like has far more remote nodes than arxiv-like, as in the
    // paper's Table III (14.9M vs 34.6K at 8 trainers).
    let remote_of = |n: &str| t.rows.iter().find(|(name, _)| *name == n).unwrap().1[0].avg_remote;
    assert!(remote_of("papers") > remote_of("arxiv"));
}
