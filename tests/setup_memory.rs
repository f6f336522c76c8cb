//! Set-up memory, free of allocator slack: what `Engine::build` holds when
//! it returns and the most it ever holds on the way, read from the counting
//! allocator (`--features alloc-count`; without it this file is not built).
//!
//! The gauges are process-wide, so this binary holds exactly one test.

use massivegnn::{alloc, Engine, EngineConfig, Mode, PrefetchConfig};
use mgnn_graph::{CsrGraph, Dataset, DatasetKind, Scale};

#[test]
fn engine_build_keeps_one_copy_of_the_features_and_returns_its_scratch() {
    let cfg = EngineConfig {
        dataset: DatasetKind::Papers,
        scale: Scale::Small,
        num_parts: 4,
        trainers_per_part: 1,
        mode: Mode::Prefetch(PrefetchConfig::default()),
        ..Default::default()
    };
    let before = alloc::live_bytes();
    alloc::reset_peak();
    let engine = Engine::build(cfg.clone());
    let live = (alloc::live_bytes() - before) as f64;
    let peak = (alloc::peak_bytes() - before) as f64;

    // (a) What stays: the feature matrix once and the partitions' local
    // graphs — and a tenth of that for id lists, the validation split and
    // the cluster. The global graph is not among them: no run reads it
    // (holding it reads 1.178x here). A second copy of the features (the
    // per-shard gathers the KvStores used to hold) would alone put this
    // at 1.8x.
    let csr_bytes =
        |g: &CsrGraph| std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.targets());
    let views: usize = engine
        .partitions()
        .iter()
        .map(|p| csr_bytes(&p.graph))
        .sum();
    // The engine's dataset, generated again for its sizes: a row of
    // `dim` features and a label per node, and the global graph.
    let dataset = Dataset::generate(cfg.dataset, cfg.scale, cfg.seed);
    let features = dataset.num_nodes() * (dataset.features.dim() + 1) * 4;
    let floor = (features + views) as f64;
    assert!(
        live <= 1.10 * floor,
        "live after build {live:.0} B is {:.3}x of features + views ({floor:.0} B)",
        live / floor
    );

    // (b) What is borrowed on the way, and returned: the global graph,
    // which every stage reads and the build drops once the halo views
    // exist, and the partitioner's per-level maps and connection table.
    // Feature synthesis holds nothing beside the matrix it returns, so
    // running it beside the partitioner costs the maps alone — and never
    // under the halo views, which are built after both.
    let graph = csr_bytes(&dataset.graph) as f64;
    assert!(
        peak <= 1.05 * (live + graph),
        "peak during build {peak:.0} B is {:.3}x of what build keeps + the graph ({:.0} B)",
        peak / (live + graph),
        live + graph
    );
}
