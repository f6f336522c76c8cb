//! Run-time memory of the pull path, free of allocator slack: what
//! `Engine::run` holds above what `Engine::build` left, and what one
//! preparation allocates once its buffers have grown — both read from the
//! counting allocator (`--features alloc-count`; without it this file is
//! not built).
//!
//! The gauges are process-wide, so this binary holds exactly one test.

use massivegnn::prefetcher::{baseline_prepare_reuse, PrepareScratch};
use massivegnn::{alloc, Engine, EngineConfig, Mode};
use mgnn_graph::{Dataset, DatasetKind, Scale};
use mgnn_net::{wire, CommMetrics, CostModel, SimCluster};
use mgnn_partition::{build_local_partitions, multilevel_partition};
use mgnn_sampling::{DataLoader, NeighborSampler};

fn baseline(num_parts: usize) -> EngineConfig {
    EngineConfig {
        dataset: DatasetKind::Reddit,
        scale: Scale::Small,
        num_parts,
        trainers_per_part: 1,
        batch_size: 128,
        fanouts: vec![10, 25],
        epochs: 2,
        mode: Mode::Baseline,
        ..Default::default()
    }
}

/// `(peak during run − live after build, one batch)` of a sequential
/// baseline run over `num_parts` partitions, in bytes. The batch is the
/// largest input matrix any trainer assembled: baseline trainers hold
/// nothing else that `TrainerReport::peak_bytes` counts.
fn run_footprint(num_parts: usize) -> (f64, f64) {
    let engine = Engine::build(baseline(num_parts));
    let held = alloc::live_bytes();
    alloc::reset_peak();
    let report = engine.run();
    let peak = (alloc::peak_bytes() - held) as f64;
    let batch = report.trainers.iter().map(|t| t.peak_bytes).max().unwrap() as f64;
    (peak, batch)
}

#[test]
fn a_run_holds_one_batch_and_one_payload_set_and_a_pull_allocates_nothing() {
    // (a) The round-robin step loop keeps one batch and one set of
    // receive buffers alive, however many trainers take turns with them.
    // A set of receive buffers is budgeted as the batch's rows once more
    // at wire width: what a pull of every input row would carry.
    let payload_share = wire::BYTES_PER_ELEM as f64 / std::mem::size_of::<f32>() as f64;
    let (peak2, batch2) = run_footprint(2);
    let (peak4, batch4) = run_footprint(4);
    for (parts, peak, batch) in [(2, peak2, batch2), (4, peak4, batch4)] {
        let budget = batch * (1.0 + payload_share);
        assert!(
            peak <= 1.25 * budget,
            "{parts} parts: run() peaks {peak:.0} B above the build, {:.2}x of one batch + one payload set ({budget:.0} B)",
            peak / budget
        );
    }
    // The two partitionings do not sample equally large batches, so the
    // footprints are compared in units of each run's own batch.
    let (per2, per4) = (peak2 / batch2, peak4 / batch4);
    assert!(
        (per4 - per2).abs() < 0.10 * per2,
        "twice the trainers moved the run's footprint: {per2:.3} batches at 2 parts, {per4:.3} at 4"
    );

    // (b) One preparation — sample, pull, assemble — the way the engine's
    // step loop calls it, under the `ExcludeGuard` that keeps it out of
    // the engine's own hot-step count. The sampler is a pure function of
    // (epoch, step), so a second pass over the same steps asks for
    // exactly the buffers the first pass grew: it must allocate nothing,
    // neither on this thread (`thread_allocs`) nor on a server thread
    // (the live-byte gauge never rises above where the step began).
    let dataset = Dataset::generate(DatasetKind::Reddit, Scale::Unit, 7);
    let partitioning = multilevel_partition(&dataset.graph, 3, 7);
    let cluster = SimCluster::new(&dataset.features, &partitioning.assignment, 3);
    let parts = build_local_partitions(&dataset.graph, &partitioning, &dataset.train_nodes);
    let part = &parts[0];
    let shard = part
        .train_nodes
        .iter()
        .map(|&g| part.local_id(g).expect("train node in its partition"))
        .collect();
    let loader = DataLoader::new(shard, 32, 7);
    let sampler = NeighborSampler::new(vec![5, 10], 7);
    let (cost, metrics) = (CostModel::default(), CommMetrics::new());
    let mut scratch = PrepareScratch::default();
    let mut carcass = None;
    let plans: Vec<_> = (0..3).map(|epoch| loader.epoch(epoch)).collect();
    let mut pulled = 0;
    for counted in [false, true] {
        let mut step = 0u64;
        for (epoch, plan) in plans.iter().enumerate() {
            for seeds in plan.iter() {
                let live = alloc::live_bytes();
                alloc::reset_peak();
                let before = alloc::thread_allocs();
                let batch = baseline_prepare_reuse(
                    carcass.take(),
                    &mut scratch,
                    part,
                    &sampler,
                    seeds,
                    epoch as u64,
                    step,
                    &cluster,
                    &cost,
                    &metrics,
                );
                let allocs = alloc::thread_allocs() - before;
                let grown = alloc::peak_bytes() - live;
                if counted {
                    assert_eq!(
                        (allocs, grown),
                        (0, 0),
                        "epoch {epoch} step {step}: {allocs} allocations, {grown} B grown"
                    );
                    pulled += batch.counts.misses;
                }
                carcass = Some(batch);
                step += 1;
            }
        }
    }
    assert!(pulled > 0, "nothing pulled: nothing counted");
}
