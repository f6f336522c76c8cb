//! Run-time memory of the pull path, free of allocator slack: what
//! `Engine::run` holds above what `Engine::build` left — round-robin, and
//! with a prepare thread and a look-ahead queue per trainer — and what
//! one preparation — baseline, or through the lookahead planner —
//! allocates once its buffers have grown: all read from the counting
//! allocator (`--features alloc-count`; without it this file is not
//! built).
//!
//! The gauges are process-wide, so this binary holds exactly one test.

use massivegnn::init::initialize_prefetcher;
use massivegnn::prefetcher::{baseline_prepare_reuse, PrepareScratch};
use massivegnn::{alloc, Engine, EngineConfig, LookaheadPolicy, Mode, PrefetchConfig};
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

/// `(peak during run − live after build, every trainer's `peak_bytes`)`
/// of one run, in bytes. A baseline trainer's `peak_bytes` is the largest
/// input matrix it assembled — it holds nothing else that
/// `TrainerReport::peak_bytes` counts; a prefetching trainer's adds what
/// its prefetcher keeps (buffer, scoreboards, the planner's ring).
fn run_footprint(cfg: EngineConfig) -> (f64, Vec<f64>) {
    let engine = Engine::build(cfg);
    let held = alloc::live_bytes();
    alloc::reset_peak();
    let report = engine.run();
    let peak = (alloc::peak_bytes() - held) as f64;
    let per_trainer = report.trainers.iter().map(|t| t.peak_bytes as f64);
    (peak, per_trainer.collect())
}

#[test]
fn a_run_holds_one_batch_and_one_payload_set_and_a_pull_allocates_nothing() {
    // (a) The round-robin step loop keeps one batch and one set of
    // receive buffers alive, however many trainers take turns with them.
    // A set of receive buffers is budgeted as the batch's rows once more
    // at wire width: what a pull of every input row would carry.
    let payload_share = wire::BYTES_PER_ELEM as f64 / std::mem::size_of::<f32>() as f64;
    let (peak2, batches2) = run_footprint(baseline(2));
    let (peak4, batches4) = run_footprint(baseline(4));
    let largest = |batches: &[f64]| batches.iter().copied().fold(0.0, f64::max);
    let (batch2, batch4) = (largest(&batches2), largest(&batches4));
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

    // (a') The price of the threads: every trainer has a prepare thread
    // and a queue of its policy's `window` batches between them, so at
    // most `window + 2` of its batches are alive — one being prepared,
    // `window` queued, one being trained on — above what its prefetcher
    // keeps. Three under the scoreboard, as ever; five under
    // `lookahead(2)`, whose planner fills a window of three in one go.
    // Loader and sampler do not depend on the mode, so the batches are
    // the baseline run's. (That the queue holds exactly `window` batches
    // is `pipeline::tests::the_queue_holds_one_window_of_batches`; on one
    // core without `MGNN_THREADS`, `parallel` runs round-robin and the
    // bound holds with room to spare.)
    let scoreboard = PrefetchConfig {
        f_h: 0.25,
        ..Default::default()
    };
    for (window, pcfg) in [(1, scoreboard), (3, scoreboard.with_lookahead_policy(2))] {
        let (peak, held) = run_footprint(EngineConfig {
            mode: Mode::Prefetch(pcfg),
            parallel: true,
            ..baseline(2)
        });
        let kept: f64 = held.iter().zip(&batches2).map(|(h, b)| h - b).sum();
        let budget = kept + (window + 2) as f64 * batches2.iter().sum::<f64>();
        assert!(
            peak <= 1.1 * budget,
            "window {window}: a threaded run() peaks {peak:.0} B above the build, {:.2}x of what the prefetchers keep + {} batches a trainer ({budget:.0} B)",
            peak / budget,
            window + 2
        );
    }

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
    let shard: Vec<u32> = part
        .train_nodes
        .iter()
        .map(|&g| part.local_id(g).expect("train node in its partition"))
        .collect();
    let loader = DataLoader::new(shard.clone(), 32, 7);
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

    // (c) The same replay through a lookahead prefetcher: the planner's
    // window ring, its want lists and the one bulk pull of a planning
    // step recycle like everything else, and so do the steps in between,
    // which take their minibatch out of the ring. The hand-off swaps the
    // caller's minibatch buffers with a ring slot's, so a set of
    // `DEPTH + 2` buffers rotates through the `DEPTH + 1` slots; a pass
    // of a multiple of `(DEPTH + 1)(DEPTH + 2)` steps leaves each where
    // it began, and the replay — from the same buffer content — asks
    // every buffer for exactly what it grew to. One epoch: the planner
    // reads the loader's memoised plan, and a new epoch is a new shuffle.
    const DEPTH: usize = 2;
    const ROTATION: usize = (DEPTH + 1) * (DEPTH + 2);
    let loader = DataLoader::new(shard, 16, 7);
    let plan = loader.epoch(0);
    let steps = plan.len() / ROTATION * ROTATION;
    assert!(steps > 0, "{} steps an epoch", plan.len());
    let pcfg = PrefetchConfig {
        f_h: 0.6,
        ..Default::default()
    };
    let (mut pf, _) =
        initialize_prefetcher(part, pcfg, dataset.num_nodes(), &cluster, &cost, &metrics);
    pf.set_policy(Box::new(LookaheadPolicy::new(
        DEPTH,
        loader.clone(),
        sampler.clone(),
        steps,
        1,
        part.num_halo(),
    )));
    let initial = pf.buffer.clone();
    let mut carcass = None;
    let (mut planning, mut between) = (0, 0);
    for counted in [false, true] {
        pf.buffer = initial.clone();
        for (step, seeds) in plan.iter().take(steps).enumerate() {
            let live = alloc::live_bytes();
            alloc::reset_peak();
            let before = alloc::thread_allocs();
            let batch = pf.prepare_reuse(
                carcass.take(),
                part,
                &sampler,
                seeds,
                0,
                step as u64,
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
                    "lookahead step {step}: {allocs} allocations, {grown} B grown"
                );
                if batch.timing.t_planned > 0.0 {
                    planning += 1;
                } else {
                    between += 1;
                }
            }
            carcass = Some(batch);
        }
    }
    assert!(
        planning > 0 && between >= planning,
        "{planning} planning steps, {between} in between"
    );
}
