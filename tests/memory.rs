//! Memory, free of allocator slack, read from the counting allocator this
//! binary installs:
//!
//! - what `Engine::build` holds when it returns, and the most it ever
//!   holds on the way;
//! - the most `multilevel_partition` holds on top of the graph it is
//!   given;
//! - what `Engine::run` holds above what `Engine::build` left —
//!   round-robin, and with a prepare thread and a look-ahead queue per
//!   trainer — and what one preparation — baseline, or through the
//!   lookahead planner — allocates once its buffers have grown, and that
//!   the buffer probe and the `S_A` update allocate nothing at any batch
//!   size;
//! - that a steady-state step allocates nothing in the trainer loop,
//!   under both schedulers: the allocator counts what a thread allocates
//!   while `massivegnn::alloc::hot` says it is in the loop proper.
//!
//! The gauges are process-wide, so every test takes [`gauges`] first:
//! one measurement at a time, whatever `--test-threads` says.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use massivegnn::init::initialize_prefetcher;
use massivegnn::prefetcher::{baseline_prepare_reuse, PrepareScratch};
use massivegnn::scoreboard::AccessScores;
use massivegnn::{
    alloc, Engine, EngineConfig, LookaheadPolicy, Mode, PrefetchBuffer, PrefetchConfig,
    PrefetchPolicyKind, ScoreLayout,
};
use mgnn_graph::{CsrGraph, Dataset, DatasetGraph, DatasetKind, Scale};
use mgnn_net::{wire, CommMetrics, CostModel, SimCluster};
use mgnn_partition::{build_local_partitions, multilevel_partition};
use mgnn_sampling::{DataLoader, NeighborSampler};

/// Live heap bytes (allocated minus deallocated).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] since [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// Allocations made on any thread while `alloc::hot` held.
static HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init keeps first access allocation-free — a lazily
    // initialized TLS slot would recurse into the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A `System`-backed allocator that counts. `realloc`/`alloc_zeroed`
/// use the `GlobalAlloc` defaults, which route through `alloc`/`dealloc`,
/// so nothing escapes the count.
struct CountingAlloc;

// SAFETY: defers all actual allocation to `System`; the bookkeeping is
// atomics and Cell-based TLS without drop glue (safe during thread
// teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            THREAD_ALLOCS.set(THREAD_ALLOCS.get() + 1);
            if alloc::hot() {
                HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            let size = layout.size() as i64;
            let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.get()
}

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restart the peak gauge from the current live level, so a measurement
/// window reports its own high-water mark rather than initialization's.
fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Held by every test for its whole length: the live and peak gauges and
/// the hot count are the whole process's.
static GAUGES: Mutex<()> = Mutex::new(());

/// Take the gauges. A test that failed holding them poisons nothing
/// another test reads: each measures from its own starting point.
fn gauges() -> MutexGuard<'static, ()> {
    let held = GAUGES.lock().unwrap_or_else(PoisonError::into_inner);
    // Every bound below also holds for gauges that read zero: prove that
    // the allocator counting is this process's.
    let before = thread_allocs();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(
        thread_allocs(),
        before + 1,
        "CountingAlloc is not the global allocator"
    );
    held
}

fn csr_bytes(g: &CsrGraph) -> usize {
    std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.targets())
}

#[test]
fn engine_build_keeps_one_copy_of_the_features_and_returns_its_scratch() {
    let _gauges = gauges();
    let cfg = EngineConfig {
        dataset: DatasetKind::Papers,
        scale: Scale::Small,
        num_parts: 4,
        trainers_per_part: 1,
        mode: Mode::Prefetch(PrefetchConfig::default()),
        ..Default::default()
    };
    let before = live_bytes();
    reset_peak();
    let engine = Engine::build(cfg.clone());
    let live = (live_bytes() - before) as f64;
    let peak = (peak_bytes() - before) as f64;

    // (a) What stays: the feature matrix once and the partitions' local
    // graphs — and a tenth of that for id lists, the validation split and
    // the cluster. The global graph is not among them: no run reads it
    // (holding it reads 1.178x here). A second copy of the features (the
    // per-shard gathers the KvStores used to hold) would alone put this
    // at 1.8x.
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

#[test]
fn multilevel_partition_peaks_below_three_input_graphs() {
    let _gauges = gauges();
    // A coarse level is a map from input node to coarse node, not a
    // graph: what the partitioner borrows grows with the node count —
    // per level, and once for the refinement's table of every node's
    // neighbours per part — never with a copy of the edges per level.
    for (kind, parts) in [
        (DatasetKind::Papers, 4),
        (DatasetKind::Reddit, 4),
        (DatasetKind::Products, 2),
        (DatasetKind::Arxiv, 2),
    ] {
        let g = DatasetGraph::generate(kind, Scale::Small, 42).graph;
        let csr = csr_bytes(&g) as f64;
        let before = live_bytes();
        reset_peak();
        let partitioning = multilevel_partition(&g, parts, 42);
        let peak = (peak_bytes() - before) as f64;
        drop(partitioning);
        assert!(
            peak <= 3.0 * csr,
            "{} at {parts} parts: peak {peak:.0} B is {:.2}x of the input CSR ({csr:.0} B)",
            kind.name(),
            peak / csr
        );
    }
}

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
    let held = live_bytes();
    reset_peak();
    let report = engine.run();
    let peak = (peak_bytes() - held) as f64;
    let per_trainer = report.trainers.iter().map(|t| t.peak_bytes as f64);
    (peak, per_trainer.collect())
}

/// What `f` returns, and `(allocations on this thread, bytes the live
/// gauge rose by)` while it ran.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, (u64, i64)) {
    let live = live_bytes();
    reset_peak();
    let before = thread_allocs();
    let r = f();
    (r, (thread_allocs() - before, peak_bytes() - live))
}

#[test]
fn a_run_holds_one_batch_and_one_payload_set_and_a_pull_allocates_nothing() {
    let _gauges = gauges();
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
    // is `pipeline::tests::the_queue_holds_one_window_of_batches`.)
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
    // neither on this thread (`thread_allocs`) nor on any other (the
    // live-byte gauge never rises above where the step began).
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
                let (batch, (allocs, grown)) = allocations_of(|| {
                    baseline_prepare_reuse(
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
                    )
                });
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
            let (batch, (allocs, grown)) = allocations_of(|| {
                pf.prepare_reuse(
                    carcass.take(),
                    part,
                    &sampler,
                    seeds,
                    0,
                    step as u64,
                    &cluster,
                    &cost,
                    &metrics,
                )
            });
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

    // (d) The buffer probe and the memory-efficient `S_A` update, each
    // past the size where a parallel path once took over (4 096 sampled
    // halo nodes, 2 048 misses) and collected into fresh vectors: once
    // the caller's hit and miss vectors have grown, neither allocates.
    let mut buffer = PrefetchBuffer::new(10_000, 2_000, 1);
    for h in (0..10_000u32).step_by(5) {
        buffer.insert_with(h, |row| row.fill(0.0));
    }
    let sampled: Vec<u32> = (0..6_000u32).rev().collect();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    buffer.probe_batch_into(&sampled, &mut hits, &mut misses);
    let ((), probe) = allocations_of(|| buffer.probe_batch_into(&sampled, &mut hits, &mut misses));
    assert_eq!(
        probe,
        (0, 0),
        "probing {} halo nodes: (allocations, bytes grown)",
        sampled.len()
    );
    assert_eq!((hits.len(), misses.len()), (1_200, 4_800));

    let halo_nodes: Vec<u32> = (0..10_000u32).map(|h| 3 * h + 1).collect();
    let missed: Vec<u32> = halo_nodes.iter().copied().step_by(3).collect();
    assert!(missed.len() >= 3_000, "{} misses", missed.len());
    let mut s_a = AccessScores::new(ScoreLayout::MemEfficient, 30_001, halo_nodes.len());
    s_a.increment_batch(&halo_nodes, &missed);
    let ((), update) = allocations_of(|| s_a.increment_batch(&halo_nodes, &missed));
    assert_eq!(
        update,
        (0, 0),
        "S_A update over {} misses: (allocations, bytes grown)",
        missed.len()
    );
    assert_eq!(s_a.get(&halo_nodes, missed[0]), 2.0);
}

/// `(allocations, epoch marks)` while `f` ran: what any thread allocated
/// while `alloc::hot` held, and how many `EpochGuard`s were taken.
fn hot_allocations_of(f: impl FnOnce()) -> (u64, u64) {
    let (hot, epochs) = (HOT_ALLOCS.load(Ordering::Relaxed), alloc::epochs_marked());
    f();
    (
        HOT_ALLOCS.load(Ordering::Relaxed) - hot,
        alloc::epochs_marked() - epochs,
    )
}

/// Under both schedulers: once the warmup epoch has stretched every
/// pooled buffer to its high-water mark, steady-state steps allocate
/// *nothing* in the trainer hot loop (preparation and model math are
/// excluded as workload; see `massivegnn::alloc`).
#[test]
fn steady_state_steps_allocate_nothing() {
    let _gauges = gauges();
    let scoreboard = PrefetchConfig {
        f_h: 0.35,
        gamma: 0.995,
        delta: 8,
        eviction: true,
        layout: ScoreLayout::Dense,
        policy: PrefetchPolicyKind::Scoreboard,
    };
    // Under the planner the threaded recycle loop circulates
    // `window + 2` carcasses instead of three; they, and the queues
    // that carry them, must reach their size inside epoch 0 too.
    let lookahead = scoreboard.with_lookahead_policy(2);
    for mode in [
        Mode::Baseline,
        Mode::Prefetch(scoreboard),
        Mode::Prefetch(lookahead),
    ] {
        let mut cfg = EngineConfig {
            dataset: DatasetKind::Products,
            scale: Scale::Unit,
            num_parts: 2,
            trainers_per_part: 2,
            batch_size: 64,
            epochs: 3,
            fanouts: vec![5, 10],
            hidden_dim: 16,
            train_math: true,
            // Live telemetry on: the counter sets are attached while the
            // trainers are built, never in the step loop.
            telemetry: true,
            mode,
            ..Default::default()
        };
        let label = cfg.mode.label();
        let round_robin = Engine::build(cfg.clone());
        cfg.parallel = true;
        let threaded = Engine::build(cfg);
        // One step loop on this thread; one on each trainer's worker.
        for (engine, loops) in [(&round_robin, 1), (&threaded, threaded.world())] {
            let (hot, epochs) = hot_allocations_of(|| {
                assert!(!engine.run().final_params.is_empty());
            });
            // Each loop marks its epochs 1 and 2.
            assert_eq!(epochs, 2 * loops as u64, "marked epochs, {label}");
            assert_eq!(
                hot, 0,
                "steady-state trainer loop must not allocate ({hot} allocations \
                 over {epochs} epochs, {label}, {loops} step loop(s))"
            );
        }
    }
}
