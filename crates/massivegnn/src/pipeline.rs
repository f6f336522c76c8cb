//! Real-thread look-ahead pipeline — Algorithm 1 lines 5–9 with an actual
//! prepare thread, not just modeled time.
//!
//! The paper overlaps next-minibatch preparation with training using a
//! `ThreadPoolExecutor` (one look-ahead worker) plus NUMBA to escape the
//! GIL. Rust needs no such escape hatch: [`PrefetchPipeline::spawn`] moves
//! the [`Prefetcher`] onto a dedicated prepare thread that pushes
//! [`PreparedBatch`]es into a bounded channel as deep as the prefetcher's
//! [`window`](Prefetcher::window) (the queue `Q`: one batch under the
//! paper's scoreboard, a planner's whole window), while the caller trains
//! on a previously prepared batch.
//! Back-pressure is automatic: when training is slower than preparation
//! (the paper's "perfect overlap" regime) the worker blocks on the full
//! queue; when preparation is slower, the caller blocks in
//! [`PrefetchPipeline::next`] — exactly the stall the overlap-efficiency
//! metric measures.
//!
//! Preparation is deliberately *infallible* even under a fault profile:
//! RPC failures are absorbed inside [`Prefetcher::prepare_reuse`]'s
//! degradation ladder (retry → stale buffered row → zero-fill), so the
//! prepare thread never dies mid-run and the queue protocol needs no
//! error variant.

use crate::prefetcher::{Prefetcher, PreparedBatch};
use mgnn_net::{CommMetrics, CostModel, SimCluster};
use mgnn_partition::LocalPartition;
use mgnn_sampling::{DataLoader, NeighborSampler};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running prepare thread feeding a bounded queue of minibatches.
///
/// A second, unbounded *recycle* channel flows the other way: the trainer
/// returns consumed [`PreparedBatch`] carcasses via
/// [`recycle`](Self::recycle) and the prepare thread opportunistically
/// dismantles one per step ([`Prefetcher::prepare_reuse`]), so in steady
/// state the feature matrix, block and label allocations circulate
/// instead of being dropped and reallocated. Recycling is purely an
/// allocation optimization — batch contents are bitwise-identical whether
/// or not a carcass arrives in time.
pub struct PrefetchPipeline {
    rx: Option<crossbeam_channel::Receiver<PreparedBatch>>,
    recycle_tx: crossbeam_channel::Sender<PreparedBatch>,
    handle: Option<JoinHandle<Prefetcher>>,
}

impl PrefetchPipeline {
    /// Spawn the prepare thread. It walks `epochs × steps` minibatches in
    /// order (continuous across epochs, like the paper's scheme), preparing
    /// each through the prefetcher and blocking when the queue holds
    /// [`Prefetcher::window`] unconsumed batches — the depth the engine's
    /// pipeline clock models, read off the same prefetcher.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        prefetcher: Prefetcher,
        part: Arc<LocalPartition>,
        sampler: NeighborSampler,
        loader: DataLoader,
        cluster: Arc<SimCluster>,
        cost: CostModel,
        metrics: Arc<CommMetrics>,
        epochs: usize,
        steps_per_epoch: usize,
    ) -> Self {
        let (tx, rx) = crossbeam_channel::bounded::<PreparedBatch>(prefetcher.window());
        let (recycle_tx, recycle_rx) = crossbeam_channel::unbounded::<PreparedBatch>();
        let handle = std::thread::Builder::new()
            .name("prefetch-prepare".into())
            .spawn(move || {
                let mut pf = prefetcher;
                let mut global_step = 0u64;
                'outer: for epoch in 0..epochs as u64 {
                    let batches = loader.epoch(epoch);
                    for seeds in batches.iter().take(steps_per_epoch) {
                        let batch = pf.prepare_reuse(
                            recycle_rx.try_recv().ok(),
                            &part,
                            &sampler,
                            seeds,
                            epoch,
                            global_step,
                            &cluster,
                            &cost,
                            &metrics,
                        );
                        global_step += 1;
                        if tx.send(batch).is_err() {
                            // Consumer hung up early; stop preparing.
                            break 'outer;
                        }
                    }
                }
                pf
            })
            .expect("failed to spawn prepare thread");
        PrefetchPipeline {
            rx: Some(rx),
            recycle_tx,
            handle: Some(handle),
        }
    }

    /// Return a consumed batch's allocations to the prepare thread. Lossy
    /// by design: if the worker already exited, the carcass is dropped.
    pub fn recycle(&self, batch: PreparedBatch) {
        let _ = self.recycle_tx.send(batch);
    }

    /// Pop the next prepared minibatch (Algorithm 1 line 5, `Q.pop()`),
    /// blocking if preparation is behind. `None` once all minibatches are
    /// consumed.
    pub fn next(&self) -> Option<PreparedBatch> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }

    /// Wait for the prepare thread and recover the prefetcher state
    /// (buffer, scoreboards) for inspection.
    pub fn join(mut self) -> Prefetcher {
        // Dropping the receiver unblocks a worker stuck on a full queue.
        drop(self.rx.take());
        self.handle
            .take()
            .expect("already joined")
            .join()
            .expect("prepare thread panicked")
    }
}

impl Drop for PrefetchPipeline {
    fn drop(&mut self) {
        drop(self.rx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;
    use crate::init::initialize_prefetcher;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;
    use mgnn_partition::{build_local_partitions, multilevel_partition};

    fn setup() -> (Arc<LocalPartition>, Arc<SimCluster>, usize) {
        let g = erdos_renyi(400, 4000, 21);
        let p = multilevel_partition(&g, 2, 21);
        let feats = FeatureStore::synthesize(&g, 8, 3, 4);
        let cluster = Arc::new(SimCluster::new(&feats, &p.assignment, 2));
        let train: Vec<u32> = (0..400).collect();
        let part = Arc::new(build_local_partitions(&g, &p, &train).remove(0));
        let n = g.num_nodes();
        (part, cluster, n)
    }

    fn trainer_seeds(part: &LocalPartition) -> Vec<u32> {
        part.train_nodes
            .iter()
            .map(|&g| part.local_id(g).unwrap())
            .collect()
    }

    #[test]
    fn pipeline_delivers_all_batches_in_order() {
        let (part, cluster, n) = setup();
        let metrics = Arc::new(CommMetrics::new());
        let cfg = PrefetchConfig {
            delta: 4,
            ..Default::default()
        };
        let (pf, _) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        let loader = DataLoader::new(trainer_seeds(&part), 32, 5);
        let steps = loader.batches_per_epoch();
        let sampler = NeighborSampler::new(vec![4, 4], 9);
        let pipeline = PrefetchPipeline::spawn(
            pf,
            Arc::clone(&part),
            sampler,
            loader.clone(),
            Arc::clone(&cluster),
            CostModel::default(),
            Arc::clone(&metrics),
            2,
            steps,
        );
        let mut count = 0;
        while let Some(batch) = pipeline.next() {
            assert_eq!(batch.input.rows(), batch.minibatch.input_nodes.len());
            assert_eq!(batch.labels.len(), batch.minibatch.seeds.len());
            count += 1;
        }
        assert_eq!(count, 2 * steps);
    }

    #[test]
    fn pipeline_matches_sequential_preparation() {
        // The overlapped pipeline must produce byte-identical batches to
        // preparing sequentially (determinism across threading).
        let (part, cluster, n) = setup();
        let cost = CostModel::default();
        let cfg = PrefetchConfig {
            delta: 4,
            ..Default::default()
        };
        let loader = DataLoader::new(trainer_seeds(&part), 32, 5);
        let steps = loader.batches_per_epoch();
        let sampler = NeighborSampler::new(vec![4, 4], 9);

        // Sequential reference.
        let m1 = Arc::new(CommMetrics::new());
        let (mut pf1, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, &m1);
        let mut expected = Vec::new();
        let mut gs = 0u64;
        for epoch in 0..2u64 {
            for seeds in loader.epoch(epoch).iter().take(steps) {
                expected.push(pf1.prepare_reuse(
                    None, &part, &sampler, seeds, epoch, gs, &cluster, &cost, &m1,
                ));
                gs += 1;
            }
        }

        // Pipelined.
        let m2 = Arc::new(CommMetrics::new());
        let (pf2, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, &m2);
        let pipeline = PrefetchPipeline::spawn(
            pf2,
            Arc::clone(&part),
            NeighborSampler::new(vec![4, 4], 9),
            loader.clone(),
            Arc::clone(&cluster),
            cost,
            Arc::clone(&m2),
            2,
            steps,
        );
        for exp in &expected {
            let got = pipeline.next().expect("pipeline ended early");
            assert_eq!(got.minibatch, exp.minibatch);
            assert_eq!(got.input.data(), exp.input.data());
            assert_eq!(got.labels, exp.labels);
        }
        assert!(pipeline.next().is_none());
        assert_eq!(m1.snapshot(), m2.snapshot());
    }

    #[test]
    fn recycled_batches_identical_to_fresh() {
        // Same oracle as above, but the consumer returns every carcass, so
        // later preparations run through the reuse path with dirty buffers.
        let (part, cluster, n) = setup();
        let cost = CostModel::default();
        let cfg = PrefetchConfig {
            delta: 4,
            ..Default::default()
        };
        let loader = DataLoader::new(trainer_seeds(&part), 32, 5);
        let steps = loader.batches_per_epoch();

        let m1 = Arc::new(CommMetrics::new());
        let (mut pf1, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, &m1);
        pf1.set_pooling(false);
        let sampler = NeighborSampler::new(vec![4, 4], 9);
        let mut expected = Vec::new();
        let mut gs = 0u64;
        for epoch in 0..2u64 {
            for seeds in loader.epoch(epoch).iter().take(steps) {
                expected.push(pf1.prepare_reuse(
                    None, &part, &sampler, seeds, epoch, gs, &cluster, &cost, &m1,
                ));
                gs += 1;
            }
        }

        let m2 = Arc::new(CommMetrics::new());
        let (pf2, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, &m2);
        let pipeline = PrefetchPipeline::spawn(
            pf2,
            Arc::clone(&part),
            NeighborSampler::new(vec![4, 4], 9),
            loader.clone(),
            Arc::clone(&cluster),
            cost,
            Arc::clone(&m2),
            2,
            steps,
        );
        for exp in &expected {
            let got = pipeline.next().expect("pipeline ended early");
            assert_eq!(got.minibatch, exp.minibatch);
            assert_eq!(got.input.data(), exp.input.data());
            assert_eq!(got.labels, exp.labels);
            pipeline.recycle(got);
        }
        assert!(pipeline.next().is_none());
        assert_eq!(m1.snapshot(), m2.snapshot());
    }

    #[test]
    fn the_queue_holds_one_window_of_batches() {
        // The queue is `window` deep, and with nobody popping the prepare
        // thread does get that far ahead: it fills the queue, prepares
        // one more and blocks handing it over. `join` hangs up on it, so
        // what the shared counters then hold is exactly `window + 1`
        // preparations — compared with as many made in line by a twin.
        use crate::policy::LookaheadPolicy;
        let (part, cluster, n) = setup();
        let cost = CostModel::default();
        let loader = DataLoader::new(trainer_seeds(&part), 32, 5);
        let steps = loader.batches_per_epoch();
        let sampler = NeighborSampler::new(vec![4, 4], 9);
        for depth in [None, Some(2)] {
            let prefetcher = |metrics: &CommMetrics| {
                let cfg = PrefetchConfig::default();
                let (mut pf, _) = initialize_prefetcher(&part, cfg, n, &cluster, &cost, metrics);
                if let Some(depth) = depth {
                    let (loader, sampler) = (loader.clone(), sampler.clone());
                    pf.set_policy(Box::new(LookaheadPolicy::new(
                        depth,
                        loader,
                        sampler,
                        steps,
                        1,
                        part.num_halo(),
                    )));
                }
                pf
            };
            let window = depth.map_or(1, |d| d + 1);
            assert!(
                steps > window + 1,
                "{steps} steps cannot overfill the queue"
            );

            let m1 = CommMetrics::new();
            let mut twin = prefetcher(&m1);
            assert_eq!(twin.window(), window);
            for (step, seeds) in loader.epoch(0).iter().take(window + 1).enumerate() {
                twin.prepare_reuse(
                    None,
                    &part,
                    &sampler,
                    seeds,
                    0,
                    step as u64,
                    &cluster,
                    &cost,
                    &m1,
                );
            }

            let m2 = Arc::new(CommMetrics::new());
            let pipeline = PrefetchPipeline::spawn(
                prefetcher(&m2),
                Arc::clone(&part),
                sampler.clone(),
                loader.clone(),
                Arc::clone(&cluster),
                cost.clone(),
                Arc::clone(&m2),
                1,
                steps,
            );
            let queue = pipeline.rx.as_ref().expect("not joined yet");
            assert_eq!(queue.capacity(), Some(window));
            // Terminates: the capacity was just checked and the schedule
            // has more steps than the queue has room.
            while queue.len() < window {
                std::thread::yield_now();
            }
            pipeline.join();
            assert_eq!(m1.snapshot(), m2.snapshot(), "window {window}");
        }
    }

    #[test]
    fn early_drop_does_not_hang() {
        let (part, cluster, n) = setup();
        let metrics = Arc::new(CommMetrics::new());
        let (pf, _) = initialize_prefetcher(
            &part,
            PrefetchConfig::default(),
            n,
            &cluster,
            &CostModel::default(),
            &metrics,
        );
        let loader = DataLoader::new(trainer_seeds(&part), 16, 1);
        let steps = loader.batches_per_epoch();
        let pipeline = PrefetchPipeline::spawn(
            pf,
            Arc::clone(&part),
            NeighborSampler::new(vec![4], 2),
            loader,
            Arc::clone(&cluster),
            CostModel::default(),
            metrics,
            10,
            steps,
        );
        let _ = pipeline.next();
        drop(pipeline); // must return promptly
    }

    #[test]
    fn join_recovers_prefetcher_state() {
        let (part, cluster, n) = setup();
        let metrics = Arc::new(CommMetrics::new());
        let (pf, _) = initialize_prefetcher(
            &part,
            PrefetchConfig::default(),
            n,
            &cluster,
            &CostModel::default(),
            &metrics,
        );
        let buffered_before = pf.buffer.len();
        let loader = DataLoader::new(trainer_seeds(&part), 64, 3);
        let steps = loader.batches_per_epoch();
        let pipeline = PrefetchPipeline::spawn(
            pf,
            Arc::clone(&part),
            NeighborSampler::new(vec![4], 2),
            loader,
            Arc::clone(&cluster),
            CostModel::default(),
            metrics,
            1,
            steps,
        );
        while pipeline.next().is_some() {}
        let pf = pipeline.join();
        assert_eq!(pf.buffer.len(), buffered_before, "capacity invariant");
        pf.buffer.check_invariants().unwrap();
    }
}
