//! End-to-end distributed training driver.
//!
//! Wires the whole stack together — dataset → METIS-like partitioning →
//! per-partition trainer shards → simulated cluster with KVStore servers →
//! per-trainer sampler/dataloader/prefetcher → GraphSAGE or GAT DDP
//! training — and runs it in either **baseline** (DistDGL semantics,
//! Eq. 2: serial sample → fetch → train) or **prefetch** (Algorithm 1:
//! next-minibatch preparation overlapped with training, Eqs. 4–5) mode.
//!
//! Data movement (sampling, buffer hits/misses, RPC payloads) is *real*;
//! elapsed time is accumulated on per-trainer simulated clocks through
//! the cost model ([`mgnn_net::CostModel`]), so a 64-node Perlmutter run
//! is reproduced on one machine with exact event counts and modeled
//! seconds. Setting
//! [`EngineConfig::train_math`] additionally runs the actual tensor
//! math + ring-allreduce DDP every step (used by the correctness tests:
//! prefetch mode must produce bitwise-identical model parameters to
//! baseline, since the paper's scheme only reorganizes the data pipeline).
//!
//! This file holds the set-up and the one step loop that two schedulers
//! share; a trainer, the gradient exchange, the configuration and the
//! report types each have a file of their own.

mod config;
mod exchange;
mod report;
mod trainer;

pub use config::{EngineConfig, Mode};
pub use report::{Breakdown, RunReport, TrainerReport};

use exchange::{GradExchange, Share};
use mgnn_graph::{CsrGraph, DatasetGraph, FeatureStore};
use mgnn_model::{GatModel, GcnModel, Model, ModelKind, SageModel};
use mgnn_net::SimCluster;
use mgnn_obs::{registry, TrainerTrace};
use mgnn_partition::{
    build_local_partitions, multilevel_partition, split_train_nodes, LocalPartition, Partitioning,
};
use mgnn_sampling::{DataLoader, NeighborSampler};
use serde::Serialize;
use std::sync::Arc;
use trainer::TrainerState;

/// One built world (features, partitions, shards, cluster): it runs any
/// mode ([`run_as`](Self::run_as)); every other field is fixed by the build.
pub struct Engine {
    cfg: EngineConfig,
    /// The one feature matrix and its labels, shared with the cluster.
    features: FeatureStore,
    /// The validation split [`evaluate`](Self::evaluate) reads; the global
    /// graph and the other splits are the build's scratch.
    val_nodes: Vec<u32>,
    parts: Vec<Arc<LocalPartition>>,
    cluster: Arc<SimCluster>,
    /// (partition, trainer-local seeds) per trainer.
    trainer_shards: Vec<(usize, Vec<u32>)>,
    /// Never trained: it prices a batch's MACs and sizes the gradients
    /// where the trainers hold no replica of their own.
    shape_model: Box<dyn Model>,
}

fn make_model(cfg: &EngineConfig, features: &FeatureStore) -> Box<dyn Model> {
    let dims = [features.dim(), cfg.hidden_dim, features.num_classes()];
    let seed = cfg.seed ^ 0x6d30_6465;
    match cfg.model {
        ModelKind::Sage => Box::new(SageModel::new(&dims, seed)),
        ModelKind::Gat => Box::new(GatModel::new(&dims, cfg.gat_heads, seed)),
        ModelKind::Gcn => Box::new(GcnModel::new(&dims, seed)),
    }
}

impl Engine {
    /// Build the experiment on the paper's partitioner (the multilevel
    /// METIS stand-in).
    pub fn build(cfg: EngineConfig) -> Self {
        Self::build_with(cfg, multilevel_partition)
    }

    /// Build the experiment: generate, partition, shard, build the cluster.
    /// `partitioner` gets the graph, `num_parts` and the seed, and makes
    /// the first-level assignment; it runs on the calling thread while
    /// the features are synthesized on a second one.
    pub fn build_with(
        cfg: EngineConfig,
        partitioner: impl FnOnce(&CsrGraph, usize, u64) -> Partitioning,
    ) -> Self {
        if let Err(problem) = cfg.validate() {
            panic!("invalid EngineConfig: {problem}");
        }
        // Five stages, each holding only what it reads (DESIGN §9,
        // "Set-up"). Partitioning and feature synthesis both only read
        // the graph, so synthesis runs on a helper thread beside the
        // partitioner. A freed chunk returns to the arena of the thread
        // that allocated it, so the partitioner runs here and the matrix
        // is allocated here: their memory is then reused by the step
        // loop and the next build instead of stranded in a helper's
        // arena. The halo views come after both, so the partitioner's
        // scratch is returned before they exist; then the global graph
        // and the train and test splits go, since no run reads them. The
        // cluster shares the one matrix instead of copying shards.
        let topology = DatasetGraph::generate(cfg.dataset, cfg.scale, cfg.seed);
        let matrix = vec![0.0; topology.graph.num_nodes() * cfg.dataset.feature_dim()];
        let (partitioning, features) = std::thread::scope(|scope| {
            let features = scope.spawn(|| topology.features_into(matrix));
            let partitioning = partitioner(&topology.graph, cfg.num_parts, cfg.seed);
            let features = features
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (partitioning, features)
        });
        let parts: Vec<Arc<LocalPartition>> =
            build_local_partitions(&topology.graph, &partitioning, &topology.train_nodes)
                .into_iter()
                .map(Arc::new)
                .collect();
        let DatasetGraph { val_nodes, .. } = topology;
        // Second-level split: train nodes of each partition among its
        // trainers, converted to partition-local ids.
        let mut trainer_shards = Vec::with_capacity(cfg.num_parts * cfg.trainers_per_part);
        for (pid, part) in parts.iter().enumerate() {
            let shards = split_train_nodes(
                &part.train_nodes,
                cfg.trainers_per_part,
                cfg.seed ^ (pid as u64).wrapping_mul(0x9e37),
            );
            for shard in shards {
                let local: Vec<u32> = shard
                    .iter()
                    .map(|&g| part.local_id(g).expect("train node not in partition"))
                    .collect();
                trainer_shards.push((pid, local));
            }
        }
        // A profile's crash meets the lowest rank not on the crashing
        // partition: that partition's own trainers read it locally.
        let crash_part = cfg.fault.as_ref().and_then(|f| f.crash_part);
        let designated = trainer_shards
            .iter()
            .position(|s| Some(s.0 as u32) != crash_part);
        let cluster = Arc::new(SimCluster::with_faults_designating(
            &features,
            &partitioning.assignment,
            cfg.num_parts,
            cfg.fault.clone(),
            cfg.retry.clone(),
            designated.unwrap_or_default() as u64,
        ));
        Engine {
            shape_model: make_model(&cfg, &features),
            cfg,
            features,
            val_nodes,
            parts,
            cluster,
            trainer_shards,
        }
    }

    /// What [`evaluate`](Self::evaluate) reads: the feature matrix, with
    /// its labels, and the validation split.
    pub fn eval_data(&self) -> (&FeatureStore, &[u32]) {
        (&self.features, &self.val_nodes)
    }

    /// The per-partition views.
    pub fn partitions(&self) -> &[Arc<LocalPartition>] {
        &self.parts
    }

    /// Synchronized steps per epoch: the minimum shard's batch count
    /// (synchronous SGD requires all trainers present every step).
    pub fn steps_per_epoch(&self) -> usize {
        self.trainer_shards
            .iter()
            .map(|(_, s)| s.len().div_ceil(self.cfg.batch_size))
            .min()
            .unwrap_or(0)
    }

    /// Total trainers.
    pub fn world(&self) -> usize {
        self.trainer_shards.len()
    }

    /// What trainer `t` of the world trains from: its partition, and the
    /// dataloader (over its shard) and sampler, seeded as every run seeds
    /// them.
    pub fn trainer_inputs(&self, t: usize) -> (Arc<LocalPartition>, DataLoader, NeighborSampler) {
        let cfg = &self.cfg;
        let (pid, seeds) = &self.trainer_shards[t];
        let loader = DataLoader::new(
            seeds.clone(),
            cfg.batch_size,
            cfg.seed ^ (t as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
        );
        let sampler = NeighborSampler::with_strategy(
            cfg.fanouts.clone(),
            cfg.sampling,
            cfg.seed ^ (t as u64).wrapping_mul(0xda94_2042_e4dd_58b5),
        );
        (Arc::clone(&self.parts[*pid]), loader, sampler)
    }

    /// [`run_as`](Self::run_as) the configured [`EngineConfig::mode`];
    /// panics where `run_as` refuses the world.
    pub fn run(&self) -> RunReport {
        self.run_as(self.cfg.mode)
            .expect("every trainer has seeds, and build validated the mode")
    }

    /// Run `mode` end to end on this world, as a fresh build with that
    /// `mode` would (`Err` first if `PrefetchConfig::validate` refuses
    /// it, or if a trainer's shard holds no seeds: synchronous SGD would
    /// run no step at all): one step loop, stepped round-robin on the
    /// calling thread or — [`EngineConfig::parallel`] — by one OS thread
    /// per trainer (plus a prepare thread each in prefetch mode); the
    /// report is bitwise-identical either way.
    pub fn run_as(&self, mode: Mode) -> Result<RunReport, String> {
        if let Mode::Prefetch(p) = &mode {
            p.validate()?;
        }
        if let Some(rank) = self.trainer_shards.iter().position(|(_, s)| s.is_empty()) {
            let part = self.trainer_shards[rank].0;
            return Err(format!(
                "trainer {rank} (partition {part}) has no training seeds"
            ));
        }
        let cfg = &self.cfg;
        // Arm the live-telemetry registry for this run: `enable` drops
        // the previous run's counter sets before this run's trainers
        // attach theirs, and they stay attached afterwards so a final
        // snapshot (`--metrics-out`) sees the totals.
        if cfg.telemetry {
            registry::enable();
        }
        // Likewise the profile's crash: it meets this run's designated
        // trainer afresh, so a second run replays the first.
        self.cluster.rearm_crash();
        let mut trainers = self.build_trainer_states(mode);
        // One set of gradient buffers per run. Without real math there
        // are no gradients, nothing to synchronise and no barrier wait.
        let num_grads = if cfg.train_math {
            self.shape_model.num_params()
        } else {
            0
        };
        let mut exchange = GradExchange::new(self.world(), num_grads);

        if cfg.parallel {
            // A thread per trainer, each fed by its own prepare thread —
            // spawned by the worker: started from here, ahead of the
            // workers, they cost 10 % more peak RSS (measured).
            std::thread::scope(|s| {
                for (ts, share) in trainers.chunks_mut(1).zip(exchange.shares(1)) {
                    s.spawn(move || {
                        ts[0].spawn_feed(self);
                        self.drive(ts, share);
                    });
                }
            });
        } else {
            // Round-robin on the calling thread: one share, every rank.
            let share = exchange.shares(trainers.len()).pop().expect("one share");
            self.drive(&mut trainers, share);
        }
        Ok(self.finalize(trainers, mode))
    }

    /// The step loop (Algorithm 1): every trainer of `trainers` pops its
    /// next minibatch, trains on it and hands the buffers back; then the
    /// gradients are averaged over the whole world through `share` (real
    /// math only), which is also where the schedulers' threads meet.
    ///
    /// One batch is alive per loop, not per trainer: the trainers of a
    /// loop run one after another, so the batch one of them consumed is
    /// the carcass the next prepares into.
    fn drive(&self, trainers: &mut [TrainerState], mut share: Share<'_>) {
        let cfg = &self.cfg;
        let steps_per_epoch = self.steps_per_epoch();
        let mut global_step = 0u64;
        let mut carcass = None;
        for epoch in 0..cfg.epochs as u64 {
            // Epoch 0 grows every pooled buffer; the epochs after it are
            // the steady state the memory proofs count in (`alloc`).
            let _steady = (epoch >= 1).then(crate::alloc::EpochGuard::new);
            for step in 0..steps_per_epoch {
                for ts in trainers.iter_mut() {
                    let batch = ts.next_batch(self, epoch, step, global_step, carcass.take());
                    ts.train_on(&batch, self, global_step);
                    carcass = ts.give_back(batch, cfg.pooling);
                }
                // DDP synchronization: the allgather leaves every rank's
                // slot bitwise identical, so every replica steps with the
                // same average.
                if cfg.train_math {
                    share.all_reduce(
                        trainers,
                        |ts, slot| ts.replica().write_grads(slot),
                        TrainerState::apply_averaged_grads,
                    );
                }
                global_step += 1;
            }
        }
    }

    /// Assemble a `mode` run's [`RunReport`] from finished trainer states.
    fn finalize(&self, trainers: Vec<TrainerState>, mode: Mode) -> RunReport {
        let cfg = &self.cfg;
        let steps_per_epoch = self.steps_per_epoch();
        // Fold epoch statistics step-major, trainer-minor: one fixed
        // order of f64 additions, whichever scheduler ran the steps.
        let mut epoch_loss = Vec::new();
        let mut epoch_acc = Vec::new();
        if cfg.train_math && steps_per_epoch > 0 {
            for epoch in 0..cfg.epochs {
                let mut loss_sum = 0.0f64;
                let mut acc_sum = 0.0f64;
                for step in epoch * steps_per_epoch..(epoch + 1) * steps_per_epoch {
                    for st in trainers.iter().map(|ts| ts.step_stats(step)) {
                        loss_sum += st.loss as f64;
                        acc_sum += st.accuracy;
                    }
                }
                let count = (steps_per_epoch * trainers.len()) as f64;
                epoch_loss.push((loss_sum / count) as f32);
                epoch_acc.push(acc_sum / count);
            }
        }
        let traces: Vec<TrainerTrace> = trainers.iter().filter_map(TrainerState::trace).collect();
        let mut final_params = Vec::new();
        if cfg.train_math {
            let replica = trainers[0].replica();
            final_params.resize(replica.num_params(), 0.0);
            replica.write_params(&mut final_params);
        }
        let reports: Vec<TrainerReport> = trainers
            .into_iter()
            .enumerate()
            .map(|(t, ts)| ts.into_report(t, cfg))
            .collect();
        let report = RunReport {
            mode_label: mode.label(),
            makespan_s: reports.iter().map(|r| r.sim_time_s).fold(0.0f64, f64::max),
            trainers: reports,
            steps_per_epoch,
            world: self.world(),
            epoch_loss,
            epoch_acc,
            final_params,
            traces,
        };
        // The one run-level value a scrape cannot count off the attached
        // sets (the world is their number): known only once the run ends.
        if cfg.telemetry {
            registry::record_makespan(report.makespan_s);
        }
        // Hand a copy to the global capture sink, if one is installed
        // (the repro binary's trace/JSON export path). One atomic load
        // when no sink exists.
        if mgnn_obs::sink::enabled() {
            mgnn_obs::sink::push(mgnn_obs::RunCapture {
                label: report.mode_label.clone(),
                report: report.to_value(),
                traces: report.traces.clone(),
            });
        }
        report
    }

    /// Evaluate model parameters (as returned in
    /// [`RunReport::final_params`]) on the dataset's validation split:
    /// forward-only inference over every partition's validation nodes with
    /// ground-truth features read straight from the feature matrix.
    /// Returns accuracy in `[0, 1]`.
    pub fn evaluate(&self, params: &[f32]) -> f64 {
        let mut model = make_model(&self.cfg, &self.features);
        assert_eq!(params.len(), model.num_params(), "parameter shape mismatch");
        model.read_params(params);
        let sampler = NeighborSampler::new(self.cfg.fanouts.clone(), self.cfg.seed ^ 0xe5a1);
        let features = &self.features;
        let dim = features.dim();
        let mut correct = 0usize;
        let mut total = 0usize;
        for part in &self.parts {
            // Validation nodes owned by this partition.
            let val: Vec<u32> = self
                .val_nodes
                .iter()
                .filter_map(|&g| {
                    part.local_id(g)
                        .filter(|&l| (l as usize) < part.num_local())
                })
                .collect();
            for chunk in val.chunks(self.cfg.batch_size) {
                let mb = sampler.sample(part, chunk, 0, 0);
                let mut input = Vec::with_capacity(mb.input_nodes.len() * dim);
                for &lid in &mb.input_nodes {
                    input.extend_from_slice(features.row(part.global_id(lid)));
                }
                let input = mgnn_tensor::Tensor::from_vec(mb.input_nodes.len(), dim, input);
                let logits = model.forward(&mb.blocks, &input);
                let labels: Vec<u32> = mb
                    .seeds
                    .iter()
                    .map(|&l| features.label(part.local_nodes[l as usize]))
                    .collect();
                let acc = mgnn_tensor::loss::accuracy(&logits, &labels);
                correct += (acc * labels.len() as f64).round() as usize;
                total += labels.len();
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchConfig, PrefetchPolicyKind, ScoreLayout};
    use mgnn_graph::{DatasetKind, Scale};
    use mgnn_net::{Backend, FaultProfile};
    use mgnn_obs::{Phase, PhaseStats};

    fn base_cfg() -> EngineConfig {
        EngineConfig {
            dataset: DatasetKind::Products,
            scale: Scale::Unit,
            num_parts: 2,
            trainers_per_part: 2,
            batch_size: 64,
            epochs: 2,
            fanouts: vec![5, 10],
            hidden_dim: 16,
            ..Default::default()
        }
    }

    fn prefetch_mode() -> Mode {
        Mode::Prefetch(PrefetchConfig {
            f_h: 0.35,
            gamma: 0.995,
            delta: 8,
            eviction: true,
            layout: ScoreLayout::Dense,
            policy: PrefetchPolicyKind::Scoreboard,
        })
    }

    #[test]
    fn baseline_smoke() {
        let engine = Engine::build(base_cfg());
        let report = engine.run();
        assert_eq!(report.world, 4);
        assert!(report.steps_per_epoch > 0);
        assert!(report.makespan_s > 0.0);
        assert_eq!(report.hit_rate(), 0.0, "baseline has no buffer");
        let agg = report.aggregate_metrics();
        assert!(agg.remote_nodes_fetched > 0);
        assert!(agg.rpc_calls > 0);
        for t in &report.trainers {
            assert!(t.sim_time_s > 0.0);
            assert!(t.breakdown.train_s > 0.0);
            assert!(t.breakdown.rpc_s > 0.0);
            assert_eq!(t.init.total_s(), 0.0);
        }
    }

    /// A world in which some trainer has no seeds trains nothing: it is
    /// refused, naming the first such trainer, not run to a makespan of 0.
    #[test]
    fn a_trainer_without_seeds_is_refused() {
        let fewest = Engine::build(base_cfg())
            .partitions()
            .iter()
            .map(|p| p.train_nodes.len())
            .min()
            .unwrap();
        // One trainer more than the smallest partition has seeds.
        let cfg = EngineConfig {
            trainers_per_part: fewest + 1,
            parallel: false,
            ..base_cfg()
        };
        let engine = Engine::build(cfg);
        let (part, seeds) = (engine.partitions().iter())
            .map(|p| p.train_nodes.len())
            .enumerate()
            .find(|&(_, n)| n == fewest)
            .unwrap();
        let rank = part * (fewest + 1) + seeds;
        for mode in [Mode::Baseline, prefetch_mode()] {
            let err = engine
                .run_as(mode)
                .expect_err("an empty trainer must be refused");
            assert!(
                err.contains(&format!("trainer {rank} (partition {part})")),
                "{err}"
            );
        }
    }

    #[test]
    fn prefetch_reduces_remote_fetches_and_time() {
        let mut cfg = base_cfg();
        let baseline = Engine::build(cfg.clone()).run();
        cfg.mode = prefetch_mode();
        let prefetch = Engine::build(cfg).run();

        let b = baseline.aggregate_metrics();
        let p = prefetch.aggregate_metrics();
        assert!(
            p.remote_nodes_fetched < b.remote_nodes_fetched,
            "prefetch {} should fetch fewer remote nodes than baseline {}",
            p.remote_nodes_fetched,
            b.remote_nodes_fetched
        );
        assert!(
            prefetch.hit_rate() > 0.2,
            "hit rate {}",
            prefetch.hit_rate()
        );
        assert!(
            prefetch.makespan_s < baseline.makespan_s,
            "prefetch {} vs baseline {}",
            prefetch.makespan_s,
            baseline.makespan_s
        );
    }

    #[test]
    fn oracle_prefetch_trains_identically_to_baseline() {
        // The paper: "accuracy remains unchanged ... optimizes the
        // pre-training data pipeline without altering the underlying
        // training process". Strongest possible check: bitwise-equal
        // final parameters under the same seeds.
        let mut cfg = base_cfg();
        cfg.train_math = true;
        cfg.epochs = 2;
        let baseline = Engine::build(cfg.clone()).run();
        cfg.mode = prefetch_mode();
        let prefetch = Engine::build(cfg).run();
        assert!(!baseline.final_params.is_empty());
        assert_eq!(
            baseline.final_params, prefetch.final_params,
            "prefetching must not alter training"
        );
        assert_eq!(baseline.epoch_loss, prefetch.epoch_loss);
    }

    #[test]
    fn loss_decreases_with_training() {
        let mut cfg = base_cfg();
        cfg.train_math = true;
        cfg.epochs = 5;
        let report = Engine::build(cfg).run();
        assert_eq!(report.epoch_loss.len(), 5);
        let first = report.epoch_loss[0];
        let last = *report.epoch_loss.last().unwrap();
        assert!(last < first, "loss {first} -> {last} did not decrease");
        assert!(*report.epoch_acc.last().unwrap() > report.epoch_acc[0] * 0.9);
    }

    #[test]
    fn cpu_overlap_better_than_gpu() {
        // Use a compute-heavy configuration (paper-like hidden dim and
        // fanouts) so CPU training is long enough to hide preparation;
        // tiny hidden sizes make even CPU compute shorter than one RPC
        // latency, which is not the paper's regime.
        let mut cfg = base_cfg();
        cfg.hidden_dim = 128;
        cfg.batch_size = 128;
        cfg.fanouts = vec![10, 25];
        cfg.mode = prefetch_mode();
        let cpu = Engine::build(cfg.clone()).run();
        cfg.backend = Backend::Gpu;
        let gpu = Engine::build(cfg).run();
        assert!(
            cpu.mean_overlap_efficiency() >= gpu.mean_overlap_efficiency(),
            "cpu {} vs gpu {}",
            cpu.mean_overlap_efficiency(),
            gpu.mean_overlap_efficiency()
        );
        // CPU should be at or near perfect overlap (Fig. 9).
        assert!(
            cpu.mean_overlap_efficiency() > 0.9,
            "cpu overlap {}",
            cpu.mean_overlap_efficiency()
        );
    }

    #[test]
    fn gat_runs_end_to_end() {
        let mut cfg = base_cfg();
        cfg.model = ModelKind::Gat;
        cfg.mode = prefetch_mode();
        cfg.train_math = true;
        cfg.epochs = 1;
        let report = Engine::build(cfg).run();
        assert!(report.makespan_s > 0.0);
        assert!(!report.epoch_loss.is_empty());
        assert!(report.epoch_loss[0].is_finite());
    }

    #[test]
    fn eviction_disabled_never_evicts() {
        let mut cfg = base_cfg();
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            eviction: false,
            ..PrefetchConfig::default()
        });
        let report = Engine::build(cfg).run();
        assert_eq!(report.aggregate_metrics().evictions, 0);
        assert!(report.hit_rate() > 0.0);
    }

    #[test]
    fn eviction_enabled_evicts_and_tracks() {
        let mut cfg = base_cfg();
        cfg.epochs = 4;
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            f_h: 0.25,
            gamma: 0.95,
            delta: 4,
            eviction: true,
            layout: ScoreLayout::Dense,
            policy: PrefetchPolicyKind::Scoreboard,
        });
        let report = Engine::build(cfg).run();
        let agg = report.aggregate_metrics();
        assert!(agg.evictions > 0, "no evictions happened");
        assert_eq!(agg.evictions, agg.replacements_fetched);
    }

    #[test]
    fn dense_and_mem_efficient_layouts_agree_on_counts() {
        let mut cfg = base_cfg();
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            layout: ScoreLayout::Dense,
            delta: 4,
            ..PrefetchConfig::default()
        });
        let dense = Engine::build(cfg.clone()).run();
        cfg.mode = Mode::Prefetch(PrefetchConfig {
            layout: ScoreLayout::MemEfficient,
            delta: 4,
            ..PrefetchConfig::default()
        });
        let me = Engine::build(cfg).run();
        // Same hits/misses/evictions — only memory/time costs differ.
        let d = dense.aggregate_metrics();
        let m = me.aggregate_metrics();
        assert_eq!(d.buffer_hits, m.buffer_hits);
        assert_eq!(d.buffer_misses, m.buffer_misses);
        assert_eq!(d.evictions, m.evictions);
        // Mem-efficient costs more scoring time (binary search).
        let dt: f64 = dense.trainers.iter().map(|t| t.breakdown.scoring_s).sum();
        let mt: f64 = me.trainers.iter().map(|t| t.breakdown.scoring_s).sum();
        assert!(mt >= dt);
    }

    #[test]
    fn deterministic_runs() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        let a = Engine::build(cfg.clone()).run();
        let b = Engine::build(cfg).run();
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.aggregate_metrics(), b.aggregate_metrics());
    }

    #[test]
    fn gpu_faster_than_cpu_in_wallclock() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        let cpu = Engine::build(cfg.clone()).run();
        cfg.backend = Backend::Gpu;
        let gpu = Engine::build(cfg).run();
        assert!(gpu.makespan_s < cpu.makespan_s);
    }

    #[test]
    fn evaluate_trained_model_beats_chance() {
        let mut cfg = base_cfg();
        cfg.train_math = true;
        cfg.epochs = 6;
        let engine = Engine::build(cfg);
        let report = engine.run();
        let acc = engine.evaluate(&report.final_params);
        // Products-like has 47 classes but imbalanced priors; trained
        // accuracy should still be far above the ~6% majority-class-ish
        // floor after a few epochs on label-correlated features.
        assert!(acc > 0.15, "validation accuracy {acc}");
        // And an untrained model does worse.
        let fresh = Engine::build(base_cfg());
        let n = report.final_params.len();
        let untrained = fresh.evaluate(&vec![0.01f32; n]);
        assert!(acc > untrained, "trained {acc} vs untrained {untrained}");
    }

    #[test]
    fn table3_style_minibatch_counts() {
        // More trainers ⇒ fewer minibatches per trainer (constant batch
        // size), the Table III relationship.
        let mut cfg = base_cfg();
        cfg.trainers_per_part = 1;
        let few = Engine::build(cfg.clone());
        cfg.trainers_per_part = 4;
        let many = Engine::build(cfg);
        assert!(many.steps_per_epoch() < few.steps_per_epoch());
    }

    #[test]
    fn load_imbalance_reported() {
        let report = Engine::build(base_cfg()).run();
        let li = report.load_imbalance();
        assert!(li >= 1.0, "imbalance {li} below 1");
        assert!(li < 3.0, "implausible imbalance {li}");
    }

    /// Field-by-field bitwise comparison of two run reports.
    fn assert_reports_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.mode_label, b.mode_label);
        assert_eq!(a.final_params, b.final_params, "final params differ");
        assert_eq!(a.epoch_loss, b.epoch_loss, "epoch losses differ");
        assert_eq!(a.epoch_acc, b.epoch_acc, "epoch accuracies differ");
        assert_eq!(a.aggregate_metrics(), b.aggregate_metrics());
        assert_eq!(a.makespan_s, b.makespan_s, "makespan differs");
        assert_eq!(a.trainers.len(), b.trainers.len());
        for (x, y) in a.trainers.iter().zip(&b.trainers) {
            assert_eq!(x.part_id, y.part_id);
            assert_eq!(x.sim_time_s, y.sim_time_s, "sim time differs");
            assert_eq!(x.stall_s, y.stall_s);
            assert_eq!(x.overlap_efficiency, y.overlap_efficiency);
            assert_eq!(x.metrics, y.metrics, "per-trainer metrics differ");
            assert_eq!(x.minibatches, y.minibatches);
            assert_eq!(x.peak_bytes, y.peak_bytes, "peak bytes differ");
            assert_eq!(x.remote_sampled_frac, y.remote_sampled_frac);
            assert_eq!(x.hits.len(), y.hits.len());
            for i in 0..x.hits.len() {
                assert_eq!(x.hits.at(i), y.hits.at(i), "hit history differs at {i}");
            }
            assert_eq!(x.breakdown.sampling_s, y.breakdown.sampling_s);
            assert_eq!(x.breakdown.lookup_s, y.breakdown.lookup_s);
            assert_eq!(x.breakdown.scoring_s, y.breakdown.scoring_s);
            assert_eq!(x.breakdown.evict_s, y.breakdown.evict_s);
            assert_eq!(x.breakdown.rpc_s, y.breakdown.rpc_s);
            assert_eq!(x.breakdown.copy_s, y.breakdown.copy_s);
            assert_eq!(x.breakdown.train_s, y.breakdown.train_s);
        }
    }

    #[test]
    fn threaded_baseline_bitwise_identical_to_sequential() {
        let mut cfg = base_cfg();
        cfg.train_math = true;
        let seq = Engine::build(cfg.clone()).run();
        cfg.parallel = true;
        let par = Engine::build(cfg).run();
        assert!(!seq.final_params.is_empty());
        assert_reports_identical(&seq, &par);
    }

    #[test]
    fn threaded_prefetch_bitwise_identical_to_sequential() {
        let mut cfg = base_cfg();
        cfg.train_math = true;
        cfg.mode = prefetch_mode();
        let seq = Engine::build(cfg.clone()).run();
        cfg.parallel = true;
        let par = Engine::build(cfg).run();
        assert!(!seq.final_params.is_empty());
        assert!(
            seq.aggregate_metrics().evictions > 0,
            "want evictions in play"
        );
        assert_reports_identical(&seq, &par);
    }

    #[test]
    fn threaded_prefetch_identical_without_math() {
        // Without train_math there is no barrier at all — workers run
        // fully independently — and the counts must still match.
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        let seq = Engine::build(cfg.clone()).run();
        cfg.parallel = true;
        let par = Engine::build(cfg).run();
        assert_reports_identical(&seq, &par);
    }

    #[test]
    fn pooling_off_bitwise_identical_to_pooled() {
        // Buffer recycling is a pure allocation optimization: turning it
        // off (fresh allocations every step, the pre-pooling behavior)
        // must not change a single bit of the report, in either mode on
        // either engine.
        for prefetch in [false, true] {
            let mut cfg = base_cfg();
            cfg.train_math = true;
            if prefetch {
                cfg.mode = prefetch_mode();
            }
            let pooled = Engine::build(cfg.clone()).run();
            cfg.pooling = false;
            let fresh = Engine::build(cfg.clone()).run();
            assert!(!pooled.final_params.is_empty());
            assert_reports_identical(&pooled, &fresh);
            cfg.parallel = true;
            let fresh_par = Engine::build(cfg).run();
            assert_reports_identical(&pooled, &fresh_par);
        }
    }

    #[test]
    fn tracing_does_not_change_the_report() {
        // The disabled-by-default contract, and its converse: turning
        // tracing ON must also leave every report field untouched (the
        // recorder only observes).
        for parallel in [false, true] {
            for mode in [Mode::Baseline, prefetch_mode()] {
                let mut cfg = base_cfg();
                cfg.mode = mode;
                cfg.parallel = parallel;
                let plain = Engine::build(cfg.clone()).run();
                cfg.trace = true;
                let traced = Engine::build(cfg).run();
                assert_reports_identical(&plain, &traced);
                assert!(plain.traces.is_empty(), "no traces without the flag");
                assert_eq!(traced.traces.len(), plain.world);
            }
        }
    }

    /// `trace`'s summary of `phase`, if any span of it was recorded.
    fn stats(trace: &TrainerTrace, phase: Phase) -> Option<&PhaseStats> {
        trace.phases.iter().find(|p| p.phase == phase)
    }

    /// Shared trace-consistency assertions: every phase present with
    /// histogram counts equal to the step count, and span sums matching
    /// the breakdown fields.
    fn assert_trace_matches_breakdown(report: &RunReport) {
        let total_steps = (report.steps_per_epoch * 2) as u64; // epochs = 2 in base_cfg
        assert_eq!(report.traces.len(), report.trainers.len());
        for (trainer, trace) in report.trainers.iter().zip(&report.traces) {
            assert_eq!(trace.part_id, trainer.part_id);
            assert_eq!(trace.dropped, 0, "unit-scale runs must not drop events");
            for phase in Phase::ALL {
                let stats = stats(trace, phase)
                    .unwrap_or_else(|| panic!("no {} spans recorded", phase.name()));
                assert_eq!(
                    stats.count,
                    total_steps,
                    "{} histogram count != steps",
                    phase.name()
                );
                if let Some(expect) = trainer.breakdown.phase_s(phase) {
                    assert!(
                        (stats.sum_s - expect).abs() < 1e-6,
                        "{} span sum {} != breakdown {}",
                        phase.name(),
                        stats.sum_s,
                        expect
                    );
                }
                assert!(stats.min_s <= stats.p50_s && stats.p50_s <= stats.p95_s);
                assert!(stats.p95_s <= stats.p99_s && stats.p99_s <= stats.max_s);
            }
            assert_eq!(trace.anchors.len() as u64, total_steps);
            assert_eq!(trace.series.len() as u64, total_steps);
            // Per-step pipeline stalls sum to the trainer's reported stall.
            let stall: f64 = trace.series.iter().map(|p| p.stall_s).sum();
            assert!(
                (stall - trainer.stall_s).abs() < 1e-9,
                "series stall {stall} vs report {}",
                trainer.stall_s
            );
            // Prefetch mode: per-step hits/misses sum to the exact
            // CommMetrics counters. (Baseline has no buffer, so its
            // series misses count sampled halo nodes while the buffer
            // counters stay zero.)
            if report.mode_label != "DistDGL" {
                let hits: u64 = trace.series.iter().map(|p| p.hits).sum();
                let misses: u64 = trace.series.iter().map(|p| p.misses).sum();
                assert_eq!(hits, trainer.metrics.buffer_hits);
                assert_eq!(misses, trainer.metrics.buffer_misses);
            } else {
                assert!(trace.series.iter().all(|p| p.hits == 0));
            }
        }
    }

    #[test]
    fn traced_prefetch_spans_match_breakdown() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        cfg.trace = true;
        let report = Engine::build(cfg.clone()).run();
        assert_trace_matches_breakdown(&report);
        // The threaded engine records the same sums from its real worker
        // and prepare threads.
        cfg.parallel = true;
        let par = Engine::build(cfg).run();
        assert_trace_matches_breakdown(&par);
    }

    #[test]
    fn traced_baseline_spans_match_breakdown() {
        let mut cfg = base_cfg();
        cfg.trace = true;
        let report = Engine::build(cfg).run();
        assert_trace_matches_breakdown(&report);
        // Nothing is prepared ahead, so nothing overlaps: after the
        // warmup batch the trainer waits out every preparation.
        for (trainer, trace) in report.trainers.iter().zip(&report.traces) {
            assert_eq!(trainer.overlap_efficiency, 0.0);
            assert!(trainer.stall_s > 0.0);
            assert_eq!(trace.series[0].stall_s, 0.0, "warmup excluded");
            for p in &trace.series[1..] {
                assert!(p.stall_s > 0.0);
                assert_eq!(p.overlap_efficiency, 0.0);
            }
            // The run is serial: the first preparation, the stall and the
            // training add up to the trainer's time.
            let first = &trace.anchors[0];
            let serial = (first.train_start_s - first.prep_start_s)
                + trainer.stall_s
                + trainer.breakdown.train_s;
            assert!((serial - trainer.sim_time_s).abs() < 1e-9);
        }
    }

    /// Every second a planning round charges is on the trace: a lookahead
    /// trainer's `Planned` spans sum to its `planned_s`, rounds that only
    /// did bookkeeping included. A buffer holding every halo row (`f_h`
    /// 1.0) leaves the rounds nothing to pull.
    #[test]
    fn traced_planned_spans_match_planned_s() {
        let pcfg = PrefetchConfig {
            f_h: 1.0,
            ..PrefetchConfig::default()
        };
        let mut cfg = EngineConfig {
            mode: Mode::Prefetch(pcfg.with_lookahead_policy(2)),
            epochs: 4,
            trace: true,
            ..Default::default()
        };
        for parallel in [false, true] {
            cfg.parallel = parallel;
            let report = Engine::build(cfg.clone()).run();
            for (trainer, trace) in report.trainers.iter().zip(&report.traces) {
                let planned = trainer.breakdown.planned_s;
                assert!(planned > 0.0);
                let spans = stats(trace, Phase::Planned).map_or(0.0, |p| p.sum_s);
                assert!(
                    (spans - planned).abs() < 1e-9,
                    "parallel {parallel}, trainer {}: Planned spans sum to {spans} over {} spans, \
                     planned_s is {planned}",
                    trace.trainer,
                    stats(trace, Phase::Planned).map_or(0, |p| p.count)
                );
                assert_eq!(trainer.breakdown.phase_s(Phase::Planned), Some(planned));
            }
        }
    }

    /// Each prepare window is laid out from its batch's timing (Eq. 3): a
    /// planning round at offset 0, then sampling → lookup → scoring →
    /// evict back to back, then RPC and copy side by side. With nothing
    /// in flight (baseline) the trainer starts training where its window
    /// ends.
    #[test]
    fn traced_windows_are_laid_out_from_their_timing() {
        let lookahead = Mode::Prefetch(PrefetchConfig::default().with_lookahead_policy(2));
        for mode in [Mode::Baseline, prefetch_mode(), lookahead] {
            for parallel in [false, true] {
                let mut cfg = base_cfg();
                cfg.mode = mode;
                cfg.parallel = parallel;
                cfg.trace = true;
                let report = Engine::build(cfg).run();
                for trace in &report.traces {
                    assert_eq!(trace.dropped, 0);
                    for a in &trace.anchors {
                        let span = |phase| {
                            trace
                                .events
                                .iter()
                                .find(|e| e.step == a.step && e.phase == phase)
                        };
                        let t_planned = span(Phase::Planned).map_or(0.0, |p| {
                            assert_eq!(p.rel_start_s, 0.0, "step {}", a.step);
                            p.dur_s
                        });
                        let mut end = t_planned;
                        for phase in [Phase::Sampling, Phase::Lookup, Phase::Scoring, Phase::Evict]
                        {
                            let s = span(phase).expect("a span per phase and step");
                            assert_eq!(s.rel_start_s, end, "step {} {}", a.step, phase.name());
                            end = s.rel_start_s + s.dur_s;
                        }
                        let (rpc, copy) = (span(Phase::Rpc).unwrap(), span(Phase::Copy).unwrap());
                        assert_eq!(rpc.rel_start_s, end, "step {}", a.step);
                        assert_eq!(copy.rel_start_s, end, "step {}", a.step);
                        if matches!(mode, Mode::Baseline) {
                            let window_end = a.prep_start_s + end + rpc.dur_s.max(copy.dur_s);
                            assert!(
                                (a.train_start_s - window_end).abs() <= 1e-12 * window_end,
                                "step {}: trains at {} but its window ends at {window_end}",
                                a.step,
                                a.train_start_s
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn traced_spans_resolve_onto_the_simulated_timeline() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        cfg.trace = true;
        let report = Engine::build(cfg).run();
        for (trainer, trace) in report.trainers.iter().zip(&report.traces) {
            // Every event must resolve (each prepared batch was consumed),
            // land within [0, sim_time], and train spans must start at
            // their step's train anchor.
            for ev in &trace.events {
                let start = trace
                    .absolute_start_s(ev)
                    .expect("every recorded step has an anchor");
                assert!(start >= 0.0);
                assert!(
                    start + ev.dur_s <= trainer.sim_time_s + 1e-9,
                    "span beyond end of run"
                );
            }
            // Anchors are monotone in training order.
            for w in trace.anchors.windows(2) {
                assert!(w[1].train_start_s >= w[0].train_start_s);
            }
        }
    }

    #[test]
    fn peak_bytes_higher_with_prefetch() {
        let mut cfg = base_cfg();
        let baseline = Engine::build(cfg.clone()).run();
        cfg.mode = prefetch_mode();
        let prefetch = Engine::build(cfg).run();
        let pb: usize = baseline.trainers.iter().map(|t| t.peak_bytes).sum();
        let pp: usize = prefetch.trainers.iter().map(|t| t.peak_bytes).sum();
        assert!(pp > pb, "prefetch should allocate buffer memory");
    }

    /// The faults-disabled identity oracle: arming the chaos machinery
    /// with an all-zero profile must leave every report field bitwise
    /// unchanged against a `fault: None` run — fault keys, Result plumbing
    /// and outcome accounting cost exactly nothing when nothing fires.
    #[test]
    fn faultless_chaos_config_is_bitwise_identical() {
        for parallel in [false, true] {
            for mode in [Mode::Baseline, prefetch_mode()] {
                let mut cfg = base_cfg();
                cfg.mode = mode;
                cfg.parallel = parallel;
                cfg.train_math = true;
                let plain = Engine::build(cfg.clone()).run();
                cfg.fault = Some(FaultProfile::off(0xC4A0));
                let armed = Engine::build(cfg).run();
                assert!(!armed.aggregate_metrics().had_faults());
                assert_reports_identical(&plain, &armed);
            }
        }
    }

    /// A server crash mid-run is fully absorbed: the ladder books the
    /// respawn, retries return the exact bytes, and training is
    /// bitwise-unaffected — only simulated time pays.
    #[test]
    fn crash_only_chaos_recovers_and_trains_identically() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        cfg.train_math = true;
        let clean = Engine::build(cfg.clone()).run();
        cfg.fault = Some(FaultProfile {
            crash_part: Some(0),
            crash_after: 8,
            ..FaultProfile::off(7)
        });
        let crashed = Engine::build(cfg).run();
        let agg = crashed.aggregate_metrics();
        assert!(agg.server_respawns >= 1, "crash must trigger a respawn");
        assert!(agg.rpc_disconnects >= 1);
        assert!(agg.rpc_retries >= 1);
        assert_eq!(
            agg.degraded_rows, 0,
            "respawn + retry must deliver every row"
        );
        assert_eq!(agg.stale_served, 0);
        assert_eq!(clean.final_params, crashed.final_params);
        assert_eq!(clean.epoch_loss, crashed.epoch_loss);
        let clean_rpc: f64 = clean.trainers.iter().map(|t| t.breakdown.rpc_s).sum();
        let crashed_rpc: f64 = crashed.trainers.iter().map(|t| t.breakdown.rpc_s).sum();
        assert!(
            crashed_rpc > clean_rpc,
            "retry charges must show in rpc time: {crashed_rpc} vs {clean_rpc}"
        );
    }

    /// Full chaos mix (drops + delays + truncations + one crash) on the
    /// sequential engine: the run completes without panicking and replays
    /// bit-for-bit from the same fault seed.
    #[test]
    fn seeded_chaos_replays_bit_for_bit() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        cfg.epochs = 1;
        cfg.fault = Some(FaultProfile {
            drop_prob: 0.02,
            delay_prob: 0.10,
            delay_factor: 3,
            truncate_prob: 0.02,
            crash_part: Some(1),
            crash_after: 8,
            ..FaultProfile::off(99)
        });
        let a = Engine::build(cfg.clone()).run();
        let b = Engine::build(cfg).run();
        assert!(
            a.aggregate_metrics().had_faults(),
            "chaos mix fired nothing"
        );
        assert_reports_identical(&a, &b);
    }

    /// Fault lane reconciliation: with delay-only chaos the data path is
    /// untouched (identical counts), and the extra rpc time equals the
    /// fault spans exactly.
    #[test]
    fn chaos_fault_spans_reconcile_with_breakdown() {
        let mut cfg = base_cfg();
        cfg.mode = prefetch_mode();
        cfg.trace = true;
        cfg.epochs = 1;
        let clean = Engine::build(cfg.clone()).run();
        cfg.fault = Some(FaultProfile {
            delay_prob: 1.0,
            delay_factor: 4,
            ..FaultProfile::off(5)
        });
        let chaos = Engine::build(cfg).run();
        let total_steps = chaos.steps_per_epoch as u64;
        for ((ct, xt), trace) in clean
            .trainers
            .iter()
            .zip(&chaos.trainers)
            .zip(&chaos.traces)
        {
            // Delays deliver full data: exact counts identical.
            assert_eq!(ct.metrics.buffer_hits, xt.metrics.buffer_hits);
            assert_eq!(ct.metrics.buffer_misses, xt.metrics.buffer_misses);
            assert!(xt.metrics.rpc_delays > 0);
            let f = stats(trace, Phase::Fault).expect("fault spans recorded");
            assert!(f.count >= 1 && f.count <= total_steps, "count {}", f.count);
            assert!(f.count <= xt.metrics.rpc_delays);
            assert!(f.sum_s > 0.0);
            // The whole fault charge is folded into rpc_s — span sum and
            // breakdown delta agree to fp noise.
            let delta = xt.breakdown.rpc_s - ct.breakdown.rpc_s;
            assert!(
                (delta - f.sum_s).abs() < 1e-9,
                "fault spans {} vs rpc delta {delta}",
                f.sum_s
            );
        }
    }
}
