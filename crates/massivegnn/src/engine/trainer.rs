//! One trainer: where its minibatches come from, what training on one
//! costs, and what it reports. The step loop sees only these methods — not
//! the mode, the policy, or whether a prepare thread is attached.

use super::{make_model, Breakdown, Engine, EngineConfig, Mode, TrainerReport};
use crate::config::PrefetchPolicyKind;
use crate::hitrate::HitRateTracker;
use crate::init::{initialize_prefetcher, InitReport};
use crate::pipeline::PrefetchPipeline;
use crate::policy::LookaheadPolicy;
use crate::prefetcher::{baseline_prepare_reuse, Prefetcher, PrepareScratch, PreparedBatch};
use mgnn_model::train::{forward_backward, StepStats};
use mgnn_model::{Model, Optimizer, Sgd};
use mgnn_net::clock::PipelineClock;
use mgnn_net::{CommMetrics, SimClock};
use mgnn_obs::{registry, Lane, Phase, SpanRecorder, StepAnchor, StepPoint, TrainerTrace};
use mgnn_partition::LocalPartition;
use mgnn_sampling::{DataLoader, NeighborSampler};
use std::sync::Arc;

/// Per-trainer mutable state. Everything in here is `Send`, so the
/// thread-per-trainer scheduler can step each one on its own thread.
pub(super) struct TrainerState {
    part: Arc<LocalPartition>,
    loader: DataLoader,
    sampler: NeighborSampler,
    /// Prefetch mode's preparer while it works on demand; moved onto the
    /// prepare thread by [`spawn_feed`](Self::spawn_feed).
    prefetcher: Option<Prefetcher>,
    /// The attached prepare thread and its look-ahead queue.
    feed: Option<PrefetchPipeline>,
    /// Carries the span recorder when tracing is on.
    metrics: Arc<CommMetrics>,
    clock: SimClock,
    pipeline: Option<PipelineClock>,
    hits: HitRateTracker,
    breakdown: Breakdown,
    init: InitReport,
    /// The replica this trainer trains (`train_math` only).
    model: Option<Box<dyn Model>>,
    opt: Box<dyn Optimizer>,
    /// Loss/accuracy of every step trained with real math.
    stats: Vec<StepStats>,
    halo_frac_sum: f64,
    peak_step_bytes: usize,
    /// Pooled parameter buffer of `apply_averaged_grads` (write-params →
    /// optimizer step → read-params round trip).
    params_scratch: Vec<f32>,
    /// Pooled per-step preparation scratch of baseline mode (a
    /// [`Prefetcher`] owns its own).
    prep_scratch: PrepareScratch,
}

impl TrainerState {
    /// Hand the prefetcher to a dedicated prepare thread walking the
    /// engine's epoch/step schedule; [`next_batch`](Self::next_batch)
    /// then pops its bounded queue. No-op in baseline mode.
    pub(super) fn spawn_feed(&mut self, engine: &Engine) {
        self.feed = self.prefetcher.take().map(|pf| {
            PrefetchPipeline::spawn(
                pf,
                Arc::clone(&self.part),
                self.sampler.clone(),
                self.loader.clone(),
                Arc::clone(&engine.cluster),
                engine.cfg.cost.clone(),
                Arc::clone(&self.metrics),
                engine.cfg.epochs,
                engine.steps_per_epoch(),
            )
        });
    }

    /// The minibatch of `(epoch, step)`: popped from the prepare thread's
    /// queue when one is attached (Algorithm 1 line 5), prepared on
    /// demand otherwise (the overlap is then modeled by the pipeline
    /// clock alone), into the buffers of `reuse` — the step loop's last
    /// consumed batch, whichever trainer it was for. Its timing and
    /// counters are folded into the accumulators here, once per batch in
    /// preparation order, so every floating-point sum sees the same
    /// operands under both schedulers.
    pub(super) fn next_batch(
        &mut self,
        engine: &Engine,
        epoch: u64,
        step: usize,
        global_step: u64,
        reuse: Option<PreparedBatch>,
    ) -> PreparedBatch {
        let (cfg, cluster) = (&engine.cfg, &*engine.cluster);
        let batch = if let Some(feed) = &self.feed {
            feed.next().expect("prepare thread ended early")
        } else {
            // Preparation is workload, not trainer-loop bookkeeping.
            #[cfg(feature = "alloc-count")]
            let _workload = crate::alloc::ExcludeGuard::new();
            let seeds = self.loader.epoch(epoch)[step].clone();
            match self.prefetcher.as_mut() {
                Some(pf) => pf.prepare_reuse(
                    reuse,
                    &self.part,
                    &self.sampler,
                    &seeds,
                    epoch,
                    global_step,
                    cluster,
                    &cfg.cost,
                    &self.metrics,
                ),
                None => {
                    if !cfg.pooling {
                        self.prep_scratch = PrepareScratch::default();
                    }
                    baseline_prepare_reuse(
                        reuse,
                        &mut self.prep_scratch,
                        &self.part,
                        &self.sampler,
                        &seeds,
                        epoch,
                        global_step,
                        cluster,
                        &cfg.cost,
                        &self.metrics,
                    )
                }
            }
        };
        self.breakdown.add_prepare(&batch.timing);
        // Baseline has no buffer: every sampled halo node counts as a miss.
        self.hits
            .record(batch.counts.hits as u64, batch.counts.misses as u64);
        self.halo_frac_sum += if self.part.num_halo() == 0 {
            0.0
        } else {
            batch.counts.halo as f64 / self.part.num_halo() as f64
        };
        batch
    }

    /// Return a consumed batch's buffers to whoever prepares the next
    /// one: the prepare thread, or — handed back to the step loop — the
    /// next on-demand prepare.
    pub(super) fn give_back(
        &mut self,
        batch: PreparedBatch,
        pooling: bool,
    ) -> Option<PreparedBatch> {
        if !pooling {
            return None;
        }
        match &self.feed {
            Some(feed) => {
                feed.recycle(batch);
                None
            }
            None => Some(batch),
        }
    }

    /// Train on one batch: modeled DDP time, the real tensor math when
    /// enabled, and the clock advance (serial Eq. 2 in baseline mode, the
    /// bounded-queue pipeline clock in prefetch mode).
    pub(super) fn train_on(&mut self, batch: &PreparedBatch, engine: &Engine, global_step: u64) {
        let (cfg, world) = (&engine.cfg, engine.world());
        let timing = &batch.timing;
        let input_bytes = batch.input.data().len() * 4;
        self.peak_step_bytes = self.peak_step_bytes.max(input_bytes);

        // Training time for this batch.
        let model = self.model.as_deref().unwrap_or(&*engine.shape_model);
        let param_bytes = model.num_params() * 4;
        let t_train = cfg.cost.t_ddp(
            model.macs(&batch.minibatch.blocks),
            input_bytes,
            param_bytes,
            world,
            cfg.backend,
        );
        self.breakdown.train_s += t_train;

        // Live telemetry: step counters and modeled per-lane latencies.
        // Wall-clock only — nothing here feeds the simulated clock or the
        // report.
        if cfg.telemetry {
            registry::STEPS.inc();
            registry::STEP_LATENCY.record("prepare", timing.t_prepare());
            registry::STEP_LATENCY.record("train", t_train);
        }

        // Real math, if enabled. Model math is workload, not trainer-loop
        // bookkeeping — its allocations are excluded from the hot count.
        if let Some(model) = self.model.as_mut() {
            #[cfg(feature = "alloc-count")]
            let _workload = crate::alloc::ExcludeGuard::new();
            self.stats.push(forward_backward(
                model.as_mut(),
                &batch.minibatch.blocks,
                &batch.input,
                &batch.labels,
            ));
        }

        // Advance the clock, keeping where the prepare window and the
        // train window landed in simulated time, the step's stall and
        // how much of the wait was hidden.
        let (prep_start_s, train_start_s, stall_s, overlap_efficiency) = match &mut self.pipeline {
            // Baseline is serial (Eq. 2): nothing overlaps, and the stall
            // is §V-B5's per-step communication stall.
            None => {
                let t_fetch = timing.t_rpc.max(timing.t_copy);
                let start = self.clock.now();
                self.clock.advance(timing.t_sampling + t_fetch + t_train);
                let stall = (timing.t_rpc - timing.t_copy).max(0.0);
                (start, start + timing.t_sampling + t_fetch, stall, 0.0)
            }
            // Prefetch feeds the bounded-queue pipeline clock (Eqs. 4–5).
            Some(pipeline) => {
                let times = pipeline.step_timed(timing.t_prepare(), t_train);
                let waited = times.stall_s + times.slack_s;
                let hidden = if waited == 0.0 {
                    1.0
                } else {
                    times.slack_s / waited
                };
                (times.prep_start, times.train_start, times.stall_s, hidden)
            }
        };
        if let Some(rec) = self.metrics.recorder() {
            rec.record_anchor(StepAnchor {
                step: global_step,
                prep_start_s,
                train_start_s,
            });
            // The `train` span is train-lane relative, so it starts at 0;
            // the ring-allreduce tail is nested at its end.
            rec.record(Lane::Train, global_step, Phase::Train, 0.0, t_train);
            let t_ar = cfg.cost.t_allreduce(param_bytes, world);
            rec.record(
                Lane::Train,
                global_step,
                Phase::Allreduce,
                t_train - t_ar,
                t_ar,
            );
            rec.record_step(StepPoint {
                step: global_step,
                stall_s,
                hits: batch.counts.hits as u64,
                misses: batch.counts.misses as u64,
                overlap_efficiency,
            });
        }
    }

    /// The model replica this trainer trains.
    pub(super) fn replica(&self) -> &dyn Model {
        self.model
            .as_deref()
            .expect("replicas exist under train_math")
    }

    /// DDP update with pre-averaged gradients: one optimizer step applied
    /// to the local replica. The parameter round-trip buffer is pooled —
    /// after the first step it never reallocates.
    pub(super) fn apply_averaged_grads(&mut self, grads: &[f32]) {
        let model = self
            .model
            .as_mut()
            .expect("replicas exist under train_math");
        self.params_scratch.clear();
        self.params_scratch.resize(model.num_params(), 0.0);
        model.write_params(&mut self.params_scratch);
        self.opt.step(&mut self.params_scratch, grads);
        model.read_params(&self.params_scratch);
    }

    /// Loss/accuracy of global step `step` (real math only).
    pub(super) fn step_stats(&self, step: usize) -> StepStats {
        self.stats[step]
    }

    /// Everything the recorder saw, when tracing is on.
    pub(super) fn trace(&self) -> Option<TrainerTrace> {
        self.metrics.recorder().map(|r| r.snapshot())
    }

    /// Close the trainer out into its report (`rank` is its index in the
    /// world). Joins the prepare thread, if any, to recover the
    /// prefetcher for the memory accounting.
    pub(super) fn into_report(self, rank: usize, cfg: &EngineConfig) -> TrainerReport {
        let persistent = self
            .feed
            .map(PrefetchPipeline::join)
            .or(self.prefetcher)
            .map_or(0, |p| p.heap_bytes() + p.peak_transient_bytes());
        let (sim_time_s, stall_s, overlap_efficiency) = match (&self.pipeline, &self.clock) {
            (Some(p), _) => (p.now(), p.stall(), p.overlap_efficiency()),
            (None, c) => (c.now(), c.stall(), c.overlap_efficiency()),
        };
        TrainerReport {
            part_id: self.part.part_id,
            trainer_id: (rank % cfg.trainers_per_part) as u32,
            sim_time_s,
            stall_s,
            overlap_efficiency,
            metrics: self.metrics.snapshot(),
            remote_sampled_frac: self.halo_frac_sum / self.hits.len().max(1) as f64,
            minibatches: self.hits.len() as u64,
            hits: self.hits,
            breakdown: self.breakdown,
            init: self.init,
            num_halo: self.part.num_halo(),
            peak_bytes: persistent + self.peak_step_bytes,
        }
    }
}

impl Engine {
    /// Build the per-trainer worker states in trainer order.
    pub(super) fn build_trainer_states(&self) -> Vec<TrainerState> {
        let cfg = &self.cfg;
        let total_steps = cfg.epochs * self.steps_per_epoch();
        (0..self.world())
            .map(|t| {
                let (part, loader, sampler) = self.trainer_inputs(t);
                let mut metrics = if cfg.trace {
                    let recorder = SpanRecorder::for_trainer(t as u32, part.part_id);
                    CommMetrics::with_recorder(Arc::new(recorder))
                } else {
                    CommMetrics::new()
                };
                // Trainer rank keys the deterministic request ids the
                // prefetcher tags its pulls with; set unconditionally —
                // it is a plain field, free when correlation is unused.
                metrics.set_trace_rank(t as u64);
                // Attached here, not in the step loop: attaching allocates.
                if cfg.telemetry {
                    registry::attach(Arc::clone(metrics.counters()));
                }
                let metrics = Arc::new(metrics);
                let mut init = InitReport::default();
                let mut pipeline = None;
                let prefetcher = match cfg.mode {
                    Mode::Baseline => None,
                    Mode::Prefetch(pcfg) => {
                        let (mut pf, rep) = initialize_prefetcher(
                            &part,
                            pcfg,
                            self.dataset.num_nodes(),
                            &self.cluster,
                            &cfg.cost,
                            &metrics,
                        );
                        pf.set_pooling(cfg.pooling);
                        if let PrefetchPolicyKind::Lookahead { depth } = pcfg.policy {
                            // The planner replays the run loop's
                            // step→(epoch, batch) mapping, so it must use
                            // the *engine's* synchronized steps-per-epoch
                            // (the min shard), not this loader's own
                            // batch count.
                            pf.set_policy(Box::new(LookaheadPolicy::new(
                                depth,
                                loader.clone(),
                                sampler.clone(),
                                self.steps_per_epoch(),
                                cfg.epochs,
                                part.num_halo(),
                            )));
                        }
                        init = rep;
                        pipeline = Some(PipelineClock::new(init.total_s(), pf.window()));
                        Some(pf)
                    }
                };
                let mut hits = HitRateTracker::new();
                hits.reserve(total_steps);
                TrainerState {
                    part,
                    loader,
                    sampler,
                    prefetcher,
                    feed: None,
                    metrics,
                    clock: SimClock::new(),
                    pipeline,
                    hits,
                    breakdown: Breakdown::default(),
                    init,
                    model: cfg
                        .train_math
                        .then(|| make_model(cfg, &self.dataset.features)),
                    opt: Box::new(Sgd::new(0.05)),
                    stats: Vec::with_capacity(total_steps),
                    halo_frac_sum: 0.0,
                    peak_step_bytes: 0,
                    params_scratch: Vec::new(),
                    prep_scratch: PrepareScratch::default(),
                }
            })
            .collect()
    }
}
