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
//! elapsed time is accumulated on per-trainer [`SimClock`]s through the
//! [`CostModel`], so a 64-node Perlmutter run is reproduced on one machine
//! with exact event counts and modeled seconds. Setting
//! [`EngineConfig::train_math`] additionally runs the actual tensor
//! math + ring-allreduce DDP every step (used by the correctness tests:
//! prefetch mode must produce bitwise-identical model parameters to
//! baseline, since the paper's scheme only reorganizes the data pipeline).

use crate::config::PrefetchConfig;
use crate::hitrate::HitRateTracker;
use crate::init::{initialize_prefetcher, InitReport};
use crate::pipeline::PrefetchPipeline;
use crate::prefetcher::{Prefetcher, PreparedBatch};
use mgnn_graph::{Dataset, DatasetGraph, DatasetKind, Scale};
use mgnn_model::{
    train::{forward_backward, StepStats},
    GatModel, GcnModel, Model, ModelKind, Optimizer, SageModel, Sgd,
};
use mgnn_net::clock::PipelineClock;
use mgnn_net::metrics::MetricsSnapshot;
use mgnn_net::{Backend, CommMetrics, CostModel, FaultProfile, RetryPolicy, SimClock, SimCluster};
use mgnn_obs::registry;
use mgnn_obs::{Lane, Phase, SpanRecorder, StepAnchor, StepPoint, TrainerTrace};
use mgnn_partition::{
    build_local_partitions, multilevel_partition, split_train_nodes, LocalPartition,
};
use mgnn_sampling::{DataLoader, NeighborSampler, SamplingStrategy};
use serde::Serialize;
use std::sync::{Arc, Barrier};

/// Baseline DistDGL vs the paper's prefetch scheme.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// DistDGL semantics: every sampled halo feature fetched over RPC,
    /// serially with training.
    Baseline,
    /// MassiveGNN prefetch (+ optional eviction) with overlapped
    /// next-minibatch preparation.
    Prefetch(PrefetchConfig),
}

impl Mode {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Mode::Baseline => "DistDGL".into(),
            Mode::Prefetch(c) => {
                if let crate::config::PrefetchPolicyKind::Lookahead { depth } = c.policy {
                    return format!("Prefetch+Lookahead(d={},f={})", depth, c.f_h);
                }
                if c.eviction {
                    format!("Prefetch+Evict(f={},γ={},Δ={})", c.f_h, c.gamma, c.delta)
                } else {
                    format!("Prefetch(f={})", c.f_h)
                }
            }
        }
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which OGB-like dataset preset.
    pub dataset: DatasetKind,
    /// Generation scale.
    pub scale: Scale,
    /// Number of graph partitions (= compute nodes; the paper uses
    /// #partitions = #nodes).
    pub num_parts: usize,
    /// Trainer PEs per compute node (4 in the paper).
    pub trainers_per_part: usize,
    /// Minibatch size per trainer (2000 in the paper, scaled here).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Sampler fanouts, input layer first ({10, 25} in the paper).
    pub fanouts: Vec<usize>,
    /// Neighbor-selection strategy (the paper's default is uniform).
    pub sampling: SamplingStrategy,
    /// Hidden dimension (256-class scale in the paper; scaled here).
    pub hidden_dim: usize,
    /// GraphSAGE or GAT.
    pub model: ModelKind,
    /// Attention heads for GAT (2 in the paper).
    pub gat_heads: usize,
    /// CPU or GPU training backend (cost model).
    pub backend: Backend,
    /// Baseline vs prefetch.
    pub mode: Mode,
    /// Master seed.
    pub seed: u64,
    /// Cost model parameters.
    pub cost: CostModel,
    /// Run real tensor math + DDP updates (slower; exact parameters) or
    /// only the data pipeline + cost accounting (fast; identical counts).
    pub train_math: bool,
    /// Step every trainer on its own OS thread with a per-step DDP
    /// barrier (wall-clock parallelism; results are bitwise-identical to
    /// the sequential engine) instead of round-robin on one thread.
    ///
    /// Trainer threads are spawned *outside* the global kernel pool, so a
    /// `num_parts × trainers_per_part` world multiplies against the
    /// pool's size. On small machines set `MGNN_THREADS` (e.g. to 1) to
    /// keep `world × pool` within the core count; results are unaffected
    /// — the pool is bitwise-deterministic at any thread count.
    pub parallel: bool,
    /// Record per-phase spans, latency histograms, and per-step telemetry
    /// into [`RunReport::traces`]. Off by default; when off, no recorder
    /// exists anywhere and the report is bitwise-identical to an untraced
    /// run.
    pub trace: bool,
    /// Deterministic fault profile injected into every RPC server.
    /// `None` disables the chaos machinery entirely; a profile whose
    /// probabilities are all zero (`FaultProfile::off`) keeps the
    /// machinery armed but produces a bitwise-identical report to
    /// `None` — the identity tests pin exactly that.
    pub fault: Option<FaultProfile>,
    /// Retry/backoff policy failed pulls follow when `fault` is active.
    /// Backoff is charged to the *simulated* clock, never slept.
    pub retry: RetryPolicy,
    /// Recycle per-step buffers (prepare scratch, `PreparedBatch`
    /// carcasses, gradient-exchange arena, optimizer scratch) so the
    /// steady-state hot loop performs no heap allocation. Off restores
    /// allocate-per-step behavior; reports are bitwise-identical either
    /// way.
    pub pooling: bool,
    /// Mirror counters into the process-global live-telemetry registry
    /// ([`mgnn_obs::registry`]) so a Prometheus scrape server can expose
    /// them mid-run. Perturbs only wall-clock (a few atomic adds per
    /// step), never the simulated clock: the [`RunReport`] is
    /// bitwise-identical with telemetry on or off.
    pub telemetry: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataset: DatasetKind::Products,
            scale: Scale::Unit,
            num_parts: 2,
            trainers_per_part: 2,
            batch_size: 64,
            epochs: 2,
            fanouts: vec![10, 25],
            sampling: SamplingStrategy::Uniform,
            hidden_dim: 32,
            model: ModelKind::Sage,
            gat_heads: 2,
            backend: Backend::Cpu,
            mode: Mode::Baseline,
            seed: 42,
            cost: CostModel::default(),
            train_math: false,
            parallel: false,
            trace: false,
            fault: None,
            retry: RetryPolicy::default(),
            pooling: true,
            telemetry: false,
        }
    }
}

/// Modeled time breakdown accumulated over a trainer's whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Neighbor sampling.
    pub sampling_s: f64,
    /// Buffer lookups.
    pub lookup_s: f64,
    /// Scoreboard maintenance.
    pub scoring_s: f64,
    /// Eviction rounds.
    pub evict_s: f64,
    /// Remote feature fetch.
    pub rpc_s: f64,
    /// Local feature copy.
    pub copy_s: f64,
    /// DDP training.
    pub train_s: f64,
    /// Lookahead-planned pulls (policy work off the critical RPC path;
    /// 0.0 under the scoreboard policy).
    pub planned_s: f64,
}

impl Breakdown {
    fn add_prepare(&mut self, t: &crate::prefetcher::PrepareTiming) {
        self.sampling_s += t.t_sampling;
        self.lookup_s += t.t_lookup;
        self.scoring_s += t.t_scoring;
        self.evict_s += t.t_evict;
        self.rpc_s += t.t_rpc;
        self.copy_s += t.t_copy;
        self.planned_s += t.t_planned;
    }

    /// Sum of all components (serial work, ignoring overlap).
    pub fn total_serial(&self) -> f64 {
        self.sampling_s
            + self.lookup_s
            + self.scoring_s
            + self.evict_s
            + self.rpc_s
            + self.copy_s
            + self.train_s
            + self.planned_s
    }

    /// The paper's §V-B5 communication stall:
    /// `t_communication = t_RPC − t_copy` (clamped at 0).
    pub fn communication_stall_s(&self) -> f64 {
        (self.rpc_s - self.copy_s).max(0.0)
    }

    /// The field corresponding to a tracing [`Phase`] (`None` for
    /// [`Phase::Allreduce`], which is a sub-span of `train_s`). Lets the
    /// trace-consistency checks compare span sums against this breakdown
    /// without hand-listing fields.
    pub fn phase_s(&self, phase: Phase) -> Option<f64> {
        match phase {
            Phase::Sampling => Some(self.sampling_s),
            Phase::Lookup => Some(self.lookup_s),
            Phase::Scoring => Some(self.scoring_s),
            Phase::Evict => Some(self.evict_s),
            Phase::Rpc => Some(self.rpc_s),
            Phase::Copy => Some(self.copy_s),
            Phase::Train => Some(self.train_s),
            Phase::Allreduce => None,
            // Fault time is already folded into `rpc_s`; its lane-level
            // span is an out-of-band annotation, not a breakdown field.
            Phase::Fault => None,
            // Planned pulls are out-of-band like Fault: tracked in
            // `planned_s` but emitted only on steps where the lookahead
            // planner actually pulled, so span-count checks over
            // `Phase::ALL` must not include them.
            Phase::Planned => None,
        }
    }
}

/// Per-trainer result.
#[derive(Debug, Clone)]
pub struct TrainerReport {
    /// Partition this trainer lives on.
    pub part_id: u32,
    /// Trainer index within the partition.
    pub trainer_id: u32,
    /// Simulated end-to-end time.
    pub sim_time_s: f64,
    /// Stall time (preparation exceeding training during overlap).
    pub stall_s: f64,
    /// Overlap efficiency (1.0 = the paper's perfect overlap).
    pub overlap_efficiency: f64,
    /// Exact communication counters.
    pub metrics: MetricsSnapshot,
    /// Per-minibatch hit/miss history.
    pub hits: HitRateTracker,
    /// Modeled time breakdown.
    pub breakdown: Breakdown,
    /// Prefetcher initialization cost (zeroed in baseline mode).
    pub init: InitReport,
    /// Halo nodes visible to this trainer's partition.
    pub num_halo: usize,
    /// Minibatches processed.
    pub minibatches: u64,
    /// Mean fraction of the partition's halo set sampled per minibatch
    /// (Fig. 10's right-hand series).
    pub remote_sampled_frac: f64,
    /// Peak bytes: persistent prefetcher state + largest per-step
    /// transient (Fig. 14).
    pub peak_bytes: usize,
}

/// Whole-run result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mode that ran.
    pub mode_label: String,
    /// Per-trainer reports.
    pub trainers: Vec<TrainerReport>,
    /// Makespan: slowest trainer's simulated time.
    pub makespan_s: f64,
    /// Synchronized steps per epoch.
    pub steps_per_epoch: usize,
    /// World size (total trainers).
    pub world: usize,
    /// Mean loss per epoch (empty unless `train_math`).
    pub epoch_loss: Vec<f32>,
    /// Mean minibatch accuracy per epoch (empty unless `train_math`).
    pub epoch_acc: Vec<f64>,
    /// Final model parameters of trainer 0 (empty unless `train_math`) —
    /// lets tests assert baseline ≡ prefetch.
    pub final_params: Vec<f32>,
    /// Per-trainer observability traces (empty unless
    /// [`EngineConfig::trace`]).
    pub traces: Vec<TrainerTrace>,
}

impl RunReport {
    /// Aggregate cumulative hit rate over all trainers.
    pub fn hit_rate(&self) -> f64 {
        let agg = self.aggregate_metrics();
        agg.hit_rate()
    }

    /// Sum of all trainers' counters.
    pub fn aggregate_metrics(&self) -> MetricsSnapshot {
        self.trainers
            .iter()
            .fold(MetricsSnapshot::default(), |a, t| a.merge(&t.metrics))
    }

    /// Mean overlap efficiency over trainers.
    pub fn mean_overlap_efficiency(&self) -> f64 {
        if self.trainers.is_empty() {
            return 1.0;
        }
        self.trainers
            .iter()
            .map(|t| t.overlap_efficiency)
            .sum::<f64>()
            / self.trainers.len() as f64
    }

    /// Total initialization cost across trainers.
    pub fn total_init_s(&self) -> f64 {
        self.trainers.iter().map(|t| t.init.total_s()).sum()
    }

    /// Load-imbalance factor: slowest trainer's time over the mean.
    /// 1.0 = perfectly balanced. The paper attributes arxiv's extreme
    /// GPU-side gains to severe imbalance (§V-A2: "6x more time on
    /// communication and data movement than training").
    pub fn load_imbalance(&self) -> f64 {
        if self.trainers.is_empty() {
            return 1.0;
        }
        let mean =
            self.trainers.iter().map(|t| t.sim_time_s).sum::<f64>() / self.trainers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.makespan_s / mean
        }
    }
}

/// Per-trainer mutable state. Everything in here is `Send`, so the
/// threaded engine can move each trainer onto its own worker thread.
struct TrainerState {
    part: Arc<LocalPartition>,
    loader: DataLoader,
    sampler: NeighborSampler,
    prefetcher: Option<Prefetcher>,
    metrics: Arc<CommMetrics>,
    /// Same recorder the metrics carry; `None` when tracing is off.
    recorder: Option<Arc<SpanRecorder>>,
    clock: SimClock,
    pipeline: Option<PipelineClock>,
    hits: HitRateTracker,
    breakdown: Breakdown,
    init: InitReport,
    model: Option<Box<dyn Model>>,
    opt: Box<dyn Optimizer>,
    pending: Option<PreparedBatch>,
    halo_frac_sum: f64,
    peak_step_bytes: usize,
    /// Pooled parameter buffer for [`apply_averaged_grads`]
    /// (write-params → optimizer step → read-params round trip).
    params_scratch: Vec<f32>,
    /// Pooled per-step preparation scratch (baseline mode's inline
    /// prepares; the prefetch pipeline thread owns its own inside the
    /// [`Prefetcher`]).
    prep_scratch: crate::prefetcher::PrepareScratch,
    /// Consumed batch awaiting recycling into the next inline prepare.
    carcass: Option<PreparedBatch>,
}

/// Read-only per-run context shared by the sequential loop and every
/// worker thread. Both execution paths go through the same
/// [`TrainerState`] helpers below — that shared code (plus fixed
/// per-accumulator operation order) is what makes the threaded engine
/// bitwise-reproducible against the sequential one.
struct StepCtx<'a> {
    cfg: &'a EngineConfig,
    cost: &'a CostModel,
    world: usize,
    param_bytes: usize,
}

/// Whether OS threads can actually run concurrently here: true when the
/// user pinned a pool size via `MGNN_THREADS` (explicit intent — tests
/// and CI use it to force the threaded engine) or the host exposes more
/// than one core. Errors probing the core count err toward threading.
fn real_parallelism_available() -> bool {
    if std::env::var_os("MGNN_THREADS").is_some() {
        return true;
    }
    std::thread::available_parallelism()
        .map(|n| n.get() > 1)
        .unwrap_or(true)
}

/// f32 lanes per cache line.
const CELL_F32: usize = 16;

/// One 64-byte cache line of interior-mutable f32 storage. `repr(C)`
/// pins the `UnsafeCell` at offset 0 and `[f32; 16]` fills the line
/// exactly, so every byte of a `CacheCell` is inside its `UnsafeCell` —
/// the property that makes writing through pointers derived from a
/// shared `&[CacheCell]` sound.
#[repr(C, align(64))]
struct CacheCell(std::cell::UnsafeCell<[f32; CELL_F32]>);

/// Lock-free DDP gradient exchange: one cache-line-aligned gradient slot
/// per trainer plus a shared average region, in a single arena allocated
/// once per run. Replaces the `Mutex<Vec<Vec<f32>>>` + leader-allreduce
/// scheme — no lock, no per-step allocation, no single-threaded
/// reduction: thread `t` reduces ring chunk `t`, and the chunk grid is a
/// pure function of the gradient length ([`mgnn_model::ring_chunk_bounds`]),
/// so the f32 accumulation order — and therefore every low mantissa bit —
/// is independent of thread count and identical to the sequential ring.
///
/// Slot starts are padded to a whole number of cache lines, so two
/// trainers writing their slots concurrently never share a line (no
/// false sharing, and no cross-thread byte overlap at all).
///
/// # Phase protocol (threaded engine)
///
/// ```text
/// write own slot t   -- disjoint &mut [f32] per thread
///     barrier
/// reduce chunk t     -- shared reads of all slots, disjoint &mut of avg
///     barrier
/// apply shared avg   -- shared reads of avg
/// ```
///
/// Each phase's references are created inside the phase and dropped
/// before the barrier, so no `&mut` coexists with an aliasing access.
/// The barriers publish writes (acquire/release) between phases. A
/// thread looping into the next step writes only its own slot, which no
/// other thread touches outside the reduce phase it cannot reach before
/// the same barrier.
struct GradExchange {
    cells: Box<[CacheCell]>,
    len: usize,
    cells_per_slot: usize,
    world: usize,
}

// SAFETY: all shared mutation goes through `UnsafeCell` under the phase
// protocol above; disjointness of the mutable views is structural
// (per-thread slot index, per-thread ring chunk).
unsafe impl Sync for GradExchange {}

impl GradExchange {
    /// Arena for `world` gradient buffers of `len` f32s (+ the shared
    /// average region), zero-initialized.
    fn new(world: usize, len: usize) -> Self {
        assert!(world > 0);
        let cells_per_slot = len.div_ceil(CELL_F32).max(1);
        let cells: Box<[CacheCell]> = (0..cells_per_slot * (world + 1))
            .map(|_| CacheCell(std::cell::UnsafeCell::new([0.0; CELL_F32])))
            .collect();
        GradExchange {
            cells,
            len,
            cells_per_slot,
            world,
        }
    }

    /// Gradient length.
    fn len(&self) -> usize {
        self.len
    }

    /// First f32 of region `r` (slots `0..world`; the average at `world`).
    /// Provenance covers the whole arena: derived from the full-slice
    /// pointer, not a single element's.
    #[inline]
    fn region_ptr(&self, r: usize) -> *mut f32 {
        debug_assert!(r <= self.world);
        unsafe { (self.cells.as_ptr() as *mut f32).add(r * self.cells_per_slot * CELL_F32) }
    }

    /// Exclusive view of trainer `t`'s gradient slot.
    ///
    /// # Safety
    /// Caller must hold exclusive access to slot `t` for the lifetime of
    /// the returned slice (write phase: each thread touches only its own
    /// `t`; no reader exists until after the next barrier).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot_mut(&self, t: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.region_ptr(t), self.len)
    }

    /// Shared view of trainer `t`'s gradient slot.
    ///
    /// # Safety
    /// No `&mut` to slot `t` may be live (reduce phase: all slots are
    /// read-only between the two barriers).
    unsafe fn slot(&self, t: usize) -> &[f32] {
        std::slice::from_raw_parts(self.region_ptr(t), self.len)
    }

    /// Exclusive view of ring chunk `c` of the shared average region.
    ///
    /// # Safety
    /// Caller must hold exclusive access to chunk `c` (reduce phase:
    /// each thread reduces only its own chunk; chunks tile `0..len`
    /// without overlap).
    #[allow(clippy::mut_from_ref)]
    unsafe fn avg_chunk_mut(&self, c: usize) -> &mut [f32] {
        let (s, e) = mgnn_model::ring_chunk_bounds(self.len, self.world, c);
        std::slice::from_raw_parts_mut(self.region_ptr(self.world).add(s), e - s)
    }

    /// Shared view of the full averaged gradient.
    ///
    /// # Safety
    /// No `&mut` into the average region may be live (apply phase, after
    /// the post-reduce barrier).
    unsafe fn avg(&self) -> &[f32] {
        std::slice::from_raw_parts(self.region_ptr(self.world), self.len)
    }

    /// Run the whole exchange on one thread (the sequential engine):
    /// write every trainer's slot, reduce all chunks, return the shared
    /// average. Same arena, same arithmetic, no aliasing subtleties.
    fn reduce_all(&mut self, mut write_slot: impl FnMut(usize, &mut [f32])) -> &[f32] {
        for t in 0..self.world {
            // SAFETY: `&mut self` guarantees exclusivity; views are
            // created and dropped one at a time.
            write_slot(t, unsafe { self.slot_mut(t) });
        }
        for c in 0..self.world {
            let dst = unsafe { self.avg_chunk_mut(c) };
            mgnn_model::reduce_ring_chunk_average_with(
                c,
                self.world,
                self.len,
                // SAFETY: slots are read-only while `dst` (average
                // region) is the only live mutable view.
                |r| unsafe { self.slot(r) },
                dst,
            );
        }
        unsafe { self.avg() }
    }
}

impl TrainerState {
    /// Fold one prepared batch's timing and counters into the per-trainer
    /// accumulators. Called once per batch in preparation order, so every
    /// floating-point sum sees the same operand sequence on both engines.
    fn account_prepared(&mut self, batch: &PreparedBatch, baseline: bool) {
        self.breakdown.add_prepare(&batch.timing);
        if baseline {
            self.hits.record(0, batch.counts.misses as u64);
        } else {
            self.hits
                .record(batch.counts.hits as u64, batch.counts.misses as u64);
        }
        self.halo_frac_sum += if self.part.num_halo() == 0 {
            0.0
        } else {
            batch.counts.halo as f64 / self.part.num_halo() as f64
        };
    }

    /// Train on one batch: modeled DDP time, the real tensor math when
    /// enabled, and the clock advance (serial Eq. 2 in baseline mode, the
    /// bounded-queue pipeline clock in prefetch mode). Returns the step's
    /// loss/accuracy when real math ran.
    fn train_on(
        &mut self,
        batch: &PreparedBatch,
        shape_model: &dyn Model,
        ctx: &StepCtx,
        global_step: u64,
    ) -> Option<StepStats> {
        let step_bytes = batch.input.data().len() * 4;
        self.peak_step_bytes = self.peak_step_bytes.max(step_bytes);

        // Training time for this batch.
        let macs = if let Some(m) = self.model.as_ref() {
            m.macs(&batch.minibatch.blocks)
        } else {
            shape_model.macs(&batch.minibatch.blocks)
        };
        let input_bytes = batch.input.data().len() * 4;
        let t_train = ctx.cost.t_ddp(
            macs,
            input_bytes,
            ctx.param_bytes,
            ctx.world,
            ctx.cfg.backend,
        );
        self.breakdown.train_s += t_train;

        // Live telemetry: step counters and modeled per-lane latencies.
        // Wall-clock only — nothing here feeds the simulated clock or the
        // report.
        if ctx.cfg.telemetry && registry::enabled() {
            registry::STEPS.inc();
            registry::STEP_LATENCY.record("prepare", batch.timing.t_prepare());
            registry::STEP_LATENCY.record("train", t_train);
        }

        // Real math, if enabled. Model math is workload, not trainer-loop
        // bookkeeping — its allocations are excluded from the hot count.
        let stats = self.model.as_mut().map(|model| {
            #[cfg(feature = "alloc-count")]
            let _workload = crate::alloc::ExcludeGuard::new();
            forward_backward(
                model.as_mut(),
                &batch.minibatch.blocks,
                &batch.input,
                &batch.labels,
            )
        });

        // Advance the clock: baseline is serial (Eq. 2); prefetch feeds
        // the bounded-queue pipeline clock (Eqs. 4–5 generalized to
        // lookahead ≥ 1). With tracing on, the clocks also yield this
        // step's timeline anchors (where the prepare window and the train
        // window landed in simulated time) and its telemetry sample.
        match ctx.cfg.mode {
            Mode::Baseline => {
                let t_fetch = batch.timing.t_rpc.max(batch.timing.t_copy);
                if let Some(rec) = &self.recorder {
                    let prep_start = self.clock.now();
                    rec.record_anchor(StepAnchor {
                        step: global_step,
                        prep_start_s: prep_start,
                        train_start_s: prep_start + batch.timing.t_sampling + t_fetch,
                    });
                    self.record_train_spans(rec, global_step, t_train, ctx);
                    rec.record_step(StepPoint {
                        step: global_step,
                        // §V-B5 per-step communication stall.
                        stall_s: (batch.timing.t_rpc - batch.timing.t_copy).max(0.0),
                        hits: batch.counts.hits as u64,
                        misses: batch.counts.misses as u64,
                        overlap_efficiency: 0.0, // Eq. 2: nothing overlaps
                    });
                }
                self.clock
                    .advance(batch.timing.t_sampling + t_fetch + t_train);
            }
            Mode::Prefetch(_) => {
                let times = self
                    .pipeline
                    .as_mut()
                    .unwrap()
                    .step_timed(batch.timing.t_prepare(), t_train);
                if let Some(rec) = &self.recorder {
                    rec.record_anchor(StepAnchor {
                        step: global_step,
                        prep_start_s: times.prep_start,
                        train_start_s: times.train_start,
                    });
                    self.record_train_spans(rec, global_step, t_train, ctx);
                    let waited = times.stall_s + times.slack_s;
                    rec.record_step(StepPoint {
                        step: global_step,
                        stall_s: times.stall_s,
                        hits: batch.counts.hits as u64,
                        misses: batch.counts.misses as u64,
                        overlap_efficiency: if waited == 0.0 {
                            1.0
                        } else {
                            times.slack_s / waited
                        },
                    });
                }
            }
        }
        stats
    }

    /// Record this step's `train` span (train-lane relative, so it starts
    /// at 0) with the ring-allreduce tail nested at its end.
    fn record_train_spans(&self, rec: &SpanRecorder, step: u64, t_train: f64, ctx: &StepCtx) {
        rec.record(Lane::Train, step, Phase::Train, 0.0, t_train);
        let t_ar = ctx.cost.t_allreduce(ctx.param_bytes, ctx.world);
        rec.record(Lane::Train, step, Phase::Allreduce, t_train - t_ar, t_ar);
    }

    /// DDP update with pre-averaged gradients: one optimizer step applied
    /// to the local replica (identical arithmetic on both engines). The
    /// parameter round-trip buffer is pooled — after the first step it
    /// never reallocates.
    fn apply_averaged_grads(&mut self, grads: &[f32]) {
        let m = self.model.as_mut().unwrap();
        self.params_scratch.clear();
        self.params_scratch.resize(m.num_params(), 0.0);
        m.write_params(&mut self.params_scratch);
        self.opt.step(&mut self.params_scratch, grads);
        m.read_params(&self.params_scratch);
    }
}

/// One fully-constructed experiment, reusable across modes.
pub struct Engine {
    cfg: EngineConfig,
    dataset: Dataset,
    parts: Vec<Arc<LocalPartition>>,
    cluster: Arc<SimCluster>,
    /// (partition, trainer-local seeds) per trainer.
    trainer_shards: Vec<(usize, Vec<u32>)>,
}

impl Engine {
    /// Build the experiment: generate, partition, shard, spawn servers.
    pub fn build(cfg: EngineConfig) -> Self {
        assert!(cfg.num_parts >= 1 && cfg.trainers_per_part >= 1);
        // Five stages, each holding only what it reads (DESIGN §9,
        // "Set-up"). The partitioner's level stack and the feature
        // synthesis scratch are the two large transients of a build, so
        // they never overlap: the graph is partitioned before any feature
        // exists, and the features are synthesized while nothing but the
        // graph and the assignment is live — before the halo views. The
        // cluster then shares that one matrix instead of copying shards.
        let topology = DatasetGraph::generate(cfg.dataset, cfg.scale, cfg.seed);
        let partitioning = multilevel_partition(&topology.graph, cfg.num_parts, cfg.seed);
        let dataset = topology.with_features();
        let parts: Vec<Arc<LocalPartition>> =
            build_local_partitions(&dataset.graph, &partitioning, &dataset.train_nodes)
                .into_iter()
                .map(Arc::new)
                .collect();
        let cluster = Arc::new(SimCluster::with_faults(
            &dataset.features,
            &partitioning.assignment,
            cfg.num_parts,
            cfg.fault.clone(),
            cfg.retry.clone(),
        ));

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
        Engine {
            cfg,
            dataset,
            parts,
            cluster,
            trainer_shards,
        }
    }

    /// The generated dataset (for inspection).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
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

    fn make_model(&self) -> Box<dyn Model> {
        let feat = self.dataset.features.dim();
        let classes = self.dataset.features.num_classes();
        let dims = [feat, self.cfg.hidden_dim, classes];
        match self.cfg.model {
            ModelKind::Sage => Box::new(SageModel::new(&dims, self.cfg.seed ^ 0x6d30_6465)),
            ModelKind::Gat => Box::new(GatModel::new(
                &dims,
                self.cfg.gat_heads,
                self.cfg.seed ^ 0x6d30_6465,
            )),
            ModelKind::Gcn => Box::new(GcnModel::new(&dims, self.cfg.seed ^ 0x6d30_6465)),
        }
    }

    /// Build the per-trainer worker states in trainer order.
    fn build_trainer_states(&self) -> Vec<TrainerState> {
        let cfg = &self.cfg;
        let cost = &cfg.cost;
        let num_global = self.dataset.num_nodes();
        let total_steps = cfg.epochs * self.steps_per_epoch();
        self.trainer_shards
            .iter()
            .enumerate()
            .map(|(t, (pid, seeds))| {
                let part = Arc::clone(&self.parts[*pid]);
                let recorder = cfg
                    .trace
                    .then(|| Arc::new(SpanRecorder::for_trainer(t as u32, *pid as u32)));
                let mut metrics = match &recorder {
                    Some(r) => CommMetrics::with_recorder(Arc::clone(r)),
                    None => CommMetrics::new(),
                };
                // Trainer rank keys the deterministic request ids the
                // prefetcher tags its pulls with; set unconditionally —
                // it is a plain field, free when correlation is unused.
                metrics.set_trace_rank(t as u64);
                let metrics = Arc::new(metrics);
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
                let mut init = InitReport::default();
                let prefetcher = match cfg.mode {
                    Mode::Baseline => None,
                    Mode::Prefetch(pcfg) => {
                        let (mut pf, rep) = initialize_prefetcher(
                            &part,
                            pcfg,
                            num_global,
                            &self.cluster,
                            cost,
                            &metrics,
                        );
                        pf.set_pooling(cfg.pooling);
                        if let crate::config::PrefetchPolicyKind::Lookahead { depth } = pcfg.policy
                        {
                            // The planner replays the run loop's
                            // step→(epoch, batch) mapping, so it must use
                            // the *engine's* synchronized steps-per-epoch
                            // (the min shard), not this loader's own
                            // batch count.
                            pf.set_policy(Box::new(crate::policy::LookaheadPolicy::new(
                                depth,
                                loader.clone(),
                                sampler.clone(),
                                self.steps_per_epoch(),
                                cfg.epochs,
                                part.num_halo(),
                            )));
                        }
                        init = rep;
                        Some(pf)
                    }
                };
                let pipeline = match cfg.mode {
                    Mode::Prefetch(pcfg) => {
                        Some(PipelineClock::new(pcfg.lookahead, init.total_s()))
                    }
                    Mode::Baseline => None,
                };
                TrainerState {
                    part,
                    pipeline,
                    loader,
                    sampler,
                    prefetcher,
                    metrics,
                    recorder,
                    clock: SimClock::new(),
                    hits: {
                        let mut h = HitRateTracker::new();
                        h.reserve(total_steps);
                        h
                    },
                    breakdown: Breakdown::default(),
                    init,
                    model: if cfg.train_math {
                        Some(self.make_model())
                    } else {
                        None
                    },
                    opt: Box::new(Sgd::new(0.05)),
                    pending: None,
                    halo_frac_sum: 0.0,
                    peak_step_bytes: 0,
                    params_scratch: Vec::new(),
                    prep_scratch: crate::prefetcher::PrepareScratch::default(),
                    carcass: None,
                }
            })
            .collect()
    }

    /// Run the configured mode end to end. With [`EngineConfig::parallel`]
    /// set, every trainer gets its own OS thread (plus a prepare thread in
    /// prefetch mode) and the run report is bitwise-identical to the
    /// sequential engine's; otherwise the trainers are stepped round-robin
    /// on the calling thread.
    ///
    /// `parallel` is adaptive: on a host without real parallelism
    /// (one core and no `MGNN_THREADS` override), spawning trainer
    /// threads only adds scheduling overhead, so the engine falls back to
    /// the sequential stepper — legal precisely because the two paths are
    /// bitwise-identical. Setting `MGNN_THREADS` forces the threaded path
    /// (the determinism CI matrix relies on this).
    pub fn run(&self) -> RunReport {
        // Arm the live-telemetry registry for this run. `enable` resets
        // every metric, so scraped totals are attributable to the run
        // that armed them; the registry stays enabled after the run so a
        // final snapshot (`--metrics-out`) sees the totals.
        if self.cfg.telemetry {
            registry::enable();
        }
        if self.cfg.parallel && real_parallelism_available() {
            self.run_parallel()
        } else {
            self.run_sequential()
        }
    }

    fn run_sequential(&self) -> RunReport {
        let cfg = &self.cfg;
        let world = self.world();
        let steps_per_epoch = self.steps_per_epoch();
        let cost = &cfg.cost;
        let mut trainers = self.build_trainer_states();

        // A shape-only model for MAC estimation when math is off.
        let shape_model = self.make_model();
        let ctx = StepCtx {
            cfg,
            cost,
            world,
            param_bytes: shape_model.num_params() * 4,
        };

        // Prefetch mode: prepare the first minibatch (Eq. 4's serial
        // term is accounted by the pipeline clock when the batch is
        // consumed).
        if matches!(cfg.mode, Mode::Prefetch(_)) && steps_per_epoch > 0 && cfg.epochs > 0 {
            for ts in trainers.iter_mut() {
                let seeds = ts.loader.epoch(0)[0].clone();
                let pf = ts.prefetcher.as_mut().unwrap();
                let batch = pf.prepare(
                    &ts.part,
                    &ts.sampler,
                    &seeds,
                    0,
                    0,
                    &self.cluster,
                    cost,
                    &ts.metrics,
                );
                ts.account_prepared(&batch, false);
                ts.pending = Some(batch);
            }
        }

        let mut epoch_loss = Vec::new();
        let mut epoch_acc = Vec::new();
        let total_steps = cfg.epochs * steps_per_epoch;

        // One gradient arena for the whole run: per-trainer padded slots
        // plus the shared average, reduced with the same chunked ring
        // arithmetic the threaded engine uses.
        let mut exchange = cfg
            .train_math
            .then(|| GradExchange::new(world, shape_model.num_params()));

        let mut global_step = 0u64;
        for epoch in 0..cfg.epochs as u64 {
            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut stat_count = 0usize;
            for step in 0..steps_per_epoch as u64 {
                #[cfg(feature = "alloc-count")]
                let hot_start = (
                    crate::alloc::thread_allocs(),
                    crate::alloc::thread_excluded(),
                );
                // Each trainer: obtain current batch, compute training
                // time, prepare next batch (prefetch) or account serially
                // (baseline).
                for ts in trainers.iter_mut() {
                    let batch = match cfg.mode {
                        Mode::Baseline => {
                            if !cfg.pooling {
                                ts.prep_scratch = crate::prefetcher::PrepareScratch::default();
                            }
                            let b = {
                                #[cfg(feature = "alloc-count")]
                                let _workload = crate::alloc::ExcludeGuard::new();
                                let seeds = ts.loader.epoch(epoch)[step as usize].clone();
                                crate::prefetcher::baseline_prepare_reuse(
                                    ts.carcass.take(),
                                    &mut ts.prep_scratch,
                                    &ts.part,
                                    &ts.sampler,
                                    &seeds,
                                    epoch,
                                    global_step,
                                    &self.cluster,
                                    cost,
                                    &ts.metrics,
                                )
                            };
                            ts.account_prepared(&b, true);
                            b
                        }
                        Mode::Prefetch(_) => ts.pending.take().expect("queue empty"),
                    };
                    if let Some(stats) =
                        ts.train_on(&batch, shape_model.as_ref(), &ctx, global_step)
                    {
                        loss_sum += stats.loss as f64;
                        acc_sum += stats.accuracy;
                        stat_count += 1;
                    }

                    match cfg.mode {
                        // Baseline: the consumed batch becomes the next
                        // inline prepare's carcass.
                        Mode::Baseline => {
                            if cfg.pooling {
                                ts.carcass = Some(batch);
                            }
                        }
                        // Prefetch: prepare the next minibatch (the
                        // threaded engine runs this on a real prepare
                        // thread; here it interleaves with training and
                        // the overlap is modeled by the pipeline clock),
                        // dismantling the just-consumed batch.
                        Mode::Prefetch(_) => {
                            let next_global = global_step + 1;
                            if (next_global as usize) < total_steps {
                                let (nepoch, nstep) = (
                                    next_global / steps_per_epoch as u64,
                                    next_global % steps_per_epoch as u64,
                                );
                                let pf = ts.prefetcher.as_mut().unwrap();
                                let next = {
                                    #[cfg(feature = "alloc-count")]
                                    let _workload = crate::alloc::ExcludeGuard::new();
                                    let seeds = ts.loader.epoch(nepoch)[nstep as usize].clone();
                                    pf.prepare_reuse(
                                        cfg.pooling.then_some(batch),
                                        &ts.part,
                                        &ts.sampler,
                                        &seeds,
                                        nepoch,
                                        next_global,
                                        &self.cluster,
                                        cost,
                                        &ts.metrics,
                                    )
                                };
                                ts.account_prepared(&next, false);
                                ts.pending = Some(next);
                            }
                        }
                    }
                }

                // DDP synchronization (real math only): write every
                // trainer's gradients into its arena slot, reduce the
                // shared average chunk by chunk, and step every optimizer
                // with it — the allgather's "all ranks end bitwise
                // identical" property makes the shared copy exact.
                if let Some(ex) = exchange.as_mut() {
                    let avg = ex.reduce_all(|t, slot| {
                        trainers[t].model.as_ref().unwrap().write_grads(slot)
                    });
                    for ts in trainers.iter_mut() {
                        ts.apply_averaged_grads(avg);
                    }
                }
                #[cfg(feature = "alloc-count")]
                if epoch >= 1 {
                    let hot = (crate::alloc::thread_allocs() - hot_start.0)
                        - (crate::alloc::thread_excluded() - hot_start.1);
                    crate::alloc::record_hot_step(hot);
                }
                global_step += 1;
            }
            if cfg.train_math && stat_count > 0 {
                epoch_loss.push((loss_sum / stat_count as f64) as f32);
                epoch_acc.push(acc_sum / stat_count as f64);
            }
        }
        // Hot-step counts stay in the calling thread's accumulators
        // (`alloc::take_hot`); callers that want process-wide totals call
        // `alloc::flush_hot` themselves. The threaded engine's workers
        // flush as they exit because their TLS dies with them.

        self.finalize(trainers, total_steps, epoch_loss, epoch_acc)
    }

    /// Threaded engine: one worker thread per trainer (plus one prepare
    /// thread per trainer in prefetch mode, via [`PrefetchPipeline`]).
    /// With `train_math`, workers exchange gradients through a lock-free
    /// [`GradExchange`] arena: write own padded slot → barrier → reduce
    /// own ring chunk of the shared average → barrier → apply. The chunk
    /// arithmetic is exactly the sequential engine's (and the old leader
    /// ring-allreduce's), so reports stay bitwise identical.
    fn run_parallel(&self) -> RunReport {
        let cfg = &self.cfg;
        let world = self.world();
        let steps_per_epoch = self.steps_per_epoch();
        let total_steps = cfg.epochs * steps_per_epoch;
        let trainers = self.build_trainer_states();
        let num_params = self.make_model().num_params();
        let ctx = StepCtx {
            cfg,
            cost: &cfg.cost,
            world,
            param_bytes: num_params * 4,
        };

        // One cache-line-aligned gradient slot per trainer plus the
        // shared average, allocated once for the whole run.
        let exchange = cfg.train_math.then(|| GradExchange::new(world, num_params));
        let barrier = Barrier::new(world);

        let mut results: Vec<(TrainerState, Vec<StepStats>)> = Vec::with_capacity(world);
        std::thread::scope(|s| {
            let handles: Vec<_> = trainers
                .into_iter()
                .enumerate()
                .map(|(t, mut ts)| {
                    let ctx = &ctx;
                    let barrier = &barrier;
                    let exchange = &exchange;
                    s.spawn(move || {
                        let shape_model = self.make_model();
                        let mut stats_log: Vec<StepStats> = Vec::with_capacity(total_steps);
                        // Prefetch mode: hand the prefetcher to a dedicated
                        // prepare thread walking the engine's epoch/step
                        // schedule; this worker consumes its bounded queue.
                        let feed = ts.prefetcher.take().map(|pf| {
                            PrefetchPipeline::spawn(
                                pf,
                                Arc::clone(&ts.part),
                                ts.sampler.clone(),
                                ts.loader.clone(),
                                Arc::clone(&self.cluster),
                                cfg.cost.clone(),
                                Arc::clone(&ts.metrics),
                                cfg.epochs,
                                steps_per_epoch,
                            )
                        });
                        let mut global_step = 0u64;
                        for epoch in 0..cfg.epochs as u64 {
                            for step in 0..steps_per_epoch as u64 {
                                #[cfg(feature = "alloc-count")]
                                let hot_start = (
                                    crate::alloc::thread_allocs(),
                                    crate::alloc::thread_excluded(),
                                );
                                let batch = if let Some(feed) = &feed {
                                    let b = feed.next().expect("prepare thread ended early");
                                    ts.account_prepared(&b, false);
                                    b
                                } else {
                                    if !cfg.pooling {
                                        ts.prep_scratch =
                                            crate::prefetcher::PrepareScratch::default();
                                    }
                                    let b = {
                                        #[cfg(feature = "alloc-count")]
                                        let _workload = crate::alloc::ExcludeGuard::new();
                                        let seeds = ts.loader.epoch(epoch)[step as usize].clone();
                                        crate::prefetcher::baseline_prepare_reuse(
                                            ts.carcass.take(),
                                            &mut ts.prep_scratch,
                                            &ts.part,
                                            &ts.sampler,
                                            &seeds,
                                            epoch,
                                            global_step,
                                            &self.cluster,
                                            ctx.cost,
                                            &ts.metrics,
                                        )
                                    };
                                    ts.account_prepared(&b, true);
                                    b
                                };
                                if let Some(stats) =
                                    ts.train_on(&batch, shape_model.as_ref(), ctx, global_step)
                                {
                                    stats_log.push(stats);
                                }
                                // Return the consumed batch's buffers: to the
                                // prepare thread in prefetch mode, or as the
                                // next inline prepare's carcass in baseline.
                                if cfg.pooling {
                                    match &feed {
                                        Some(feed) => feed.recycle(batch),
                                        None => ts.carcass = Some(batch),
                                    }
                                }
                                if let Some(ex) = exchange {
                                    // Phase 1: publish own gradients. Slots
                                    // are disjoint, so no lock is needed.
                                    {
                                        let m = ts.model.as_ref().unwrap();
                                        // SAFETY: only thread `t` touches
                                        // slot `t`, and no thread reads any
                                        // slot until the barrier below.
                                        m.write_grads(unsafe { ex.slot_mut(t) });
                                    }
                                    barrier.wait();
                                    // Phase 2: reduce own ring chunk of the
                                    // shared average from the (now frozen)
                                    // slots.
                                    {
                                        // SAFETY: avg chunks are disjoint
                                        // per thread; slots are only read
                                        // between the two barriers.
                                        let dst = unsafe { ex.avg_chunk_mut(t) };
                                        mgnn_model::reduce_ring_chunk_average_with(
                                            t,
                                            world,
                                            ex.len(),
                                            |r| unsafe { ex.slot(r) },
                                            dst,
                                        );
                                    }
                                    barrier.wait();
                                    // Phase 3: everyone reads the shared
                                    // average (writes resume only after the
                                    // next step's phase-1 barrier).
                                    ts.apply_averaged_grads(unsafe { ex.avg() });
                                }
                                #[cfg(feature = "alloc-count")]
                                if epoch >= 1 {
                                    let hot = (crate::alloc::thread_allocs() - hot_start.0)
                                        - (crate::alloc::thread_excluded() - hot_start.1);
                                    crate::alloc::record_hot_step(hot);
                                }
                                global_step += 1;
                            }
                        }
                        // Recover the prefetcher (buffer + scoreboards) for
                        // the memory accounting in the report.
                        if let Some(feed) = feed {
                            ts.prefetcher = Some(feed.join());
                        }
                        #[cfg(feature = "alloc-count")]
                        crate::alloc::flush_hot();
                        (ts, stats_log)
                    })
                })
                .collect();
            // Join in trainer order so reports keep their indices.
            results = handles
                .into_iter()
                .map(|h| h.join().expect("trainer thread panicked"))
                .collect();
        });

        let (trainers, stats): (Vec<TrainerState>, Vec<Vec<StepStats>>) =
            results.into_iter().unzip();

        // Fold epoch statistics in the sequential engine's exact order
        // (step-major, trainer-minor) so the f64 sums are bitwise equal.
        let mut epoch_loss = Vec::new();
        let mut epoch_acc = Vec::new();
        if cfg.train_math {
            for epoch in 0..cfg.epochs {
                let mut loss_sum = 0.0f64;
                let mut acc_sum = 0.0f64;
                let mut stat_count = 0usize;
                for step in 0..steps_per_epoch {
                    let g = epoch * steps_per_epoch + step;
                    for per_trainer in &stats {
                        let st = per_trainer[g];
                        loss_sum += st.loss as f64;
                        acc_sum += st.accuracy;
                        stat_count += 1;
                    }
                }
                if stat_count > 0 {
                    epoch_loss.push((loss_sum / stat_count as f64) as f32);
                    epoch_acc.push(acc_sum / stat_count as f64);
                }
            }
        }
        self.finalize(trainers, total_steps, epoch_loss, epoch_acc)
    }

    /// Assemble the [`RunReport`] from finished trainer states (shared by
    /// both execution paths).
    fn finalize(
        &self,
        trainers: Vec<TrainerState>,
        total_steps: usize,
        epoch_loss: Vec<f32>,
        epoch_acc: Vec<f64>,
    ) -> RunReport {
        let cfg = &self.cfg;
        let traces: Vec<TrainerTrace> = trainers
            .iter()
            .filter_map(|ts| ts.recorder.as_ref().map(|r| r.snapshot()))
            .collect();
        let final_params = if cfg.train_math && !trainers.is_empty() {
            let m = trainers[0].model.as_ref().unwrap();
            let mut p = vec![0.0f32; m.num_params()];
            m.write_params(&mut p);
            p
        } else {
            Vec::new()
        };

        let reports: Vec<TrainerReport> = trainers
            .into_iter()
            .enumerate()
            .map(|(t, ts)| {
                let minibatches = total_steps as u64;
                let persistent = ts
                    .prefetcher
                    .as_ref()
                    .map(|p| p.heap_bytes() + p.peak_transient_bytes())
                    .unwrap_or(0);
                let (sim_time_s, stall_s, overlap_efficiency) = match &ts.pipeline {
                    Some(p) => (p.now(), p.stall(), p.overlap_efficiency()),
                    None => (
                        ts.clock.now(),
                        ts.clock.stall(),
                        ts.clock.overlap_efficiency(),
                    ),
                };
                TrainerReport {
                    part_id: ts.part.part_id,
                    trainer_id: (t % cfg.trainers_per_part) as u32,
                    sim_time_s,
                    stall_s,
                    overlap_efficiency,
                    metrics: ts.metrics.snapshot(),
                    remote_sampled_frac: if minibatches == 0 {
                        0.0
                    } else {
                        ts.halo_frac_sum / ts.hits.len().max(1) as f64
                    },
                    hits: ts.hits,
                    breakdown: ts.breakdown,
                    init: ts.init,
                    num_halo: ts.part.num_halo(),
                    minibatches,
                    peak_bytes: persistent + ts.peak_step_bytes,
                }
            })
            .collect();

        let makespan = reports.iter().map(|r| r.sim_time_s).fold(0.0f64, f64::max);

        let report = RunReport {
            mode_label: cfg.mode.label(),
            trainers: reports,
            makespan_s: makespan,
            steps_per_epoch: self.steps_per_epoch(),
            world: self.world(),
            epoch_loss,
            epoch_acc,
            final_params,
            traces,
        };
        // Final telemetry gauges: run-level summaries a mid-run scrape
        // can't derive from counters alone.
        if cfg.telemetry && registry::enabled() {
            registry::HIT_RATE.set(report.hit_rate());
            registry::MAKESPAN.set(report.makespan_s);
            registry::WORLD.set(report.world as f64);
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
    /// ground-truth features gathered straight from the KVStores.
    /// Returns accuracy in `[0, 1]`.
    pub fn evaluate(&self, params: &[f32]) -> f64 {
        let mut model = self.make_model();
        assert_eq!(params.len(), model.num_params(), "parameter shape mismatch");
        model.read_params(params);
        let sampler = NeighborSampler::new(self.cfg.fanouts.clone(), self.cfg.seed ^ 0xe5a1);
        let mut correct = 0usize;
        let mut total = 0usize;
        for part in &self.parts {
            // Validation nodes owned by this partition.
            let val: Vec<u32> = self
                .dataset
                .val_nodes
                .iter()
                .filter_map(|&g| {
                    part.local_id(g)
                        .filter(|&l| (l as usize) < part.num_local())
                })
                .collect();
            let store = self.cluster.store(part.part_id);
            for chunk in val.chunks(self.cfg.batch_size.max(1)) {
                let mb = sampler.sample(part, chunk, 0, 0);
                let dim = self.cluster.dim();
                let mut input = Vec::with_capacity(mb.input_nodes.len() * dim);
                for &lid in &mb.input_nodes {
                    let gid = part.global_id(lid);
                    let owner = self.cluster.owner(gid);
                    input.extend_from_slice(self.cluster.store(owner).row(gid));
                }
                let input = mgnn_tensor::Tensor::from_vec(mb.input_nodes.len(), dim, input);
                let logits = model.forward(&mb.blocks, &input);
                let labels: Vec<u32> = mb
                    .seeds
                    .iter()
                    .map(|&l| store.label(part.local_nodes[l as usize]))
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
    use crate::config::{PrefetchPolicyKind, ScoreLayout};

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
            lookahead: 1,
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
            lookahead: 1,
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
    fn deeper_lookahead_never_hurts() {
        let mut cfg = base_cfg();
        cfg.epochs = 4;
        let mut times = Vec::new();
        let mut stalls = Vec::new();
        for lookahead in [1usize, 4] {
            cfg.mode = Mode::Prefetch(PrefetchConfig {
                f_h: 0.25,
                gamma: 0.95,
                delta: 4,
                lookahead,
                ..Default::default()
            });
            cfg.backend = Backend::Gpu;
            let r = Engine::build(cfg.clone()).run();
            times.push(r.makespan_s);
            stalls.push(r.trainers.iter().map(|t| t.stall_s).sum::<f64>());
        }
        assert!(
            times[1] <= times[0] * 1.0001,
            "deeper queue slower: {times:?}"
        );
        assert!(
            stalls[1] <= stalls[0] + 1e-9,
            "deeper queue stalls more: {stalls:?}"
        );
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

    /// The PR's headline claim, proven by the counting allocator: once
    /// the warmup epoch has stretched every pooled buffer to its
    /// high-water mark, steady-state steps allocate *nothing* in the
    /// trainer hot loop (preparation and model math are excluded as
    /// workload; see `alloc`).
    #[cfg(feature = "alloc-count")]
    #[test]
    fn steady_state_steps_allocate_nothing() {
        for prefetch in [false, true] {
            let mut cfg = base_cfg();
            cfg.train_math = true;
            cfg.epochs = 3;
            if prefetch {
                cfg.mode = prefetch_mode();
            }
            let engine = Engine::build(cfg);
            let steps_per_epoch = engine.steps_per_epoch();
            crate::alloc::take_hot(); // discard anything a previous run left
            let report = engine.run();
            assert!(!report.final_params.is_empty());
            let (hot_allocs, hot_steps) = crate::alloc::take_hot();
            // Sequential engine records on this thread: epochs 1..3.
            assert_eq!(hot_steps, (2 * steps_per_epoch) as u64);
            assert_eq!(
                hot_allocs, 0,
                "steady-state trainer loop must not allocate \
                 ({hot_allocs} allocations over {hot_steps} steps, prefetch={prefetch})"
            );
        }
    }

    #[test]
    fn breakdown_total_serial_sums_all_components() {
        let b = Breakdown {
            sampling_s: 1.0,
            lookup_s: 2.0,
            scoring_s: 4.0,
            evict_s: 8.0,
            rpc_s: 16.0,
            copy_s: 32.0,
            train_s: 64.0,
            planned_s: 128.0,
        };
        assert_eq!(b.total_serial(), 255.0);
        assert_eq!(Breakdown::default().total_serial(), 0.0);
    }

    #[test]
    fn communication_stall_clamps_at_zero() {
        let mut b = Breakdown {
            rpc_s: 5.0,
            copy_s: 2.0,
            ..Default::default()
        };
        assert_eq!(b.communication_stall_s(), 3.0);
        // Copy dominating RPC must clamp to zero, not go negative.
        b.rpc_s = 1.0;
        b.copy_s = 4.0;
        assert_eq!(b.communication_stall_s(), 0.0);
        assert_eq!(Breakdown::default().communication_stall_s(), 0.0);
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
                let stats = trace
                    .phase(phase)
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
            // Prefetch mode: per-step pipeline stalls sum to the trainer's
            // reported stall. (Baseline's series carries the §V-B5
            // communication stall instead — checked separately.)
            if report.mode_label != "DistDGL" {
                let stall: f64 = trace.series.iter().map(|p| p.stall_s).sum();
                assert!(
                    (stall - trainer.stall_s).abs() < 1e-9,
                    "series stall {stall} vs report {}",
                    trainer.stall_s
                );
            }
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
        // Baseline telemetry: zero overlap, per-step stall = §V-B5
        // communication stall.
        for (trainer, trace) in report.trainers.iter().zip(&report.traces) {
            assert!(trace.series.iter().all(|p| p.overlap_efficiency == 0.0));
            let stall: f64 = trace.series.iter().map(|p| p.stall_s).sum();
            assert!(
                (stall - trainer.breakdown.communication_stall_s()).abs() < 1e-9,
                "per-step stalls should sum to the aggregate §V-B5 stall"
            );
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

    /// Retry policy whose timeout is far beyond any healthy reply, so a
    /// loaded test machine can never produce a spurious timeout.
    fn generous_retry() -> RetryPolicy {
        RetryPolicy {
            timeout: std::time::Duration::from_secs(120),
            ..RetryPolicy::default()
        }
    }

    /// The faults-disabled identity oracle: arming the chaos machinery
    /// with an all-zero profile must leave every report field bitwise
    /// unchanged against a `fault: None` run — timeouts, Result plumbing
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
                cfg.retry = generous_retry();
                let armed = Engine::build(cfg).run();
                assert!(!armed.aggregate_metrics().had_faults());
                assert_reports_identical(&plain, &armed);
            }
        }
    }

    /// A server crash mid-run is fully absorbed: the cluster respawns it
    /// from the resident KvStore, retries return the exact bytes, and
    /// training is bitwise-unaffected — only simulated time pays.
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
        cfg.retry = generous_retry();
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
        cfg.retry = RetryPolicy {
            timeout: std::time::Duration::from_millis(500),
            ..RetryPolicy::default()
        };
        let a = Engine::build(cfg.clone()).run();
        let b = Engine::build(cfg).run();
        assert!(
            a.aggregate_metrics().had_faults(),
            "chaos mix fired nothing"
        );
        assert_reports_identical(&a, &b);
    }

    /// Fault lane reconciliation: with delay-only chaos the data path is
    /// untouched (identical counts), the extra rpc time equals the fault
    /// spans exactly, and every fault span lands on the fault lane.
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
        cfg.retry = generous_retry();
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
            let f = trace.phase(Phase::Fault).expect("fault spans recorded");
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
            for ev in trace.events.iter().filter(|e| e.phase == Phase::Fault) {
                assert_eq!(ev.lane, Lane::Fault);
            }
        }
    }
}
