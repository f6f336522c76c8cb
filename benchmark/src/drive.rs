//! The layer drive: trainer 0 of partition 0 replayed from public calls
//! only, with a span around every call into a layer.
//!
//! Each step is driven twice. The `step` root runs what the engine runs
//! (`prepare`, then with real math `train`, `allreduce`, `optim`). Before
//! it, an `isolated` root re-executes on that step's own inputs the pieces
//! `prepare` hides (sampling, buffer probe, S_A increment, top-k scan, the
//! grouped pull and the bare KVStore gather), which is what makes the
//! prefetcher's self time computable from outside. On workloads with real
//! math a second `isolated` root times the tensor kernels at the step's
//! layer-1 shapes.
//!
//! The numbers are a single-trainer replay, not a probe inside the
//! engine: there is no second trainer contending for the servers and no
//! barrier. For the sequential workloads the other trainers' `prepare` is
//! replayed afterwards (`peer_step`, no isolated pieces), because what a
//! sequential engine step costs is the sum over trainers.

use crate::trace::{SpanId, Tracer, SETUP_STEP};
use massivegnn::init::initialize_prefetcher;
use massivegnn::pipeline::PrefetchPipeline;
use massivegnn::prefetcher::baseline_prepare_reuse;
use massivegnn::scoreboard::AccessScores;
use massivegnn::{
    EngineConfig, LookaheadPolicy, Mode, PrefetchPolicyKind, Prefetcher, PrepareScratch,
    PreparedBatch,
};
use mgnn_graph::{Dataset, NodeId};
use mgnn_model::train::forward_backward;
use mgnn_model::{
    ring_allreduce_average, GatModel, GcnModel, Model, ModelKind, Optimizer, SageModel, Sgd,
};
use mgnn_net::{CommMetrics, SimCluster};
use mgnn_partition::{
    build_local_partitions, edge_cut, halo_fraction, multilevel_partition, split_train_nodes,
    LocalPartition,
};
use mgnn_sampling::{DataLoader, NeighborSampler, SampledMinibatch, SamplerScratch};
use mgnn_tensor::sparse::SparseMatrix;
use mgnn_tensor::Tensor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

// Layer names: the repository's crates, and `massivegnn`'s modules.
pub const GRAPH: &str = "mgnn-graph";
pub const PARTITION: &str = "mgnn-partition";
pub const SAMPLING: &str = "mgnn-sampling";
pub const NET: &str = "mgnn-net";
pub const TENSOR: &str = "mgnn-tensor";
pub const MODEL: &str = "mgnn-model";
pub const BUFFER: &str = "massivegnn.buffer";
pub const SCOREBOARD: &str = "massivegnn.scoreboard";
pub const PREFETCHER: &str = "massivegnn.prefetcher";
pub const PIPELINE: &str = "massivegnn.pipeline";
pub const ENGINE: &str = "massivegnn.engine";

/// The top-k candidate scan runs inside `prepare` only every Δ-th step;
/// isolated, it is replayed this often so a 200-step drive has a dozen
/// samples of it.
const TOPK_EVERY: u64 = 16;
/// Tensor kernels and the GAT pass are replayed on every 4th step.
const KERNELS_EVERY: u64 = 4;

/// Counts read at the span boundaries, and the spans themselves.
pub struct Drive {
    pub tracer: Tracer,
    pub steps: usize,
    pub nodes: usize,
    /// Undirected edges of the generated graph.
    pub edges: usize,
    pub edge_cut_frac: f64,
    pub halo_frac: f64,
    /// Mean sampled edges per driven step.
    pub edges_per_step: f64,
    /// Mean multiply-accumulates the model charges per step
    /// (`Model::macs` on the step's blocks).
    pub macs_per_step: f64,
    /// `Prefetcher::heap_bytes` at the end of the drive (0 in baseline).
    pub heap_bytes: usize,
    /// Rows returned by, and milliseconds spent in, the isolated pulls.
    pub pull_rows: u64,
    pub pull_ms: f64,
    /// Floating-point operations of one isolated `matmul` (mean).
    pub matmul_flops: f64,
    pub spmm_nnz: f64,
    /// `PrefetchPipeline` drained by a no-op consumer (0 in baseline).
    pub batches_per_s: f64,
    /// Per step: `prepare` minus the isolated sample+probe+increment+pull.
    pub prepare_self_ms: Vec<f64>,
    /// Median `prepare` of each other trainer (sequential workloads).
    pub peer_step_ms: Vec<f64>,
}

/// Same construction as the engine's private `make_model`.
fn make_model(kind: ModelKind, dims: &[usize], heads: usize, seed: u64) -> Box<dyn Model> {
    let seed = seed ^ 0x6d30_6465;
    match kind {
        ModelKind::Sage => Box::new(SageModel::new(dims, seed)),
        ModelKind::Gat => Box::new(GatModel::new(dims, heads, seed)),
        ModelKind::Gcn => Box::new(GcnModel::new(dims, seed)),
    }
}

/// Trainer 0's prefetcher, with the policy the config names.
fn make_prefetcher(
    cfg: &EngineConfig,
    world: &World,
    steps_per_epoch: usize,
    epochs: usize,
) -> Option<Prefetcher> {
    let Mode::Prefetch(pcfg) = cfg.mode else {
        return None;
    };
    let (mut pf, _) = initialize_prefetcher(
        &world.part,
        pcfg,
        world.nodes,
        &world.cluster,
        &cfg.cost,
        &world.metrics,
    );
    pf.set_pooling(cfg.pooling);
    if let PrefetchPolicyKind::Lookahead { depth } = pcfg.policy {
        pf.set_policy(Box::new(LookaheadPolicy::new(
            depth,
            world.loader.clone(),
            world.sampler.clone(),
            steps_per_epoch,
            epochs,
            world.part.num_halo(),
        )));
    }
    Some(pf)
}

/// Everything set-up produces that the step loop reads.
struct World {
    nodes: usize,
    part: Arc<LocalPartition>,
    cluster: Arc<SimCluster>,
    loader: DataLoader,
    sampler: NeighborSampler,
    metrics: Arc<CommMetrics>,
}

/// Trainer `rank`'s shard, loader and sampler, seeded exactly as
/// `Engine::build` and the engine's trainer construction seed them.
fn trainer_world(
    cfg: &EngineConfig,
    nodes: usize,
    parts: &[Arc<LocalPartition>],
    cluster: &Arc<SimCluster>,
    rank: usize,
) -> World {
    let pid = rank / cfg.trainers_per_part;
    let part = Arc::clone(&parts[pid]);
    let shard = split_train_nodes(
        &part.train_nodes,
        cfg.trainers_per_part,
        cfg.seed ^ (pid as u64).wrapping_mul(0x9e37),
    )
    .swap_remove(rank % cfg.trainers_per_part)
    .into_iter()
    .map(|g| part.local_id(g).expect("train node not in partition"))
    .collect();
    let r = rank as u64;
    World {
        nodes,
        part,
        cluster: Arc::clone(cluster),
        loader: DataLoader::new(
            shard,
            cfg.batch_size,
            cfg.seed ^ r.wrapping_mul(0x517c_c1b7_2722_0a95),
        ),
        sampler: NeighborSampler::with_strategy(
            cfg.fanouts.clone(),
            cfg.sampling,
            cfg.seed ^ r.wrapping_mul(0xda94_2042_e4dd_58b5),
        ),
        metrics: Arc::new(CommMetrics::new()),
    }
}

/// One preparation, the way the engine's stepper calls it: through the
/// prefetcher in prefetch mode, inline in baseline mode, recycling the
/// previous batch.
#[allow(clippy::too_many_arguments)]
fn prepare_step(
    cfg: &EngineConfig,
    world: &World,
    prefetcher: Option<&mut Prefetcher>,
    base_scratch: &mut PrepareScratch,
    carcass: Option<PreparedBatch>,
    seeds: &[u32],
    epoch: u64,
    g: u64,
) -> PreparedBatch {
    match prefetcher {
        Some(pf) => pf.prepare_reuse(
            carcass,
            &world.part,
            &world.sampler,
            seeds,
            epoch,
            g,
            &world.cluster,
            &cfg.cost,
            &world.metrics,
        ),
        None => baseline_prepare_reuse(
            carcass,
            base_scratch,
            &world.part,
            &world.sampler,
            seeds,
            epoch,
            g,
            &world.cluster,
            &cfg.cost,
            &world.metrics,
        ),
    }
}

/// Every other trainer's `prepare`, without the isolated replays: what
/// one sequential engine step costs is the sum over trainers, and they
/// are far from alike (on `papers-pipeline` two partitions hold nearly
/// all the sampled edges). Returns each peer's median step, in ms.
fn peer_steps(
    cfg: &EngineConfig,
    tr: &mut Tracer,
    nodes: usize,
    parts: &[Arc<LocalPartition>],
    cluster: &Arc<SimCluster>,
    min_steps: usize,
) -> Vec<f64> {
    let ranks = cfg.num_parts * cfg.trainers_per_part;
    (1..ranks)
        .map(|rank| {
            let world = trainer_world(cfg, nodes, parts, cluster, rank);
            let steps_per_epoch = world.loader.batches_per_epoch().max(1);
            let epochs = min_steps.div_ceil(steps_per_epoch).max(1);
            let mut prefetcher = make_prefetcher(cfg, &world, steps_per_epoch, epochs);
            let mut base_scratch = PrepareScratch::default();
            let mut carcass = None;
            let mut ms = Vec::new();
            for epoch in 0..epochs as u64 {
                let plan = world.loader.epoch(epoch);
                for (i, seeds) in plan.iter().take(steps_per_epoch).enumerate() {
                    let g = epoch * steps_per_epoch as u64 + i as u64;
                    let (batch, step_ms) = tr.time("peer_step", ENGINE, g as i64, None, || {
                        prepare_step(
                            cfg,
                            &world,
                            prefetcher.as_mut(),
                            &mut base_scratch,
                            carcass.take(),
                            seeds,
                            epoch,
                            g,
                        )
                    });
                    ms.push(step_ms);
                    carcass = Some(batch);
                }
            }
            crate::stats::median(&ms)
        })
        .collect()
}

/// Scratch of the isolated replays (the prefetcher's own is private).
#[derive(Default)]
struct Iso {
    mb: SampledMinibatch,
    samp: SamplerScratch,
    local_ids: Vec<u32>,
    halo_ids: Vec<u32>,
    halo_idx: Vec<u32>,
    hits: Vec<u32>,
    misses: Vec<u32>,
    fetch: Vec<NodeId>,
    seen: Vec<u64>,
    stamp: u64,
    /// Stand-in S_A of the prefetcher's layout and size: the increments
    /// are replayed on it, so the prefetcher's own board is never touched.
    scores: Option<AccessScores>,
    /// Rows returned by, and milliseconds spent in, the isolated pulls.
    pull_rows: u64,
    pull_ms: f64,
}

/// Replay at least `min_steps` steps (whole epochs) of trainer 0.
pub fn drive(cfg: &EngineConfig, min_steps: usize) -> Drive {
    let mut tr = Tracer::new();
    // Set-up, one span per call `Engine::build` makes.
    let setup = tr.open("setup", ENGINE, SETUP_STEP, None);
    let at = |tr: &mut Tracer, name, layer| tr.open(name, layer, SETUP_STEP, Some(setup));
    let s = at(&mut tr, "generate", GRAPH);
    let dataset = Dataset::generate(cfg.dataset, cfg.scale, cfg.seed);
    tr.close(s);
    let s = at(&mut tr, "multilevel_partition", PARTITION);
    let partitioning = multilevel_partition(&dataset.graph, cfg.num_parts, cfg.seed);
    tr.close(s);
    let s = at(&mut tr, "build_local_partitions", PARTITION);
    let parts = build_local_partitions(&dataset.graph, &partitioning, &dataset.train_nodes);
    tr.close(s);
    let s = at(&mut tr, "cluster_spawn", NET);
    let cluster = Arc::new(SimCluster::with_faults(
        &dataset.features,
        &partitioning.assignment,
        cfg.num_parts,
        cfg.fault.clone(),
        cfg.retry.clone(),
    ));
    tr.close(s);

    let edges = dataset.graph.num_edges() / 2;
    let edge_cut_frac = edge_cut(&dataset.graph, &partitioning) as f64 / edges.max(1) as f64;
    let halo_frac = parts.iter().map(halo_fraction).sum::<f64>() / parts.len() as f64;

    let nodes = dataset.num_nodes();
    let parts: Vec<Arc<LocalPartition>> = parts.into_iter().map(Arc::new).collect();
    let world = trainer_world(cfg, nodes, &parts, &cluster, 0);
    let steps_per_epoch = world.loader.batches_per_epoch().max(1);
    let epochs = min_steps.div_ceil(steps_per_epoch).max(1);

    let s = at(&mut tr, "initialize_prefetcher", PREFETCHER);
    let mut prefetcher = make_prefetcher(cfg, &world, steps_per_epoch, epochs);
    tr.close(s);
    tr.close(setup);

    let dims = [
        dataset.features.dim(),
        cfg.hidden_dim,
        dataset.features.num_classes(),
    ];
    let ranks = cfg.num_parts * cfg.trainers_per_part;
    let mut math = cfg.train_math.then(|| Math::new(cfg, &dims, ranks));

    let part = &world.part;
    let mut iso = Iso {
        seen: vec![0; part.num_halo()],
        scores: match cfg.mode {
            Mode::Prefetch(p) if p.policy == PrefetchPolicyKind::Scoreboard => {
                Some(AccessScores::new(p.layout, world.nodes, part.num_halo()))
            }
            _ => None,
        },
        ..Iso::default()
    };
    let mut base_scratch = PrepareScratch::default();
    let mut carcass: Option<PreparedBatch> = None;
    let mut prepare_self_ms = Vec::new();
    let mut edges_sum = 0usize;
    let mut macs_sum = 0.0f64;
    // Shape-only replica: the engine charges `Model::macs` per step
    // whether or not the math runs.
    let shape_model = make_model(cfg.model, &dims, cfg.gat_heads, cfg.seed);
    let steps = epochs * steps_per_epoch;

    for epoch in 0..epochs as u64 {
        let first = (epoch * steps_per_epoch as u64) as i64;
        // A memo miss: the loader shuffles and chunks the epoch here.
        let (plan, _) = tr.time("epoch_plan", SAMPLING, first, None, || {
            world.loader.epoch(epoch)
        });
        for (i, seeds) in plan.iter().take(steps_per_epoch).enumerate() {
            let g = epoch * steps_per_epoch as u64 + i as u64;
            let step = g as i64;

            // The hidden pieces, on this step's inputs and the buffer
            // state `prepare` is about to see.
            let root = tr.open("isolated", ENGINE, step, None);
            let hidden_ms = isolated_data_path(
                &mut tr,
                root,
                &world,
                seeds,
                epoch,
                g,
                prefetcher.as_ref(),
                &mut iso,
            );
            tr.close(root);

            let root = tr.open("step", ENGINE, step, None);
            let (batch, prepare_ms) = tr.time("prepare", PREFETCHER, step, Some(root), || {
                prepare_step(
                    cfg,
                    &world,
                    prefetcher.as_mut(),
                    &mut base_scratch,
                    carcass.take(),
                    seeds,
                    epoch,
                    g,
                )
            });
            if let Some(m) = math.as_mut() {
                m.train_step(&mut tr, root, step, &batch);
            }
            tr.close(root);
            prepare_self_ms.push(prepare_ms - hidden_ms);
            edges_sum += batch.minibatch.total_edges();
            macs_sum += shape_model.macs(&batch.minibatch.blocks);

            if let Some(m) = math.as_mut() {
                if g.is_multiple_of(KERNELS_EVERY) {
                    let root = tr.open("isolated", ENGINE, step, None);
                    m.isolated_kernels(&mut tr, root, step, &batch);
                    tr.close(root);
                }
            }
            carcass = Some(batch);
        }
    }
    drop(carcass);
    let heap_bytes = prefetcher.as_ref().map_or(0, Prefetcher::heap_bytes);
    drop(prefetcher);

    // Only the sequential stepper runs the trainers one after another.
    let peer_step_ms = if cfg.parallel {
        Vec::new()
    } else {
        peer_steps(cfg, &mut tr, nodes, &parts, &world.cluster, min_steps)
    };

    // The real prepare thread, drained by a consumer that does nothing
    // but hand the carcass back.
    let mut batches_per_s = 0.0;
    if let Some(pf) = make_prefetcher(cfg, &world, steps_per_epoch, epochs) {
        let s = tr.open("pipeline_drain", PIPELINE, SETUP_STEP, None);
        let t0 = Instant::now();
        let pipe = PrefetchPipeline::spawn(
            pf,
            Arc::clone(&world.part),
            world.sampler.clone(),
            world.loader.clone(),
            Arc::clone(&world.cluster),
            cfg.cost.clone(),
            Arc::clone(&world.metrics),
            epochs,
            steps_per_epoch,
        );
        let mut batches = 0usize;
        while let Some(b) = pipe.next() {
            batches += 1;
            pipe.recycle(b);
        }
        drop(pipe.join());
        batches_per_s = batches as f64 / t0.elapsed().as_secs_f64();
        tr.close(s);
    }

    let rounds = math.as_ref().map_or(0, |m| m.kernel_rounds).max(1) as f64;
    Drive {
        steps,
        nodes,
        edges,
        edge_cut_frac,
        halo_frac,
        edges_per_step: edges_sum as f64 / steps as f64,
        macs_per_step: macs_sum / steps as f64,
        heap_bytes,
        pull_rows: iso.pull_rows,
        pull_ms: iso.pull_ms,
        matmul_flops: math.as_ref().map_or(0.0, |m| m.matmul_flops_sum) / rounds,
        spmm_nnz: math.as_ref().map_or(0.0, |m| m.spmm_nnz_sum) / rounds,
        batches_per_s,
        prepare_self_ms,
        peer_step_ms,
        tracer: tr,
    }
}

/// Re-execute the pieces of the data path `prepare` hides, each in its
/// own span under `root`. Returns the milliseconds of those `prepare`
/// also executes (sample + probe + increment + pull).
#[allow(clippy::too_many_arguments)]
fn isolated_data_path(
    tr: &mut Tracer,
    root: SpanId,
    world: &World,
    seeds: &[u32],
    epoch: u64,
    g: u64,
    prefetcher: Option<&Prefetcher>,
    iso: &mut Iso,
) -> f64 {
    let part = &world.part;
    let step = g as i64;
    let num_local = part.num_local();
    let halo_nodes = &part.halo_nodes;
    let mut hidden_ms = 0.0;

    let ((), ms) = tr.time("sample_into", SAMPLING, step, Some(root), || {
        world
            .sampler
            .sample_into(part, seeds, epoch, g, &mut iso.mb, &mut iso.samp)
    });
    hidden_ms += ms;
    iso.mb
        .split_local_halo_into(num_local, &mut iso.local_ids, &mut iso.halo_ids);

    iso.fetch.clear();
    match prefetcher {
        Some(pf) => {
            // Unique halo indices, as `prepare` probes them.
            iso.stamp += 1;
            iso.halo_idx.clear();
            for &lid in &iso.halo_ids {
                let h = lid - num_local as u32;
                if iso.seen[h as usize] != iso.stamp {
                    iso.seen[h as usize] = iso.stamp;
                    iso.halo_idx.push(h);
                }
            }
            let ((), ms) = tr.time("probe_batch_into", BUFFER, step, Some(root), || {
                pf.buffer
                    .probe_batch_into(&iso.halo_idx, &mut iso.hits, &mut iso.misses)
            });
            hidden_ms += ms;
            iso.fetch
                .extend(iso.misses.iter().map(|&h| halo_nodes[h as usize]));
            if let Some(scores) = iso.scores.as_mut() {
                let ((), ms) = tr.time("increment_batch", SCOREBOARD, step, Some(root), || {
                    scores.increment_batch(halo_nodes, &iso.fetch)
                });
                hidden_ms += ms;
                if g > 0 && g.is_multiple_of(TOPK_EVERY) {
                    // Not part of `hidden_ms`: `prepare` runs it only on
                    // Δ steps, where it lands in the prefetcher's p95.
                    tr.time("top_k_candidates", SCOREBOARD, step, Some(root), || {
                        let k = pf.s_e.below_threshold(pf.alpha(), &[]).len();
                        let candidates = (0..part.num_halo() as u32)
                            .filter(|&h| !pf.buffer.contains(h))
                            .map(|h| halo_nodes[h as usize]);
                        black_box(pf.s_a.top_k_candidates(halo_nodes, candidates, k, |g| {
                            part.halo_degree[halo_nodes.binary_search(&g).unwrap()]
                        }))
                    });
                }
            }
        }
        None => iso.fetch.extend(
            iso.halo_ids
                .iter()
                .map(|&lid| halo_nodes[(lid - num_local as u32) as usize]),
        ),
    }

    let ((rows, _), ms) = tr.time("pull_grouped_checked", NET, step, Some(root), || {
        world.cluster.pull_grouped_checked(&iso.fetch)
    });
    hidden_ms += ms;
    iso.pull_rows += iso.fetch.len() as u64;
    iso.pull_ms += ms;
    black_box(rows);

    // The same rows straight from the owners' stores: the gather without
    // the channel, the server thread or the reassembly.
    let mut by_owner: Vec<Vec<NodeId>> = vec![Vec::new(); world.cluster.num_parts()];
    for &gid in &iso.fetch {
        by_owner[world.cluster.owner(gid) as usize].push(gid);
    }
    tr.time("kvstore_pull", NET, step, Some(root), || {
        for (owner, ids) in by_owner.iter().enumerate() {
            black_box(
                world
                    .cluster
                    .store(owner as u32)
                    .pull(ids)
                    .expect("owner store holds its rows"),
            );
        }
    });
    hidden_ms
}

/// The real-math half of a step: model replica, optimizer, and one
/// gradient vector per rank for the ring allreduce.
struct Math {
    model: Box<dyn Model>,
    gat: Box<dyn Model>,
    opt: Box<dyn Optimizer>,
    grads: Vec<Vec<f32>>,
    params: Vec<f32>,
    /// Layer-1 weight of the isolated kernel replays.
    weight: Tensor,
    kernel_rounds: usize,
    matmul_flops_sum: f64,
    spmm_nnz_sum: f64,
}

impl Math {
    fn new(cfg: &EngineConfig, dims: &[usize], ranks: usize) -> Math {
        let model = make_model(cfg.model, dims, cfg.gat_heads, cfg.seed);
        let n = model.num_params();
        Math {
            model,
            gat: make_model(ModelKind::Gat, dims, cfg.gat_heads, cfg.seed),
            opt: Box::new(Sgd::new(0.05)),
            grads: vec![vec![0.0; n]; ranks],
            params: vec![0.0; n],
            weight: mgnn_tensor::init::xavier_uniform(dims[0], dims[1], cfg.seed),
            kernel_rounds: 0,
            matmul_flops_sum: 0.0,
            spmm_nnz_sum: 0.0,
        }
    }

    /// `train`, `allreduce` and `optim` under the step's root. Every rank
    /// contributes this replica's gradients, so the average is the
    /// gradient itself and the arithmetic is the engine's.
    fn train_step(&mut self, tr: &mut Tracer, root: SpanId, step: i64, batch: &PreparedBatch) {
        tr.time("train", MODEL, step, Some(root), || {
            forward_backward(
                self.model.as_mut(),
                &batch.minibatch.blocks,
                &batch.input,
                &batch.labels,
            )
        });
        for g in &mut self.grads {
            self.model.write_grads(g);
        }
        tr.time("allreduce", MODEL, step, Some(root), || {
            ring_allreduce_average(&mut self.grads)
        });
        self.model.write_params(&mut self.params);
        tr.time("optim", MODEL, step, Some(root), || {
            self.opt.step(&mut self.params, &self.grads[0])
        });
        self.model.read_params(&self.params);
    }

    /// The dense and sparse kernels at this step's real layer-1 shapes
    /// (`x_dst · W`, `x_dstᵀ · dY`, `dY · Wᵀ`, mean-aggregation SpMM), and
    /// the same batch through a GAT.
    fn isolated_kernels(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        step: i64,
        batch: &PreparedBatch,
    ) {
        let block = &batch.minibatch.blocks[0];
        let feat = batch.input.cols();
        assert_eq!(
            block.num_src(),
            batch.input.rows(),
            "blocks[0] is the input layer"
        );
        let x_dst = Tensor::from_vec(
            block.num_dst,
            feat,
            batch.input.data()[..block.num_dst * feat].to_vec(),
        );
        let (y, _) = tr.time("matmul", TENSOR, step, Some(root), || {
            x_dst.matmul(&self.weight)
        });
        tr.time("t_matmul", TENSOR, step, Some(root), || {
            black_box(x_dst.t_matmul(&y))
        });
        tr.time("matmul_t", TENSOR, step, Some(root), || {
            black_box(y.matmul_t(&self.weight))
        });
        let agg = SparseMatrix::mean_aggregator(
            block.num_dst,
            block.num_src(),
            &block.offsets,
            &block.indices,
        );
        tr.time("spmm", TENSOR, step, Some(root), || {
            black_box(agg.spmm(&batch.input))
        });
        tr.time("gat_fwd_bwd", MODEL, step, Some(root), || {
            forward_backward(
                self.gat.as_mut(),
                &batch.minibatch.blocks,
                &batch.input,
                &batch.labels,
            )
        });
        self.kernel_rounds += 1;
        self.matmul_flops_sum += 2.0 * (block.num_dst * feat * self.weight.cols()) as f64;
        self.spmm_nnz_sum += agg.nnz() as f64;
    }
}
