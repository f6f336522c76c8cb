//! Partitioner ablation (beyond the paper's figures): the paper relies on
//! METIS partitions; this study quantifies how partition quality drives
//! the prefetcher's whole problem. Lower edge cut ⇒ fewer halo nodes ⇒
//! less remote traffic for the baseline *and* a smaller working set for
//! the buffer — while random/hash partitions inflate halo fractions and
//! communication, which is exactly the regime where prefetching matters
//! most.

use crate::harness::{engine_config, improvement_pct, Opts};
use massivegnn::{EngineConfig, PrefetchConfig};
use mgnn_graph::{Dataset, DatasetKind};
use mgnn_net::Backend;
use mgnn_partition::random::random_partition;
use mgnn_partition::{
    bfs::bfs_partition, build_local_partitions, edge_cut, halo_fraction, hash::hash_partition,
    multilevel_partition, Partitioning,
};
use std::fmt;

/// One partitioner's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Partitioner name.
    pub partitioner: &'static str,
    /// Undirected edge cut.
    pub edge_cut: usize,
    /// Mean halo fraction across partitions.
    pub halo_fraction: f64,
    /// Baseline remote nodes fetched (total).
    pub baseline_remote: u64,
    /// Prefetch end-to-end improvement over baseline (%).
    pub prefetch_improvement_pct: f64,
    /// Prefetch hit rate.
    pub hit_rate: f64,
}

/// The study.
pub struct PartitionStudy {
    /// One row per partitioner.
    pub rows: Vec<Row>,
}

fn partitioners(
    dataset: &Dataset,
    num_parts: usize,
    seed: u64,
) -> Vec<(&'static str, Partitioning)> {
    vec![
        (
            "multilevel",
            multilevel_partition(&dataset.graph, num_parts, seed),
        ),
        ("bfs", bfs_partition(&dataset.graph, num_parts)),
        ("hash", hash_partition(&dataset.graph, num_parts)),
        ("random", random_partition(&dataset.graph, num_parts, seed)),
    ]
}

/// Run baseline + prefetch under each partitioner on products, 2 nodes.
///
/// Note: [`massivegnn::Engine`] always partitions with the multilevel partitioner; to
/// compare others this study measures structural metrics per partitioner
/// directly and runs the engine comparison on the two extremes by
/// re-deriving halo statistics through [`build_local_partitions`].
pub fn run(opts: &Opts) -> PartitionStudy {
    let num_parts = 2;
    let dataset = Dataset::generate(DatasetKind::Products, opts.scale, opts.seed);
    let mut rows = Vec::new();
    for (name, parts) in partitioners(&dataset, num_parts, opts.seed) {
        let lps = build_local_partitions(&dataset.graph, &parts, &dataset.train_nodes);
        let cut = edge_cut(&dataset.graph, &parts);
        let hf = lps.iter().map(halo_fraction).sum::<f64>() / lps.len() as f64;

        // Engine comparison under this assignment: construct via the
        // engine's own pipeline but override the partitioning by seeding
        // a custom build (the engine's multilevel call is deterministic,
        // so for non-multilevel partitioners we run a manual comparison
        // through the same prefetcher/baseline preparation paths).
        let (baseline_remote, improvement, hit) = manual_comparison(
            &dataset,
            &parts,
            opts,
            engine_config(opts, DatasetKind::Products, Backend::Cpu, num_parts),
        );
        rows.push(Row {
            partitioner: name,
            edge_cut: cut,
            halo_fraction: hf,
            baseline_remote,
            prefetch_improvement_pct: improvement,
            hit_rate: hit,
        });
    }
    PartitionStudy { rows }
}

/// Run baseline vs prefetch preparation over a fixed partitioning, using
/// the same per-trainer dataloader/sampler/prefetcher machinery as the
/// engine, and summing Eq. 2 / Eq. 5 per-step times.
fn manual_comparison(
    dataset: &Dataset,
    parts: &Partitioning,
    _opts: &Opts,
    cfg: EngineConfig,
) -> (u64, f64, f64) {
    use massivegnn::init::initialize_prefetcher;
    use massivegnn::prefetcher::baseline_prepare;
    use mgnn_net::clock::PipelineClock;
    use mgnn_net::{CommMetrics, SimCluster};
    use mgnn_partition::split_train_nodes;
    use mgnn_sampling::{DataLoader, NeighborSampler};

    let cluster = SimCluster::new(&dataset.features, &parts.assignment, parts.num_parts);
    let lps = build_local_partitions(&dataset.graph, parts, &dataset.train_nodes);
    let cost = &cfg.cost;
    let pcfg = PrefetchConfig {
        f_h: 0.25,
        gamma: 0.995,
        delta: 16,
        ..Default::default()
    };

    let mut base_total = 0.0f64;
    let mut pref_total = 0.0f64;
    let mut base_remote = 0u64;
    let mut hit_rate_sum = 0.0f64;
    let mut trainer_count = 0usize;

    // A shape model for MAC estimation.
    let shape = mgnn_model::SageModel::new(
        &[
            dataset.features.dim(),
            cfg.hidden_dim,
            dataset.features.num_classes(),
        ],
        1,
    );
    let param_bytes = mgnn_model::Model::num_params(&shape) * 4;
    let world = parts.num_parts * cfg.trainers_per_part;

    for lp in &lps {
        let shards = split_train_nodes(&lp.train_nodes, cfg.trainers_per_part, cfg.seed);
        for (t, shard) in shards.into_iter().enumerate() {
            let seeds: Vec<u32> = shard.iter().map(|&g| lp.local_id(g).unwrap()).collect();
            let loader = DataLoader::new(seeds, cfg.batch_size, cfg.seed ^ t as u64);
            let steps = loader.batches_per_epoch().min(6);
            if steps == 0 {
                continue;
            }
            let sampler = NeighborSampler::new(cfg.fanouts.clone(), cfg.seed ^ (t as u64) << 3);
            let bm = CommMetrics::new();
            let pm = CommMetrics::new();
            let (mut pf, init) =
                initialize_prefetcher(lp, pcfg, dataset.num_nodes(), &cluster, cost, &pm);
            let mut base_clock = 0.0f64;
            let mut pipe = PipelineClock::new(init.total_s(), pf.window());
            let mut gs = 0u64;
            for epoch in 0..cfg.epochs as u64 {
                for seeds in loader.epoch(epoch).iter().take(steps) {
                    let b = baseline_prepare(lp, &sampler, seeds, epoch, gs, &cluster, cost, &bm);
                    let macs = mgnn_model::Model::macs(&shape, &b.minibatch.blocks);
                    let t_train = cost.t_ddp(
                        macs,
                        b.input.data().len() * 4,
                        param_bytes,
                        world,
                        cfg.backend,
                    );
                    base_clock +=
                        b.timing.t_sampling + b.timing.t_rpc.max(b.timing.t_copy) + t_train;

                    let p = pf.prepare(lp, &sampler, seeds, epoch, gs, &cluster, cost, &pm);
                    pipe.step_timed(p.timing.t_prepare(), t_train);
                    gs += 1;
                }
            }
            base_total = base_total.max(base_clock);
            pref_total = pref_total.max(pipe.now());
            base_remote += bm.snapshot().remote_nodes_fetched;
            hit_rate_sum += pm.hit_rate();
            trainer_count += 1;
        }
    }
    (
        base_remote,
        improvement_pct(base_total, pref_total),
        if trainer_count == 0 {
            0.0
        } else {
            hit_rate_sum / trainer_count as f64
        },
    )
}

impl fmt::Display for PartitionStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Partitioner ablation — products, 2 nodes (cut quality drives halo traffic)"
        )?;
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>14} {:>9} {:>8}",
            "partitioner", "edge cut", "halo frac", "base remote", "impr(%)", "hit(%)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10} {:>10.3} {:>14} {:>9.1} {:>8.1}",
                r.partitioner,
                r.edge_cut,
                r.halo_fraction,
                r.baseline_remote,
                r.prefetch_improvement_pct,
                100.0 * r.hit_rate
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multilevel_has_lowest_cut_and_random_most_remote_traffic() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let study = run(&opts);
        let get = |n: &str| study.rows.iter().find(|r| r.partitioner == n).unwrap();
        let ml = get("multilevel");
        let rnd = get("random");
        assert!(ml.edge_cut < rnd.edge_cut, "multilevel should cut less");
        assert!(
            ml.baseline_remote < rnd.baseline_remote,
            "better partition ⇒ less remote traffic"
        );
        assert!(ml.halo_fraction <= rnd.halo_fraction);
        // Prefetch should help under every partitioner.
        for r in &study.rows {
            assert!(
                r.prefetch_improvement_pct > 0.0,
                "{}: no improvement",
                r.partitioner
            );
        }
        assert!(format!("{study}").contains("Partitioner"));
    }
}
