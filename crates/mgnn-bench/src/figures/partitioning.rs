//! Partitioner ablation (beyond the paper's figures): the paper relies on
//! METIS partitions; this study quantifies how partition quality drives
//! the prefetcher's whole problem. Lower edge cut ⇒ fewer halo nodes ⇒
//! less remote traffic for the baseline *and* a smaller working set for
//! the buffer — while random/hash partitions inflate halo fractions and
//! communication, which is exactly the regime where prefetching matters
//! most.

use crate::harness::{engine_config, improvement_pct, Opts};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::{CsrGraph, DatasetKind};
use mgnn_net::Backend;
use mgnn_partition::random::random_partition;
use mgnn_partition::{
    balance, bfs::bfs_partition, edge_cut, halo_fraction, hash::hash_partition,
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
    /// Largest partition over the ideal size (1.0 is perfect): whether a
    /// low cut was bought with imbalance.
    pub balance: f64,
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

type Partitioner = fn(&CsrGraph, usize, u64) -> Partitioning;

const PARTITIONERS: [(&str, Partitioner); 4] = [
    ("multilevel", multilevel_partition),
    ("bfs", |g, k, _| bfs_partition(g, k)),
    ("hash", |g, k, _| hash_partition(g, k)),
    ("random", random_partition),
];

/// Run baseline + prefetch under each partitioner on products, 2 nodes:
/// two runs on one engine per assignment.
pub fn run(opts: &Opts) -> PartitionStudy {
    let cfg = engine_config(opts, DatasetKind::Products, Backend::Cpu, 2);
    let rows = PARTITIONERS
        .iter()
        .map(|&(name, partitioner)| {
            // The engine hands the partitioner the graph; its cut and
            // balance are read where the assignment is made.
            let mut quality = (0, 0.0);
            let engine = Engine::build_with(cfg.clone(), |g, k, seed| {
                let p = partitioner(g, k, seed);
                quality = (edge_cut(g, &p), balance(&p));
                p
            });
            let parts = engine.partitions();
            let halo = parts.iter().map(|p| halo_fraction(p)).sum::<f64>() / parts.len() as f64;
            let baseline = engine.run();
            let prefetch = engine
                .run_as(Mode::Prefetch(PrefetchConfig {
                    f_h: 0.25,
                    gamma: 0.995,
                    delta: 16,
                    ..Default::default()
                }))
                .unwrap();
            Row {
                partitioner: name,
                edge_cut: quality.0,
                balance: quality.1,
                halo_fraction: halo,
                baseline_remote: baseline.aggregate_metrics().remote_nodes_fetched,
                prefetch_improvement_pct: improvement_pct(baseline.makespan_s, prefetch.makespan_s),
                hit_rate: prefetch.hit_rate(),
            }
        })
        .collect();
    PartitionStudy { rows }
}

impl fmt::Display for PartitionStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Partitioner ablation — products, 2 nodes (cut quality drives halo traffic)"
        )?;
        writeln!(
            f,
            "{:<12} {:>10} {:>8} {:>10} {:>14} {:>9} {:>8}",
            "partitioner", "edge cut", "balance", "halo frac", "base remote", "impr(%)", "hit(%)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10} {:>8.3} {:>10.3} {:>14} {:>9.1} {:>8.1}",
                r.partitioner,
                r.edge_cut,
                r.balance,
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
