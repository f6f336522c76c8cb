//! Fig. 6: end-to-end GraphSAGE training time (bars) and hit rate (line)
//! — baseline DistDGL vs prefetch-without-eviction (optimal `f_p^h`) vs
//! prefetch-with-eviction (optimal Δ per γ), across datasets, CPU/GPU
//! backends and compute-node counts.

use crate::harness::{engine_config, improvement_pct, optimize_prefetch, Opts};
use massivegnn::Engine;
use mgnn_graph::DatasetKind;
use mgnn_net::Backend;
use std::fmt;

/// One bar group of the figure.
#[derive(Debug, Clone)]
pub struct Group {
    /// Dataset name.
    pub dataset: &'static str,
    /// Backend name.
    pub backend: &'static str,
    /// Compute nodes (partitions).
    pub num_parts: usize,
    /// Baseline DistDGL makespan.
    pub baseline_s: f64,
    /// Best prefetch-without-eviction: `(f_h, time, hit rate)`.
    pub no_evict: (f64, f64, f64),
    /// Prefetch-with-eviction per γ: `(γ, Δ, time, hit rate)`.
    pub with_evict: Vec<(f64, usize, f64, f64)>,
}

impl Group {
    /// Best improvement over baseline across all prefetch variants (%).
    pub fn best_improvement_pct(&self) -> f64 {
        let best = self
            .with_evict
            .iter()
            .map(|&(_, _, t, _)| t)
            .chain(std::iter::once(self.no_evict.1))
            .fold(f64::INFINITY, f64::min);
        improvement_pct(self.baseline_s, best)
    }
}

/// The whole figure.
pub struct Fig6 {
    /// All bar groups.
    pub groups: Vec<Group>,
}

/// Run the figure. Defaults to {arxiv, products} × {CPU, GPU} × {2, 4}
/// nodes; `--full` covers all four datasets and {2, 4, 8} nodes.
pub fn run(opts: &Opts) -> Fig6 {
    let datasets: &[DatasetKind] = if opts.full {
        &DatasetKind::ALL
    } else {
        &[DatasetKind::Arxiv, DatasetKind::Products]
    };
    let node_counts: &[usize] = if opts.full { &[2, 4, 8] } else { &[2, 4] };
    let mut groups = Vec::new();
    for &kind in datasets {
        for backend in [Backend::Cpu, Backend::Gpu] {
            for &parts in node_counts {
                let base = engine_config(opts, kind, backend, parts);
                let baseline = Engine::build(base.clone()).run();
                let optimized = optimize_prefetch(&base, opts.full);
                let (f_h, ne) = &optimized.no_evict;
                groups.push(Group {
                    dataset: kind.name(),
                    backend: backend.name(),
                    num_parts: parts,
                    baseline_s: baseline.makespan_s,
                    no_evict: (*f_h, ne.makespan_s, ne.hit_rate()),
                    with_evict: optimized
                        .with_evict
                        .iter()
                        .map(|(g, d, r)| (*g, *d, r.makespan_s, r.hit_rate()))
                        .collect(),
                });
            }
        }
    }
    Fig6 { groups }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6 — GraphSAGE end-to-end time & hit rate (baseline vs prefetch)"
        )?;
        writeln!(
            f,
            "{:<10} {:<4} {:>6} {:>11} | {:>5} {:>10} {:>7} | best-evict {:>8} {:>6} {:>10} {:>7} | {:>8}",
            "dataset",
            "dev",
            "#nodes",
            "DistDGL(s)",
            "f_h",
            "noEvict(s)",
            "hit(%)",
            "γ",
            "Δ",
            "evict(s)",
            "hit(%)",
            "impr(%)"
        )?;
        for g in &self.groups {
            let best = g
                .with_evict
                .iter()
                .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
                .unwrap();
            writeln!(
                f,
                "{:<10} {:<4} {:>6} {:>11.3} | {:>5} {:>10.3} {:>7.1} | {:>19} {:>6} {:>10.3} {:>7.1} | {:>8.1}",
                g.dataset,
                g.backend,
                g.num_parts,
                g.baseline_s,
                g.no_evict.0,
                g.no_evict.1,
                100.0 * g.no_evict.2,
                best.0,
                best.1,
                best.2,
                100.0 * best.3,
                g.best_improvement_pct()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_fig() -> &'static Fig6 {
        use std::sync::OnceLock;
        static FIG: OnceLock<Fig6> = OnceLock::new();
        FIG.get_or_init(|| {
            let mut opts = Opts::quick();
            opts.epochs = 2;
            run(&opts)
        })
    }

    #[test]
    fn prefetch_beats_baseline_on_cpu() {
        let fig = quick_fig();
        for g in fig.groups.iter().filter(|g| g.backend == "CPU") {
            assert!(
                g.best_improvement_pct() > 0.0,
                "{} {} nodes: no improvement ({:.1}%)",
                g.dataset,
                g.num_parts,
                g.best_improvement_pct()
            );
        }
    }

    #[test]
    fn hit_rates_nontrivial() {
        let fig = quick_fig();
        for g in &fig.groups {
            assert!(
                g.no_evict.2 > 0.1,
                "{}/{}: hit rate {:.2} too low",
                g.dataset,
                g.backend,
                g.no_evict.2
            );
        }
    }

    #[test]
    fn groups_cover_both_backends_and_node_counts() {
        let fig = quick_fig();
        assert!(fig.groups.iter().any(|g| g.backend == "CPU"));
        assert!(fig.groups.iter().any(|g| g.backend == "GPU"));
        assert!(fig.groups.iter().any(|g| g.num_parts == 2));
        assert!(fig.groups.iter().any(|g| g.num_parts == 4));
        assert!(format!("{fig}").contains("Fig. 6"));
    }
}
