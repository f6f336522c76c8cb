//! Fig. 6: end-to-end GraphSAGE training time (bars) and hit rate (line)
//! — baseline DistDGL vs prefetch-without-eviction (optimal `f_p^h`) vs
//! prefetch-with-eviction (optimal Δ per γ), across datasets, CPU/GPU
//! backends and compute-node counts. Each bar group is one [`group`] call;
//! Table IV and Fig. 7 are cells of the same sweep.

use crate::harness::{
    delta_values, engine_config, f_h_values, gamma_values, improvement_pct, layout_for, Opts,
};
use massivegnn::{Engine, Mode, PrefetchConfig};
use mgnn_graph::DatasetKind;
use mgnn_model::ModelKind;
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
    /// Best prefetch-with-eviction per γ: `(γ, Δ, time, hit rate)`.
    pub with_evict: Vec<(f64, usize, f64, f64)>,
}

impl Group {
    /// The fastest with-eviction point.
    pub fn best_evict(&self) -> (f64, usize, f64, f64) {
        fastest(self.with_evict.iter().copied(), |p| p.2)
    }

    /// Best improvement over baseline across all prefetch variants (%).
    pub fn best_improvement_pct(&self) -> f64 {
        improvement_pct(self.baseline_s, self.best_evict().2.min(self.no_evict.1))
    }
}

/// The whole figure.
pub struct Fig6 {
    /// All bar groups.
    pub groups: Vec<Group>,
}

/// The datasets Fig. 6 and Table IV cover: arxiv and products, or all
/// four with `--full`.
pub fn datasets(full: bool) -> &'static [DatasetKind] {
    if full {
        &DatasetKind::ALL
    } else {
        &[DatasetKind::Arxiv, DatasetKind::Products]
    }
}

/// The compute-node counts of Figs. 6 and 7: {2, 4}, or {2, 4, 8} with
/// `--full`.
pub fn node_counts(full: bool) -> &'static [usize] {
    if full {
        &[2, 4, 8]
    } else {
        &[2, 4]
    }
}

/// One cell of the sweep, on one built engine: the baseline run, then
/// the paper's §V-A search, choosing by lowest makespan ("we always
/// prioritize time over hit rate") — `f_p^h` without eviction, then Δ
/// per γ at that `f_p^h`. `full` selects the complete `f_p^h` and Δ grids.
pub fn group(
    opts: &Opts,
    dataset: DatasetKind,
    model: ModelKind,
    backend: Backend,
    num_parts: usize,
    full: bool,
) -> Group {
    let mut cfg = engine_config(opts, dataset, backend, num_parts);
    cfg.model = model;
    let engine = Engine::build(cfg);
    let baseline = engine.run();
    let layout = layout_for(dataset);
    let run = |pcfg: PrefetchConfig| {
        let r = engine
            .run_as(Mode::Prefetch(PrefetchConfig { layout, ..pcfg }))
            .unwrap();
        (r.makespan_s, r.hit_rate())
    };
    let no_evict = fastest(
        f_h_values(full).into_iter().map(|f_h| {
            let (t, hit) = run(PrefetchConfig {
                f_h,
                ..PrefetchConfig::default().without_eviction()
            });
            (f_h, t, hit)
        }),
        |p| p.1,
    );
    let with_evict = gamma_values()
        .into_iter()
        .map(|gamma| {
            fastest(
                delta_values(full).into_iter().map(|delta| {
                    let (t, hit) = run(PrefetchConfig {
                        f_h: no_evict.0,
                        gamma,
                        delta,
                        ..PrefetchConfig::default()
                    });
                    (gamma, delta, t, hit)
                }),
                |p| p.2,
            )
        })
        .collect();
    Group {
        dataset: dataset.name(),
        backend: backend.name(),
        num_parts,
        baseline_s: baseline.makespan_s,
        no_evict,
        with_evict,
    }
}

/// The point of `sweep` with the lowest `time`; the first, on a tie.
fn fastest<T>(sweep: impl Iterator<Item = T>, time: impl Fn(&T) -> f64) -> T {
    sweep
        .reduce(|best, p| if time(&p) < time(&best) { p } else { best })
        .unwrap()
}

/// Run the figure: GraphSAGE over [`datasets`] × {CPU, GPU} ×
/// [`node_counts`].
pub fn run(opts: &Opts) -> Fig6 {
    let mut groups = Vec::new();
    for &kind in datasets(opts.full) {
        for backend in [Backend::Cpu, Backend::Gpu] {
            for &parts in node_counts(opts.full) {
                groups.push(group(
                    opts,
                    kind,
                    ModelKind::Sage,
                    backend,
                    parts,
                    opts.full,
                ));
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
            let best = g.best_evict();
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

    /// Table IV is the argmin over this figure's sweep (§V-A): each of its
    /// rows is the 2-node group for the same dataset and backend.
    #[test]
    fn table4_rows_are_the_two_node_groups() {
        let fig = quick_fig();
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let table = crate::tables::table4::run(&opts);
        let two_node: Vec<&Group> = fig.groups.iter().filter(|g| g.num_parts == 2).collect();
        assert_eq!(table.num_parts, 2);
        assert_eq!(table.groups.len(), two_node.len());
        for row in &table.groups {
            let g = two_node
                .iter()
                .find(|g| g.dataset == row.dataset && g.backend == row.backend)
                .unwrap_or_else(|| panic!("{} {}: no 2-node group", row.dataset, row.backend));
            let (gamma, delta, time_s, _) = g.best_evict();
            let (row_gamma, row_delta, row_time_s, _) = row.best_evict();
            assert_eq!(
                row.no_evict.0, g.no_evict.0,
                "{} {}: f_h",
                g.dataset, g.backend
            );
            assert_eq!(
                (row_gamma, row_delta),
                (gamma, delta),
                "{} {}",
                g.dataset,
                g.backend
            );
            assert_eq!(
                improvement_pct(row.baseline_s, row_time_s),
                improvement_pct(g.baseline_s, time_s),
                "{} {}: improvement",
                g.dataset,
                g.backend
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
