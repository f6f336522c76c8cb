//! Fig. 7: GAT (2 attention heads) on the papers-like input — does the
//! prefetch scheme transfer to another architecture? (§V-A4: up to 39%
//! CPU / 15% GPU improvement; eviction adds 5–8 points on CPU, GPU can
//! degrade when overlap fails.) Each bar group is a [`fig6::group`] cell.

use crate::figures::fig6::{self, Group};
use crate::harness::Opts;
use mgnn_graph::DatasetKind;
use mgnn_model::ModelKind;
use mgnn_net::Backend;
use std::fmt;

/// The figure: Fig. 6's cells, for GAT on papers.
pub struct Fig7 {
    /// Bar groups.
    pub groups: Vec<Group>,
}

/// Run GAT on papers-like over [`fig6::node_counts`] × both backends, on
/// the representative `f_p^h` and Δ grids even under `--full`.
pub fn run(opts: &Opts) -> Fig7 {
    let mut groups = Vec::new();
    for backend in [Backend::Cpu, Backend::Gpu] {
        for &parts in fig6::node_counts(opts.full) {
            groups.push(fig6::group(
                opts,
                DatasetKind::Papers,
                ModelKind::Gat,
                backend,
                parts,
                false,
            ));
        }
    }
    Fig7 { groups }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7 — GAT (2 heads) on papers-like")?;
        writeln!(
            f,
            "{:<4} {:>6} {:>11} {:>10} {:>10} {:>9} {:>9}",
            "dev", "#nodes", "DistDGL(s)", "noEvict(s)", "evict(s)", "impr(%)", "hit(%)"
        )?;
        for g in &self.groups {
            let best = g.best_evict();
            writeln!(
                f,
                "{:<4} {:>6} {:>11.3} {:>10.3} {:>10.3} {:>9.1} {:>9.1}",
                g.backend,
                g.num_parts,
                g.baseline_s,
                g.no_evict.1,
                best.2,
                g.best_improvement_pct(),
                100.0 * best.3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::improvement_pct;

    #[test]
    fn gat_prefetch_improves_on_cpu() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let fig = run(&opts);
        for g in fig.groups.iter().filter(|g| g.backend == "CPU") {
            let best = g.best_evict().2.min(g.no_evict.1);
            assert!(
                improvement_pct(g.baseline_s, best) > 0.0,
                "CPU {} nodes: GAT prefetch should improve",
                g.num_parts
            );
        }
        assert!(format!("{fig}").contains("GAT"));
    }
}
