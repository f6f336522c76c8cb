//! Table IV: the optimal `(f_p^h, γ, Δ)` per dataset and backend — Fig. 6's
//! 2-node cells ([`fig6::group`]), whose sweep chooses by training time
//! (the paper: "we always prioritize time over hit rate").

use crate::figures::fig6::{self, Group};
use crate::harness::{improvement_pct, Opts};
use mgnn_model::ModelKind;
use mgnn_net::Backend;
use std::fmt;

/// The table: Fig. 6's 2-node GraphSAGE groups, one row each.
pub struct Table4 {
    /// One optimum per (dataset, backend).
    pub groups: Vec<Group>,
    /// Compute nodes used.
    pub num_parts: usize,
}

/// Find optima on `num_parts = 2` compute nodes (extend with `--full`).
pub fn run(opts: &Opts) -> Table4 {
    let num_parts = 2;
    let mut groups = Vec::new();
    for &kind in fig6::datasets(opts.full) {
        for backend in [Backend::Cpu, Backend::Gpu] {
            groups.push(fig6::group(
                opts,
                kind,
                ModelKind::Sage,
                backend,
                num_parts,
                opts.full,
            ));
        }
    }
    Table4 { groups, num_parts }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table IV — optimal (f_p^h, γ, Δ) on {} compute nodes",
            self.num_parts
        )?;
        writeln!(
            f,
            "{:<10} {:<8} {:>6} {:>8} {:>6} {:>8}",
            "dataset", "backend", "f_h", "gamma", "delta", "impr(%)"
        )?;
        for g in &self.groups {
            let (gamma, delta, time_s, _) = g.best_evict();
            writeln!(
                f,
                "{:<10} {:<8} {:>6} {:>8} {:>6} {:>8.1}",
                g.dataset,
                g.backend,
                g.no_evict.0,
                gamma,
                delta,
                improvement_pct(g.baseline_s, time_s)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optima_are_from_the_sweep_grid() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let t = run(&opts);
        for g in &t.groups {
            let (gamma, delta, _, _) = g.best_evict();
            assert!(crate::harness::f_h_values(false).contains(&g.no_evict.0));
            assert!(crate::harness::gamma_values().contains(&gamma));
            assert!(crate::harness::delta_values(false).contains(&delta));
        }
        // Both backends represented.
        assert!(t.groups.iter().any(|g| g.backend == "CPU"));
        assert!(t.groups.iter().any(|g| g.backend == "GPU"));
    }

    #[test]
    fn display_renders() {
        let mut opts = Opts::quick();
        opts.epochs = 2;
        let t = run(&opts);
        assert!(format!("{t}").contains("Table IV"));
    }
}
