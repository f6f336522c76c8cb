//! Degree-distribution statistics used by tests and the Table II
//! reproduction: extremes, quantiles, tail heaviness.

use crate::csr::{CsrGraph, NodeId};

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 99th percentile degree.
    pub p99: usize,
    /// Gini coefficient of the degree distribution in [0, 1];
    /// 0 = perfectly uniform, →1 = extremely skewed.
    pub gini: f64,
}

/// Compute [`DegreeStats`] for `g`.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let mut degs: Vec<usize> = (0..g.num_nodes()).map(|u| g.degree(u as NodeId)).collect();
    if degs.is_empty() {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            p99: 0,
            gini: 0.0,
        };
    }
    degs.sort_unstable();
    let n = degs.len();
    let sum: usize = degs.iter().sum();
    let mean = sum as f64 / n as f64;
    // Gini via the sorted-rank formula.
    let gini = if sum == 0 {
        0.0
    } else {
        let weighted: f64 = degs
            .iter()
            .enumerate()
            .map(|(i, &d)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * d as f64)
            .sum();
        weighted / (n as f64 * sum as f64)
    };
    DegreeStats {
        min: degs[0],
        max: degs[n - 1],
        mean,
        median: degs[n / 2],
        p99: degs[(n as f64 * 0.99) as usize % n],
        gini,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi};

    #[test]
    fn stats_on_uniform_graph() {
        let g = erdos_renyi(1000, 10_000, 1);
        let s = degree_stats(&g);
        assert!(s.mean > 15.0 && s.mean < 25.0);
        assert!(s.gini < 0.25, "ER should be near-uniform, gini={}", s.gini);
    }

    #[test]
    fn ba_more_skewed_than_er() {
        let er = degree_stats(&erdos_renyi(2000, 8000, 2));
        let ba = degree_stats(&barabasi_albert(2000, 4, 2));
        assert!(ba.gini > er.gini);
        assert!(ba.max > er.max);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::csr::CsrGraph::from_parts(vec![0], vec![]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
    }
}
