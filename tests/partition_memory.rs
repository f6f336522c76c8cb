//! Partitioner memory, free of allocator slack: the most
//! `multilevel_partition` ever holds on top of the graph it is given, read
//! from the counting allocator (`--features alloc-count`; without it this
//! file is not built).
//!
//! The gauges are process-wide, so this binary holds exactly one test.

use massivegnn::alloc;
use mgnn_graph::{DatasetGraph, DatasetKind, Scale};
use mgnn_partition::multilevel_partition;

#[test]
fn multilevel_partition_peaks_below_three_input_graphs() {
    // A coarse level is a map from input node to coarse node, not a
    // graph: what the partitioner borrows grows with the node count —
    // per level, and once for the refinement's table of every node's
    // neighbours per part — never with a copy of the edges per level.
    for (kind, parts) in [
        (DatasetKind::Papers, 4),
        (DatasetKind::Reddit, 4),
        (DatasetKind::Products, 2),
        (DatasetKind::Arxiv, 2),
    ] {
        let g = DatasetGraph::generate(kind, Scale::Small, 42).graph;
        let csr = (std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.targets())) as f64;
        let before = alloc::live_bytes();
        alloc::reset_peak();
        let partitioning = multilevel_partition(&g, parts, 42);
        let peak = (alloc::peak_bytes() - before) as f64;
        drop(partitioning);
        assert!(
            peak <= 3.0 * csr,
            "{} at {parts} parts: peak {peak:.0} B is {:.2}x of the input CSR ({csr:.0} B)",
            kind.name(),
            peak / csr
        );
    }
}
