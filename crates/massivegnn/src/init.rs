//! `INITIALIZE_PREFETCHER` — Algorithm 1 lines 16–22.
//!
//! Selects the top `f_p^h`% of the partition's halo nodes by (global)
//! degree, bulk-fetches their features over RPC, populates the buffer, and
//! initializes the scoreboards (`S_E = 1`, `S_A = −1` for buffered nodes,
//! `S_A = 0` for the rest). Returns the component-wise initialization cost
//! breakdown that Fig. 8 reports.

use crate::buffer::PrefetchBuffer;
use crate::config::{PrefetchConfig, ScoreLayout};
use crate::prefetcher::{pull_and_charge, Prefetcher};
use crate::scoreboard::{AccessScores, EvictionScores};
use mgnn_net::{CommMetrics, CostModel, SimCluster};
use mgnn_obs::events::ORIGIN_INIT;
use mgnn_partition::LocalPartition;

/// Component-wise initialization cost (Fig. 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct InitReport {
    /// Selecting the top-degree halo nodes (sort/partial-select).
    pub selection_s: f64,
    /// Bulk RPC fetching their features.
    pub fetch_s: f64,
    /// Copying rows into the buffer.
    pub populate_s: f64,
    /// Scoreboard allocation + initialization.
    pub scoreboard_s: f64,
    /// How many halo nodes were prefetched.
    pub buffer_nodes: usize,
    /// Persistent bytes allocated (buffer + scoreboards).
    pub persistent_bytes: usize,
}

impl InitReport {
    /// Total modeled initialization time.
    pub fn total_s(&self) -> f64 {
        self.selection_s + self.fetch_s + self.populate_s + self.scoreboard_s
    }
}

/// Line 16: the `round(f_h · |V_p^h|)` halo indices of highest degree,
/// highest first (ties by id for determinism) — the buffer's initial
/// occupants, in slot order.
///
/// O(n) partial selection instead of a full O(n log n) sort over all
/// halo nodes (Fig. 8 init cost): quickselect the capacity-th node, drop
/// the tail, sort only the survivors. The (Reverse(degree), id) key is a
/// total order over distinct ids, so this reproduces the full-sort prefix
/// exactly.
pub fn top_degree_halo(part: &LocalPartition, f_h: f64) -> Vec<u32> {
    let num_halo = part.num_halo();
    let capacity = (((num_halo as f64) * f_h).round() as usize).min(num_halo);
    let key = |h: &u32| (std::cmp::Reverse(part.halo_degree[*h as usize]), *h);
    let mut order: Vec<u32> = (0..num_halo as u32).collect();
    if capacity == 0 {
        order.clear();
    } else if capacity < order.len() {
        order.select_nth_unstable_by_key(capacity - 1, key);
        order.truncate(capacity);
    }
    order.sort_unstable_by_key(key);
    order
}

/// Build a ready [`Prefetcher`] for one trainer on `part`.
pub fn initialize_prefetcher(
    part: &LocalPartition,
    cfg: PrefetchConfig,
    num_global_nodes: usize,
    cluster: &SimCluster,
    cost: &CostModel,
    metrics: &CommMetrics,
) -> (Prefetcher, InitReport) {
    cfg.validate().expect("invalid prefetch config");
    let num_halo = part.num_halo();
    let dim = cluster.dim();
    let order = top_degree_halo(part, cfg.f_h);
    let capacity = order.len();
    let selection_s = cost.t_lookup(num_halo) + cost.t_scoring(num_halo, false, num_halo);

    // Bulk fetch (line 18: RPC). Its time is `fetch_s`, spent before
    // step 0's prepare window, so it lays out no span.
    let globals: Vec<u32> = order.iter().map(|&h| part.halo_nodes[h as usize]).collect();
    let pull = pull_and_charge(ORIGIN_INIT, &globals, 0, cluster, cost, metrics);
    metrics.record_rpc(capacity as u64, dim);
    // Rows a dead partition never delivered are simply not buffered
    // (buffering zeros would serve wrong data on every later hit); those
    // nodes stay ordinary misses and are fetched the first time the
    // sampler needs them, so init stays infallible.
    let failed = &pull.outcome.failed_rows;
    metrics.record_degradation(pull.req_id, part.part_id, 0, failed.len() as u64);
    let row_failed = |r: usize| failed.binary_search(&r).is_ok();

    // Populate buffer.
    let mut buffer = PrefetchBuffer::new(num_halo, capacity, dim);
    for (i, &h) in order.iter().enumerate() {
        if row_failed(i) {
            continue;
        }
        buffer.insert_with(h, |row| pull.rows.decode_into(i, row));
    }
    let populate_s = cost.t_copy(capacity, dim);

    // Scoreboards (lines 17, 19–21).
    let s_e = EvictionScores::new(capacity);
    let mut s_a = AccessScores::new(cfg.layout, num_global_nodes, num_halo);
    for (i, &h) in order.iter().enumerate() {
        if row_failed(i) {
            continue;
        }
        s_a.set(&part.halo_nodes, part.halo_nodes[h as usize], -1.0);
    }
    let sb_cells = match cfg.layout {
        ScoreLayout::Dense => num_global_nodes,
        ScoreLayout::MemEfficient => num_halo,
    };
    let scoreboard_s = cost.t_scoring(sb_cells, cfg.layout == ScoreLayout::MemEfficient, num_halo);

    let buffered = buffer.len();
    let pf = Prefetcher::from_parts(cfg, buffer, s_e, s_a, num_halo);
    let report = InitReport {
        selection_s,
        fetch_s: pull.t_rpc,
        populate_s,
        scoreboard_s,
        buffer_nodes: buffered,
        persistent_bytes: pf.heap_bytes(),
    };
    (pf, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgnn_graph::generators::erdos_renyi;
    use mgnn_graph::FeatureStore;
    use mgnn_partition::{build_local_partitions, multilevel_partition};

    fn fixture() -> (LocalPartition, SimCluster, usize) {
        let g = erdos_renyi(300, 3000, 11);
        let p = multilevel_partition(&g, 3, 11);
        let feats = FeatureStore::synthesize(&g, 8, 4, 2);
        let cluster = SimCluster::new(&feats, &p.assignment, 3);
        let part = build_local_partitions(&g, &p, &[]).remove(0);
        (part, cluster, g.num_nodes())
    }

    #[test]
    fn buffer_holds_top_degree_halo_nodes() {
        let (part, cluster, n) = fixture();
        let cfg = PrefetchConfig {
            f_h: 0.3,
            ..Default::default()
        };
        let metrics = CommMetrics::new();
        let (pf, report) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        let expect = ((part.num_halo() as f64) * 0.3).round() as usize;
        assert_eq!(pf.buffer.len(), expect);
        assert_eq!(report.buffer_nodes, expect);
        // Minimum buffered degree >= maximum unbuffered degree.
        let min_in = pf
            .buffer
            .occupied()
            .map(|(_, h)| part.halo_degree[h as usize])
            .min()
            .unwrap();
        let max_out = (0..part.num_halo() as u32)
            .filter(|&h| !pf.buffer.contains(h))
            .map(|h| part.halo_degree[h as usize])
            .max()
            .unwrap();
        assert!(min_in >= max_out, "degree-based selection violated");
    }

    #[test]
    fn buffered_features_match_kvstore() {
        let (part, cluster, n) = fixture();
        let cfg = PrefetchConfig::default();
        let metrics = CommMetrics::new();
        let (pf, _) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        for (slot, h) in pf.buffer.occupied() {
            let g = part.halo_nodes[h as usize];
            let owner = cluster.owner(g);
            // Buffered rows crossed the wire once: exactly the store's
            // row as the wire format rounds it.
            let on_wire: Vec<f32> = cluster
                .store(owner)
                .row(g)
                .iter()
                .map(|&x| mgnn_net::wire::round_trip(x))
                .collect();
            assert_eq!(pf.buffer.row(slot), on_wire);
        }
    }

    #[test]
    fn scoreboards_initialized_per_paper() {
        let (part, cluster, n) = fixture();
        let cfg = PrefetchConfig::default();
        let metrics = CommMetrics::new();
        let (pf, _) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        // S_E = 1 for all slots.
        for (slot, _) in pf.buffer.occupied() {
            assert_eq!(pf.s_e.get(slot), 1.0);
        }
        // S_A = -1 buffered, 0 otherwise.
        for h in 0..part.num_halo() as u32 {
            let g = part.halo_nodes[h as usize];
            if pf.buffer.contains(h) {
                assert_eq!(pf.s_a.get(&part.halo_nodes, g), -1.0);
            } else {
                assert_eq!(pf.s_a.get(&part.halo_nodes, g), 0.0);
            }
        }
    }

    #[test]
    fn init_cost_components_positive() {
        let (part, cluster, n) = fixture();
        let metrics = CommMetrics::new();
        let (_, report) = initialize_prefetcher(
            &part,
            PrefetchConfig::default(),
            n,
            &cluster,
            &CostModel::default(),
            &metrics,
        );
        assert!(report.selection_s > 0.0);
        assert!(report.fetch_s > 0.0);
        assert!(report.populate_s > 0.0);
        assert!(report.scoreboard_s > 0.0);
        assert!(report.total_s() > report.fetch_s);
        assert!(report.persistent_bytes > 0);
        // RPC metrics recorded the initialization fetch.
        assert_eq!(
            metrics.snapshot().remote_nodes_fetched,
            report.buffer_nodes as u64
        );
    }

    #[test]
    fn mem_efficient_layout_allocates_less() {
        let (part, cluster, n) = fixture();
        let metrics = CommMetrics::new();
        let dense_cfg = PrefetchConfig::default();
        let me_cfg = PrefetchConfig {
            layout: ScoreLayout::MemEfficient,
            ..Default::default()
        };
        let (pd, _) = initialize_prefetcher(
            &part,
            dense_cfg,
            n,
            &cluster,
            &CostModel::default(),
            &metrics,
        );
        let (pm, _) =
            initialize_prefetcher(&part, me_cfg, n, &cluster, &CostModel::default(), &metrics);
        // Dense is 4·|V|; memory-efficient is 4·|V_p^h| — halo is a strict
        // subset of the node set, so the latter is always smaller.
        assert_eq!(pd.s_a.heap_bytes(), n * 4);
        assert_eq!(pm.s_a.heap_bytes(), part.num_halo() * 4);
        assert!(pm.s_a.heap_bytes() < pd.s_a.heap_bytes());
    }

    #[test]
    fn f_h_one_buffers_every_halo_node() {
        let (part, cluster, n) = fixture();
        let metrics = CommMetrics::new();
        let cfg = PrefetchConfig {
            f_h: 1.0,
            ..Default::default()
        };
        let (pf, _) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        assert_eq!(pf.buffer.len(), part.num_halo());
    }

    /// The O(n) partial selection must populate the buffer in exactly
    /// the order the old full `sort_by_key` + truncate produced.
    #[test]
    fn partial_selection_matches_full_sort_order() {
        let (part, cluster, n) = fixture();
        let metrics = CommMetrics::new();
        for f_h in [0.05, 0.3, 0.77, 1.0] {
            let cfg = PrefetchConfig {
                f_h,
                ..Default::default()
            };
            let (pf, _) =
                initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
            let capacity = ((part.num_halo() as f64) * f_h).round() as usize;
            let mut reference: Vec<u32> = (0..part.num_halo() as u32).collect();
            reference.sort_by_key(|&h| (std::cmp::Reverse(part.halo_degree[h as usize]), h));
            reference.truncate(capacity.min(part.num_halo()));
            let inserted: Vec<u32> = pf.buffer.occupied().map(|(_, h)| h).collect();
            assert_eq!(inserted, reference, "f_h={f_h}");
        }
    }

    #[test]
    fn f_h_zero_empty_buffer() {
        let (part, cluster, n) = fixture();
        let metrics = CommMetrics::new();
        let cfg = PrefetchConfig {
            f_h: 0.0,
            ..Default::default()
        };
        let (pf, _) =
            initialize_prefetcher(&part, cfg, n, &cluster, &CostModel::default(), &metrics);
        assert!(pf.buffer.is_empty());
    }
}
