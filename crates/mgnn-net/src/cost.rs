//! The analytical cost model that turns exact event counts into simulated
//! seconds.
//!
//! Default constants are calibrated to the paper's platform (§V): AMD EPYC
//! 7763 nodes, 4×A100 GPUs, Slingshot-11 interconnect, DistDGL RPC. The
//! absolute values matter less than the *ratios* they produce — in
//! particular `t_RPC / t_DDP` (Eq. 6 of the paper), which decides whether
//! prefetch overlap yields end-to-end wins (CPU training: ratio ≳ 1; GPU
//! training: ratio often < 1, hence 60–70 % overlap efficiency in Fig. 9).

/// Which device executes DDP training (§V compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// CPU training (PyTorch Gloo in the paper): slow compute, easy overlap.
    Cpu,
    /// GPU training (NCCL in the paper): fast compute plus host-to-device
    /// copies; harder to hide preparation behind.
    Gpu,
}

impl Backend {
    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Cpu => "CPU",
            Backend::Gpu => "GPU",
        }
    }
}

/// Latency/bandwidth/compute-rate model. All times in seconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-RPC round-trip latency (request + response headers,
    /// serialization, queueing). DistDGL bulk RPC over Slingshot: ~1 ms.
    pub rpc_latency_s: f64,
    /// Per-node overhead inside a bulk RPC: remote KVStore lookup,
    /// serialization, RPC-stack bookkeeping. In DistDGL this dominates the
    /// wire time for feature pulls.
    pub rpc_per_node_s: f64,
    /// Network bandwidth available to one trainer's feature pulls (B/s).
    pub network_bw: f64,
    /// Local memory copy bandwidth for gathering local features (B/s).
    pub copy_bw: f64,
    /// CPU training throughput per trainer (MAC/s). 16 PyTorch cores at
    /// a few GFLOP/s effective.
    pub cpu_macs: f64,
    /// GPU training throughput per trainer (MAC/s). A100 tensor cores,
    /// derated for small GNN kernels.
    pub gpu_macs: f64,
    /// Host-to-device copy bandwidth (B/s), charged only on [`Backend::Gpu`].
    pub h2d_bw: f64,
    /// Per-sampled-edge cost of neighbor sampling (s). Random-walk style
    /// pointer chasing on CPU.
    pub sample_edge_s: f64,
    /// Per-node cost of a prefetch-buffer lookup (s) — hash probe,
    /// rayon-parallelized in the paper via NUMBA.
    pub lookup_node_s: f64,
    /// Per-node cost of scoreboard maintenance (s) — decay multiply or
    /// S_A increment.
    pub score_node_s: f64,
    /// Extra per-node factor for the memory-efficient S_A layout's binary
    /// search (multiplied by log2 of the halo count at call sites).
    pub score_search_s: f64,
    /// Per-hop latency of the gradient allreduce ring (s).
    pub allreduce_latency_s: f64,
    /// Allreduce bandwidth (B/s).
    pub allreduce_bw: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rpc_latency_s: 1.0e-3,
            rpc_per_node_s: 2.0e-6,
            network_bw: 2.5e9,
            copy_bw: 20.0e9,
            cpu_macs: 25.0e9,
            // Effective A100 rate for small, irregular GNN kernels plus
            // launch overheads — ~8× the CPU trainer, matching the paper's
            // regime where GPU t_DDP no longer hides preparation (Fig. 9's
            // 60–70 % overlap efficiency).
            gpu_macs: 200.0e9,
            h2d_bw: 20.0e9,
            sample_edge_s: 60.0e-9,
            lookup_node_s: 12.0e-9,
            score_node_s: 6.0e-9,
            score_search_s: 10.0e-9,
            allreduce_latency_s: 30.0e-6,
            allreduce_bw: 10.0e9,
        }
    }
}

impl CostModel {
    /// Time to pull `nodes` remote feature rows of `feat_dim` elements in
    /// one bulk RPC: `latency + bytes / bw`, at the wire's element width.
    /// Zero nodes costs zero (DistDGL skips empty pulls).
    pub fn t_rpc(&self, nodes: usize, feat_dim: usize) -> f64 {
        if nodes == 0 {
            return 0.0;
        }
        let bytes = (nodes * feat_dim * crate::wire::BYTES_PER_ELEM) as f64;
        self.rpc_latency_s + nodes as f64 * self.rpc_per_node_s + bytes / self.network_bw
    }

    /// Time to gather `nodes` local f32 feature rows from the partition's
    /// KVStore (memory copy).
    pub fn t_copy(&self, nodes: usize, feat_dim: usize) -> f64 {
        let bytes = (nodes * feat_dim * 4) as f64;
        bytes / self.copy_bw
    }

    /// Neighbor sampling time for `edges` sampled edges.
    pub fn t_sampling(&self, edges: usize) -> f64 {
        edges as f64 * self.sample_edge_s
    }

    /// Prefetch-buffer lookup time for `nodes` probes.
    pub fn t_lookup(&self, nodes: usize) -> f64 {
        nodes as f64 * self.lookup_node_s
    }

    /// Scoreboard maintenance time for `nodes` score updates; when
    /// `mem_efficient`, adds the binary-search factor over `halo` entries
    /// (§IV-B: O(log |V_p^h|) per update).
    pub fn t_scoring(&self, nodes: usize, mem_efficient: bool, halo: usize) -> f64 {
        let base = nodes as f64 * self.score_node_s;
        if mem_efficient && halo > 1 {
            base + nodes as f64 * self.score_search_s * (halo as f64).log2()
        } else {
            base
        }
    }

    /// DDP training time for one minibatch: compute (`macs` multiply-
    /// accumulates on `backend`) + H2D input copy on GPU + ring allreduce of
    /// `param_bytes` across `world` trainers.
    pub fn t_ddp(
        &self,
        macs: f64,
        input_bytes: usize,
        param_bytes: usize,
        world: usize,
        backend: Backend,
    ) -> f64 {
        let compute = match backend {
            Backend::Cpu => macs / self.cpu_macs,
            Backend::Gpu => macs / self.gpu_macs + input_bytes as f64 / self.h2d_bw,
        };
        compute + self.t_allreduce(param_bytes, world)
    }

    /// Ring-allreduce time: `2(p-1)` hops of latency plus `2(p-1)/p` of the
    /// payload over the allreduce bandwidth.
    pub fn t_allreduce(&self, bytes: usize, world: usize) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let p = world as f64;
        2.0 * (p - 1.0) * self.allreduce_latency_s
            + 2.0 * (p - 1.0) / p * bytes as f64 / self.allreduce_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_zero_nodes_is_free() {
        let c = CostModel::default();
        assert_eq!(c.t_rpc(0, 128), 0.0);
        assert!(c.t_rpc(1, 128) >= c.rpc_latency_s);
    }

    #[test]
    fn rpc_scales_with_bytes() {
        let c = CostModel::default();
        let small = c.t_rpc(100, 128);
        let large = c.t_rpc(10_000, 128);
        assert!(large > small);
        // Asymptotically linear: double the nodes ≈ double the per-node terms.
        let t1 = c.t_rpc(1_000_000, 128) - c.rpc_latency_s;
        let t2 = c.t_rpc(2_000_000, 128) - c.rpc_latency_s;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn remote_fetch_slower_than_local_copy() {
        let c = CostModel::default();
        assert!(c.t_rpc(1000, 128) > c.t_copy(1000, 128));
    }

    #[test]
    fn gpu_compute_faster_than_cpu() {
        let c = CostModel::default();
        let macs = 1e9;
        let cpu = c.t_ddp(macs, 1 << 20, 1 << 20, 8, Backend::Cpu);
        let gpu = c.t_ddp(macs, 1 << 20, 1 << 20, 8, Backend::Gpu);
        assert!(gpu < cpu);
    }

    #[test]
    fn allreduce_zero_for_single_trainer() {
        let c = CostModel::default();
        assert_eq!(c.t_allreduce(1 << 20, 1), 0.0);
        assert!(c.t_allreduce(1 << 20, 2) > 0.0);
        // More trainers, more latency hops.
        assert!(c.t_allreduce(1 << 20, 16) > c.t_allreduce(1 << 20, 2));
    }

    #[test]
    fn mem_efficient_scoring_costs_more() {
        let c = CostModel::default();
        let dense = c.t_scoring(1000, false, 1 << 20);
        let eff = c.t_scoring(1000, true, 1 << 20);
        assert!(eff > dense);
        // Degenerate halo: no search term.
        assert_eq!(c.t_scoring(10, true, 1), c.t_scoring(10, false, 1));
    }

    #[test]
    fn cpu_regime_has_rpc_over_ddp_above_one() {
        // The paper's CPU setting: feature movement dominates training.
        // A products-like minibatch: ~50k sampled nodes, 100-dim features,
        // ~40k remote; model ~ 2 layers of (50k×100×256) MACs.
        let c = CostModel::default();
        let t_rpc = c.t_rpc(40_000, 100);
        let macs = 2.0 * 50_000.0 * 100.0 * 256.0 * 3.0; // fwd+bwd approx
        let t_ddp_cpu = c.t_ddp(macs, 50_000 * 400, 4 << 20, 8, Backend::Cpu);
        let t_ddp_gpu = c.t_ddp(macs, 50_000 * 400, 4 << 20, 8, Backend::Gpu);
        let ratio_cpu = t_rpc / t_ddp_cpu;
        let ratio_gpu = t_rpc / t_ddp_gpu;
        // GPU ratio must exceed CPU ratio (fast compute no longer hides
        // comms), CPU compute must be long enough to hide the RPC (perfect
        // overlap, Fig. 9), and on GPU feature movement lands on the
        // critical path (Eq. 6's t_RPC/t_DDP ≥ 1 regime).
        assert!(ratio_gpu > ratio_cpu);
        assert!(ratio_cpu < 1.0, "CPU t_rpc/t_ddp {ratio_cpu}");
        assert!(ratio_gpu > 1.0, "GPU t_rpc/t_ddp {ratio_gpu}");
    }
}
