//! GraphSAGE with mean aggregation.
//!
//! Per layer: `out_i = act( h_i · W_self  +  mean_{j∈N(i)} h_j · W_neigh + b )`
//! where `N(i)` are the block-sampled in-neighbors of dst `i`. The final
//! layer omits the activation (logits).

use crate::layer::{mean_aggregate, mean_aggregate_backward, Cache, Layer};
use crate::model::Stack;
use mgnn_sampling::Block;
use mgnn_tensor::{Linear, Tensor};

/// One SAGE convolution layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// Transform of the node's own embedding.
    pub w_self: Linear,
    /// Transform of the mean-aggregated neighborhood.
    pub w_neigh: Linear,
    // Cached forward state for backward.
    cached: Option<Cache>,
}

impl SageLayer {
    /// New layer `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        SageLayer {
            w_self: Linear::new(in_dim, out_dim, seed),
            w_neigh: Linear::new(in_dim, out_dim, seed ^ 0x5a5a),
            cached: None,
        }
    }
}

impl Layer for SageLayer {
    fn forward(&mut self, block: &Block, src: &Tensor, activate: bool) -> Tensor {
        assert_eq!(src.rows(), block.num_src());
        // Self path uses the dst prefix of src.
        let dst_feats = Tensor::from_vec(
            block.num_dst,
            src.cols(),
            src.data()[..block.num_dst * src.cols()].to_vec(),
        );
        let agg = mean_aggregate(block, src, false);
        let mut pre = self.w_self.forward(&dst_feats);
        pre.add_assign(&self.w_neigh.forward(&agg));
        Cache::store(&mut self.cached, block, pre, activate, ())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (cache, grad_pre) = Cache::take(&mut self.cached, grad_out);
        // Through the two linears.
        let grad_dst = self.w_self.backward(&grad_pre);
        let grad_agg = self.w_neigh.backward(&grad_pre);
        // Assemble grad for all src rows.
        let mut grad_src = Tensor::zeros(cache.block.num_src(), self.w_self.in_dim());
        // Self path hits the dst prefix.
        for i in 0..cache.block.num_dst {
            let g = grad_dst.row(i);
            let dst = grad_src.row_mut(i);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v;
            }
        }
        mean_aggregate_backward(&cache.block, &grad_agg, &mut grad_src, false);
        grad_src
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let (_, grad_pre) = Cache::take(&mut self.cached, grad_out);
        self.w_self.backward_params(&grad_pre);
        self.w_neigh.backward_params(&grad_pre);
    }

    fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32])) {
        self.w_self.visit(visit);
        self.w_neigh.visit(visit);
    }

    fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.w_self.visit_mut(visit);
        self.w_neigh.visit_mut(visit);
    }

    fn macs(&self, block: &Block) -> f64 {
        let in_d = self.w_self.in_dim() as f64;
        let out_d = self.w_self.out_dim() as f64;
        // The two linears over the dst rows, plus aggregation edge work.
        2.0 * block.num_dst as f64 * in_d * out_d + block.num_edges() as f64 * in_d
    }
}

/// A stacked GraphSAGE model (the paper's is 2 layers, hidden 256).
pub type SageModel = Stack<SageLayer>;

impl SageModel {
    /// Build a model with `dims = [in, hidden, ..., out]` (one layer per
    /// adjacent pair).
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| SageLayer::new(w[0], w[1], seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Stack { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        // 2 dst, 4 src; dst0 aggregates src2,src3; dst1 aggregates src0.
        Block {
            num_dst: 2,
            src_nodes: vec![100, 101, 102, 103],
            offsets: vec![0, 2, 3],
            indices: vec![2, 3, 0],
        }
    }

    #[test]
    fn aggregate_means_neighbors() {
        let src = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, 4.0]);
        let agg = mean_aggregate(&toy_block(), &src, false);
        assert_eq!(agg.row(0), &[3.0, 3.0]); // mean of src2, src3
        assert_eq!(agg.row(1), &[1.0, 0.0]); // src0
    }

    #[test]
    fn empty_neighborhood_aggregates_zero() {
        let block = Block {
            num_dst: 1,
            src_nodes: vec![7],
            offsets: vec![0, 0],
            indices: vec![],
        };
        let src = Tensor::from_vec(1, 2, vec![5.0, 5.0]);
        let agg = mean_aggregate(&block, &src, false);
        assert_eq!(agg.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn forward_shapes() {
        let mut layer = SageLayer::new(2, 3, 1);
        let src = Tensor::from_vec(4, 2, vec![0.1; 8]);
        let out = layer.forward(&toy_block(), &src, true);
        assert_eq!(out.shape(), (2, 3));
        assert!(out.data().iter().all(|&v| v >= 0.0)); // post-ReLU
    }

    #[test]
    fn gradients_match_finite_differences() {
        let block = toy_block();
        let mut layer = SageLayer::new(2, 2, 3);
        let src = Tensor::from_vec(4, 2, vec![0.3, -0.1, 0.2, 0.4, -0.5, 0.6, 0.1, -0.2]);

        let loss_of = |layer: &SageLayer, src: &Tensor| -> f32 {
            let mut l = layer.clone();
            l.forward(&block, src, true).data().iter().sum()
        };

        let out = layer.forward(&block, &src, true);
        let ones = Tensor::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let grad_src = layer.backward(&ones);

        let eps = 1e-3f32;
        // dX
        for idx in 0..8 {
            let mut xp = src.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = src.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * eps);
            let ana = grad_src.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dX[{idx}] {num} vs {ana}");
        }
        // dW_self
        for idx in 0..4 {
            let mut lp = layer.clone();
            lp.w_self.weight.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.w_self.weight.data_mut()[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.w_self.grad_weight.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dWs[{idx}] {num} vs {ana}");
        }
        // dW_neigh
        for idx in 0..4 {
            let mut lp = layer.clone();
            lp.w_neigh.weight.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.w_neigh.weight.data_mut()[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.w_neigh.grad_weight.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dWn[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn model_construction() {
        let m = SageModel::new(&[16, 32, 8], 5);
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.layers[0].w_self.in_dim(), 16);
        assert_eq!(m.layers[1].w_self.out_dim(), 8);
    }
}
