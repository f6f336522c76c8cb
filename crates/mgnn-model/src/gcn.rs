//! Graph Convolutional Network layer (Kipf & Welling, block-sampled form)
//! — an extension beyond the paper's GraphSAGE/GAT pair, reinforcing the
//! claim that the prefetch scheme is architecture-agnostic.
//!
//! Per layer, with self-loop and mean normalization over the sampled
//! neighborhood: `out_i = act( mean_{j ∈ N(i) ∪ {i}} h_j · W + b )`.

use crate::layer::{mean_aggregate, mean_aggregate_backward, Cache, Layer};
use crate::model::Stack;
use mgnn_sampling::Block;
use mgnn_tensor::{Linear, Tensor};

/// One GCN convolution layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    /// The shared projection.
    pub w: Linear,
    cached: Option<Cache>,
}

impl GcnLayer {
    /// New layer `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer {
            w: Linear::new(in_dim, out_dim, seed),
            cached: None,
        }
    }
}

impl Layer for GcnLayer {
    fn forward(&mut self, block: &Block, src: &Tensor, activate: bool) -> Tensor {
        assert_eq!(src.rows(), block.num_src());
        let agg = mean_aggregate(block, src, true);
        let pre = self.w.forward(&agg);
        Cache::store(&mut self.cached, block, pre, activate, ())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (cache, grad_pre) = Cache::take(&mut self.cached, grad_out);
        let grad_agg = self.w.backward(&grad_pre);
        let mut grad_src = Tensor::zeros(cache.block.num_src(), self.w.in_dim());
        mean_aggregate_backward(&cache.block, &grad_agg, &mut grad_src, true);
        grad_src
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let (_, grad_pre) = Cache::take(&mut self.cached, grad_out);
        self.w.backward_params(&grad_pre);
    }

    fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32])) {
        self.w.visit(visit);
    }

    fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.w.visit_mut(visit);
    }

    fn macs(&self, block: &Block) -> f64 {
        let in_d = self.w.in_dim() as f64;
        // The projection over the dst rows, plus aggregation edge work.
        block.num_dst as f64 * in_d * self.w.out_dim() as f64
            + (block.num_edges() + block.num_dst) as f64 * in_d
    }
}

/// A stacked GCN.
pub type GcnModel = Stack<GcnLayer>;

impl GcnModel {
    /// `dims = [in, hidden, ..., out]`.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| GcnLayer::new(w[0], w[1], seed.wrapping_add(i as u64 * 6151)))
            .collect();
        Stack { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        Block {
            num_dst: 2,
            src_nodes: vec![100, 101, 102, 103],
            offsets: vec![0, 2, 3],
            indices: vec![2, 3, 0],
        }
    }

    #[test]
    fn aggregate_includes_self() {
        let src = Tensor::from_vec(4, 1, vec![1.0, 2.0, 3.0, 5.0]);
        let agg = mean_aggregate(&toy_block(), &src, true);
        // dst0: mean(self=1, 3, 5) = 3; dst1: mean(self=2, 1) = 1.5
        assert!((agg.get(0, 0) - 3.0).abs() < 1e-6);
        assert!((agg.get(1, 0) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let block = toy_block();
        let mut layer = GcnLayer::new(2, 2, 11);
        let src = Tensor::from_vec(4, 2, vec![0.3, -0.1, 0.2, 0.4, -0.5, 0.6, 0.1, -0.2]);
        let loss_of = |layer: &GcnLayer, src: &Tensor| -> f32 {
            let mut l = layer.clone();
            l.forward(&block, src, true).data().iter().sum()
        };
        let out = layer.forward(&block, &src, true);
        let ones = Tensor::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let grad_src = layer.backward(&ones);
        let eps = 1e-3f32;
        for idx in 0..8 {
            let mut xp = src.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = src.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * eps);
            assert!(
                (num - grad_src.data()[idx]).abs() < 1e-2,
                "dX[{idx}] {num} vs {}",
                grad_src.data()[idx]
            );
        }
        for idx in 0..4 {
            let mut lp = layer.clone();
            lp.w.weight.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.w.weight.data_mut()[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.w.grad_weight.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dW[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn model_shapes() {
        let m = GcnModel::new(&[8, 16, 3], 3);
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.layers[0].w.in_dim(), 8);
        assert_eq!(m.layers[1].w.out_dim(), 3);
    }
}
