//! Graph Attention Network layer (Veličković et al.) with explicit
//! backward, multi-head, matching the paper's §V-A4 configuration
//! (2 attention heads, NeighborSampler).
//!
//! Each dst node attends over its sampled neighbors *plus itself*
//! (self-loop attention, as DGL's `GATConv` with added self-loops):
//!
//! ```text
//! z   = X · W                      (per head)
//! e_ij = LeakyReLU(a_l·z_i + a_r·z_j)   j ∈ N(i) ∪ {i}
//! α_i· = softmax_j(e_i·)
//! out_i = Σ_j α_ij · z_j
//! ```
//!
//! Hidden layers concatenate heads and apply ReLU (the usual GAT uses
//! ELU; ReLU keeps the backward a pure mask); the output layer averages
//! the heads into class logits.

use crate::layer::{Cache, Layer};
use crate::model::Stack;
use mgnn_sampling::Block;
use mgnn_tensor::{Linear, Tensor};

const LEAKY_SLOPE: f32 = 0.2;

/// One multi-head GAT layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    /// Number of attention heads.
    pub heads: usize,
    /// Per-head output dimension.
    pub head_dim: usize,
    /// Fused projection `in_dim × (heads · head_dim)`.
    pub w: Linear,
    /// Left (dst) attention vectors, `heads × head_dim` row-major.
    pub a_l: Vec<f32>,
    /// Right (src) attention vectors, `heads × head_dim` row-major.
    pub a_r: Vec<f32>,
    /// Gradient of `a_l`.
    pub grad_a_l: Vec<f32>,
    /// Gradient of `a_r`.
    pub grad_a_r: Vec<f32>,
    /// Concatenate heads (hidden layers) vs average (output layer).
    pub concat: bool,
    cached: Option<Cache<Attention>>,
}

/// What the attention's backward needs besides the shared [`Cache`].
#[derive(Debug, Clone)]
struct Attention {
    /// Projected features, `num_src × heads·head_dim`.
    z: Tensor,
    /// Attention coefficients per head per dst, ragged:
    /// `alpha[h][att_offsets[i]..att_offsets[i+1]]`.
    alpha: Vec<Vec<f32>>,
    /// Pre-activation attention logits `s_ij` (same ragged layout).
    s: Vec<Vec<f32>>,
    /// Ragged offsets per dst (shared across heads): attention set size is
    /// `1 + deg(i)` (self first).
    att_offsets: Vec<u32>,
}

impl GatLayer {
    /// New layer: `in_dim → heads · head_dim` (concat) or `head_dim` (avg).
    pub fn new(in_dim: usize, head_dim: usize, heads: usize, concat: bool, seed: u64) -> Self {
        let a_scale = (1.0 / head_dim as f32).sqrt();
        let a_l = mgnn_tensor::init::uniform(heads, head_dim, a_scale, seed ^ 0x11)
            .data()
            .to_vec();
        let a_r = mgnn_tensor::init::uniform(heads, head_dim, a_scale, seed ^ 0x22)
            .data()
            .to_vec();
        GatLayer {
            heads,
            head_dim,
            w: Linear::new(in_dim, heads * head_dim, seed),
            grad_a_l: vec![0.0; a_l.len()],
            grad_a_r: vec![0.0; a_r.len()],
            a_l,
            a_r,
            concat,
            cached: None,
        }
    }

    /// Output dimension of this layer.
    pub fn out_dim(&self) -> usize {
        if self.concat {
            self.heads * self.head_dim
        } else {
            self.head_dim
        }
    }

    /// Through the activation and the attention: accumulates the
    /// gradients of `a_l`/`a_r` and returns the gradient at the projected
    /// features `z`.
    fn grad_z(&mut self, grad_out: &Tensor) -> Tensor {
        let (cache, grad_out) = Cache::take(&mut self.cached, grad_out);
        let (heads, d) = (self.heads, self.head_dim);
        let block = &cache.block;
        let Attention {
            z,
            alpha,
            s,
            att_offsets,
        } = &cache.extra;
        let mut dz = Tensor::zeros(z.rows(), z.cols());

        for h in 0..heads {
            let al = &self.a_l[h * d..(h + 1) * d];
            let ar = &self.a_r[h * d..(h + 1) * d];
            let zcol = h * d;
            let ocol = if self.concat { h * d } else { 0 };
            let scale = if self.concat { 1.0 } else { 1.0 / heads as f32 };
            for (i, &att_start) in att_offsets.iter().take(block.num_dst).enumerate() {
                let start = att_start as usize;
                let nbrs = block.neighbors_of(i);
                let cnt = 1 + nbrs.len();
                let gi = &grad_out.row(i)[ocol..ocol + d];

                // dα_ij = (g_i · z_j) · scale ; dz_j += α_ij·scale · g_i
                let mut dalpha = vec![0.0f32; cnt];
                for (k, &j) in std::iter::once(&(i as u32)).chain(nbrs.iter()).enumerate() {
                    let a = alpha[h][start + k];
                    let zj = &z.row(j as usize)[zcol..zcol + d];
                    dalpha[k] = scale * gi.iter().zip(zj).map(|(a, b)| a * b).sum::<f32>();
                    let dzj = dz.row_mut(j as usize);
                    for (dd, &g) in dzj[zcol..zcol + d].iter_mut().zip(gi) {
                        *dd += a * scale * g;
                    }
                }
                // Softmax backward.
                let dot: f32 = (0..cnt).map(|k| alpha[h][start + k] * dalpha[k]).sum();
                let mut dli = 0.0f32;
                for (k, &j) in std::iter::once(&(i as u32)).chain(nbrs.iter()).enumerate() {
                    let a = alpha[h][start + k];
                    let de = a * (dalpha[k] - dot);
                    let sij = s[h][start + k];
                    let ds = if sij > 0.0 { de } else { LEAKY_SLOPE * de };
                    dli += ds;
                    // r_j path: da_r += ds·z_j ; dz_j += ds·a_r
                    let zj_row = j as usize;
                    {
                        let zj = &z.row(zj_row)[zcol..zcol + d];
                        for (ga, &v) in self.grad_a_r[h * d..(h + 1) * d].iter_mut().zip(zj) {
                            *ga += ds * v;
                        }
                    }
                    let dzj = dz.row_mut(zj_row);
                    for (dd, &a_v) in dzj[zcol..zcol + d].iter_mut().zip(ar) {
                        *dd += ds * a_v;
                    }
                }
                // l_i path: da_l += dli·z_i ; dz_i += dli·a_l
                {
                    let zi = &z.row(i)[zcol..zcol + d];
                    for (ga, &v) in self.grad_a_l[h * d..(h + 1) * d].iter_mut().zip(zi) {
                        *ga += dli * v;
                    }
                }
                let dzi = dz.row_mut(i);
                for (dd, &a_v) in dzi[zcol..zcol + d].iter_mut().zip(al) {
                    *dd += dli * a_v;
                }
            }
        }
        dz
    }
}

impl Layer for GatLayer {
    fn forward(&mut self, block: &Block, src: &Tensor, activate: bool) -> Tensor {
        assert_eq!(src.rows(), block.num_src());
        let z = self.w.forward(src);
        let (heads, d) = (self.heads, self.head_dim);

        let mut att_offsets: Vec<u32> = Vec::with_capacity(block.num_dst + 1);
        att_offsets.push(0);
        for i in 0..block.num_dst {
            let deg = block.neighbors_of(i).len() as u32;
            att_offsets.push(att_offsets[i] + 1 + deg);
        }
        let total = *att_offsets.last().unwrap() as usize;

        let mut alpha: Vec<Vec<f32>> = vec![vec![0.0; total]; heads];
        let mut s_store: Vec<Vec<f32>> = vec![vec![0.0; total]; heads];
        let mut out = Tensor::zeros(block.num_dst, self.out_dim());

        for h in 0..heads {
            let al = &self.a_l[h * d..(h + 1) * d];
            let ar = &self.a_r[h * d..(h + 1) * d];
            let zcol = h * d;
            for (i, &att_start) in att_offsets.iter().take(block.num_dst).enumerate() {
                let start = att_start as usize;
                let zi = &z.row(i)[zcol..zcol + d];
                let li: f32 = zi.iter().zip(al).map(|(a, b)| a * b).sum();
                // Attention set: self then neighbors.
                let nbrs = block.neighbors_of(i);
                let mut smax = f32::NEG_INFINITY;
                for (k, &j) in std::iter::once(&(i as u32)).chain(nbrs.iter()).enumerate() {
                    let zj = &z.row(j as usize)[zcol..zcol + d];
                    let rj: f32 = zj.iter().zip(ar).map(|(a, b)| a * b).sum();
                    let sij = li + rj;
                    s_store[h][start + k] = sij;
                    let e = if sij > 0.0 { sij } else { LEAKY_SLOPE * sij };
                    alpha[h][start + k] = e;
                    smax = smax.max(e);
                }
                // Softmax over the attention set.
                let cnt = 1 + nbrs.len();
                let mut sum = 0.0f32;
                for k in 0..cnt {
                    let e = (alpha[h][start + k] - smax).exp();
                    alpha[h][start + k] = e;
                    sum += e;
                }
                let inv = 1.0 / sum;
                for k in 0..cnt {
                    alpha[h][start + k] *= inv;
                }
                // Weighted sum of z_j.
                let ocol = if self.concat { h * d } else { 0 };
                let scale = if self.concat { 1.0 } else { 1.0 / heads as f32 };
                for (k, &j) in std::iter::once(&(i as u32)).chain(nbrs.iter()).enumerate() {
                    let a = alpha[h][start + k] * scale;
                    let zj = &z.row(j as usize)[zcol..zcol + d];
                    let orow = out.row_mut(i);
                    for (o, &v) in orow[ocol..ocol + d].iter_mut().zip(zj) {
                        *o += a * v;
                    }
                }
            }
        }

        let attention = Attention {
            z,
            alpha,
            s: s_store,
            att_offsets,
        };
        Cache::store(&mut self.cached, block, out, activate, attention)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dz = self.grad_z(grad_out);
        self.w.backward(&dz)
    }

    /// Leaves out the one product (`dz · Wᵀ`) that only the input's
    /// gradient needs.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let dz = self.grad_z(grad_out);
        self.w.backward_params(&dz);
    }

    fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32])) {
        self.w.visit(visit);
        visit(&self.a_l, &self.grad_a_l);
        visit(&self.a_r, &self.grad_a_r);
    }

    fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.w.visit_mut(visit);
        visit(&mut self.a_l, &mut self.grad_a_l);
        visit(&mut self.a_r, &mut self.grad_a_r);
    }

    fn macs(&self, block: &Block) -> f64 {
        let projection = block.num_src() as f64 * self.w.in_dim() as f64 * self.w.out_dim() as f64;
        // Attention: per edge (incl. self) per head, dot products.
        let edges = (block.num_edges() + block.num_dst) as f64;
        projection + edges * self.heads as f64 * self.head_dim as f64 * 3.0
    }
}

/// A stacked GAT model: hidden layers concatenate their heads (the
/// paper's 2-head config), the final layer averages them into class logits.
pub type GatModel = Stack<GatLayer>;

impl GatModel {
    /// `dims = [in, hidden, ..., out]`, all hidden layers with `heads`
    /// heads concatenated, the final layer averaging.
    pub fn new(dims: &[usize], heads: usize, seed: u64) -> Self {
        assert!(dims.len() >= 2);
        let n = dims.len() - 1;
        let mut layers = Vec::with_capacity(n);
        let mut in_dim = dims[0];
        for (i, &out) in dims[1..].iter().enumerate() {
            let last = i == n - 1;
            // Hidden layers emit heads*out (concat); the head_dim is `out`.
            let layer = GatLayer::new(
                in_dim,
                out,
                heads,
                !last,
                seed.wrapping_add(i as u64 * 104729),
            );
            in_dim = layer.out_dim();
            layers.push(layer);
        }
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
    fn forward_shapes_concat_and_mean() {
        let src = Tensor::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.1).collect());
        let mut concat = GatLayer::new(3, 4, 2, true, 1);
        assert_eq!(concat.forward(&toy_block(), &src, false).shape(), (2, 8));
        let mut mean = GatLayer::new(3, 4, 2, false, 1);
        assert_eq!(mean.forward(&toy_block(), &src, false).shape(), (2, 4));
    }

    #[test]
    fn attention_weights_normalized() {
        let src = Tensor::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.3 - 1.0).collect());
        let mut layer = GatLayer::new(3, 2, 2, true, 3);
        layer.forward(&toy_block(), &src, false);
        let cache = &layer.cached.as_ref().unwrap().extra;
        for h in 0..2 {
            for i in 0..2 {
                let start = cache.att_offsets[i] as usize;
                let end = cache.att_offsets[i + 1] as usize;
                let sum: f32 = cache.alpha[h][start..end].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "head {h} dst {i} sum {sum}");
            }
        }
    }

    #[test]
    fn isolated_dst_attends_to_self_only() {
        let block = Block {
            num_dst: 1,
            src_nodes: vec![7],
            offsets: vec![0, 0],
            indices: vec![],
        };
        let src = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let mut layer = GatLayer::new(2, 2, 1, true, 5);
        let out = layer.forward(&block, &src, false);
        // α over {self} is 1, so out = z_self exactly.
        let z = layer.w.forward_inference(&src);
        for (o, zv) in out.data().iter().zip(z.data()) {
            assert!((o - zv).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let block = toy_block();
        let mut layer = GatLayer::new(2, 2, 2, true, 7);
        let src = Tensor::from_vec(4, 2, vec![0.3, -0.1, 0.2, 0.4, -0.5, 0.6, 0.1, -0.2]);

        let loss_of = |layer: &GatLayer, src: &Tensor| -> f32 {
            let mut l = layer.clone();
            l.forward(&block, src, false).data().iter().sum()
        };

        let out = layer.forward(&block, &src, false);
        let ones = Tensor::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let grad_src = layer.backward(&ones);

        let eps = 1e-3f32;
        for idx in 0..8 {
            let mut xp = src.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = src.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * eps);
            let ana = grad_src.data()[idx];
            assert!((num - ana).abs() < 2e-2, "dX[{idx}] {num} vs {ana}");
        }
        // a_l gradient
        for idx in 0..4 {
            let mut lp = layer.clone();
            lp.a_l[idx] += eps;
            let mut lm = layer.clone();
            lm.a_l[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.grad_a_l[idx];
            assert!((num - ana).abs() < 2e-2, "da_l[{idx}] {num} vs {ana}");
        }
        // a_r gradient
        for idx in 0..4 {
            let mut lp = layer.clone();
            lp.a_r[idx] += eps;
            let mut lm = layer.clone();
            lm.a_r[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.grad_a_r[idx];
            assert!((num - ana).abs() < 2e-2, "da_r[{idx}] {num} vs {ana}");
        }
        // W gradient (spot-check a few entries)
        for idx in 0..8 {
            let mut lp = layer.clone();
            lp.w.weight.data_mut()[idx] += eps;
            let mut lm = layer.clone();
            lm.w.weight.data_mut()[idx] -= eps;
            let num = (loss_of(&lp, &src) - loss_of(&lm, &src)) / (2.0 * eps);
            let ana = layer.w.grad_weight.data()[idx];
            assert!((num - ana).abs() < 2e-2, "dW[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn model_dims_chain_through_concat() {
        let m = GatModel::new(&[16, 8, 4], 2, 1);
        assert_eq!(m.layers[0].out_dim(), 16); // 2 heads × 8 concat
        assert_eq!(m.layers[1].w.in_dim(), 16);
        assert_eq!(m.layers[1].out_dim(), 4); // averaged
    }
}
