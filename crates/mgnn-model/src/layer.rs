//! What one convolution owes the [`Stack`](crate::model::Stack) that runs
//! it, and the two pieces every layer shares: the forward cache with its
//! ReLU mask, and the mean-aggregation kernel.

use mgnn_sampling::Block;
use mgnn_tensor::ops::{relu, relu_backward};
use mgnn_tensor::Tensor;

/// One convolution over a sampled block, with explicit backward. A new
/// architecture is one `impl Layer`; the stack derives everything else.
pub trait Layer: Send + Sync {
    /// Forward over one block. `src` has `block.num_src()` rows; the
    /// output has `block.num_dst`. `activate` applies ReLU (hidden layers).
    fn forward(&mut self, block: &Block, src: &Tensor, activate: bool) -> Tensor;

    /// Backward: accumulates the parameter gradients and returns the
    /// gradient w.r.t. `src`. Panics if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`backward`](Self::backward) for a layer whose `src` is data:
    /// accumulates the parameter gradients and computes nothing else.
    fn backward_params(&mut self, grad_out: &Tensor);

    /// Calls `visit(parameters, their gradients)` once per parameter
    /// tensor, in the order of the flat buffers.
    fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32]));

    /// [`visit`](Self::visit) with both slices writable.
    fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Estimated multiply-accumulates of one *forward* over `block`.
    fn macs(&self, block: &Block) -> f64;
}

/// What a layer's forward leaves for its backward; `X` is whatever the
/// architecture keeps besides (GAT: its attention coefficients).
#[derive(Debug, Clone)]
pub(crate) struct Cache<X = ()> {
    /// Sparse aggregation structure of the block (cloned offsets/indices).
    pub(crate) block: Block,
    /// Pre-activation output, kept only when ReLU was applied.
    pre: Option<Tensor>,
    pub(crate) extra: X,
}

impl<X> Cache<X> {
    /// End of a forward: fills `slot` and returns the layer's output,
    /// `pre` with ReLU applied if `activate`.
    pub(crate) fn store(
        slot: &mut Option<Self>,
        block: &Block,
        pre: Tensor,
        activate: bool,
        extra: X,
    ) -> Tensor {
        let (out, pre) = if activate {
            (relu(&pre), Some(pre))
        } else {
            (pre, None)
        };
        let block = block.clone();
        *slot = Some(Cache { block, pre, extra });
        out
    }

    /// Head of a backward: empties `slot` and returns the cache with the
    /// gradient at the pre-activation.
    pub(crate) fn take(slot: &mut Option<Self>, grad_out: &Tensor) -> (Self, Tensor) {
        let cache = slot.take().expect("backward before forward");
        let grad_pre = match &cache.pre {
            Some(pre) => relu_backward(grad_out, pre),
            None => grad_out.clone(),
        };
        (cache, grad_pre)
    }
}

/// Mean of the src rows of each dst's sampled neighbours — and, with
/// `include_self`, of the dst's own row, added first. An empty set
/// aggregates to zero.
pub(crate) fn mean_aggregate(block: &Block, src: &Tensor, include_self: bool) -> Tensor {
    let mut agg = Tensor::zeros(block.num_dst, src.cols());
    for i in 0..block.num_dst {
        let nbrs = block.neighbors_of(i);
        let count = nbrs.len() + usize::from(include_self);
        if count == 0 {
            continue;
        }
        let inv = 1.0 / count as f32;
        let row = agg.row_mut(i);
        let own = include_self.then_some(i as u32);
        for j in own.iter().chain(nbrs) {
            for (r, &v) in row.iter_mut().zip(src.row(*j as usize)) {
                *r += v;
            }
        }
        for r in row.iter_mut() {
            *r *= inv;
        }
    }
    agg
}

/// Scatter-transpose of [`mean_aggregate`]: given the gradient on the
/// aggregated dst rows, adds `grad / count` onto each contributing src row.
pub(crate) fn mean_aggregate_backward(
    block: &Block,
    grad_agg: &Tensor,
    grad_src: &mut Tensor,
    include_self: bool,
) {
    for i in 0..block.num_dst {
        let nbrs = block.neighbors_of(i);
        let count = nbrs.len() + usize::from(include_self);
        if count == 0 {
            continue;
        }
        let inv = 1.0 / count as f32;
        let g = grad_agg.row(i);
        let own = include_self.then_some(i as u32);
        for j in own.iter().chain(nbrs) {
            for (d, &v) in grad_src.row_mut(*j as usize).iter_mut().zip(g) {
                *d += v * inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SAGE loop as it stood before the kernels were merged.
    fn neighbours_only(block: &Block, src: &Tensor) -> Tensor {
        let mut agg = Tensor::zeros(block.num_dst, src.cols());
        for i in 0..block.num_dst {
            let nbrs = block.neighbors_of(i);
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let row = agg.row_mut(i);
            for &j in nbrs {
                for (r, &v) in row.iter_mut().zip(src.row(j as usize)) {
                    *r += v;
                }
            }
            for r in row.iter_mut() {
                *r *= inv;
            }
        }
        agg
    }

    fn neighbours_only_backward(block: &Block, grad_agg: &Tensor, grad_src: &mut Tensor) {
        for i in 0..block.num_dst {
            let nbrs = block.neighbors_of(i);
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let g = grad_agg.row(i);
            for &j in nbrs {
                for (d, &v) in grad_src.row_mut(j as usize).iter_mut().zip(g) {
                    *d += v * inv;
                }
            }
        }
    }

    /// The GCN loop as it stood before the kernels were merged.
    fn with_self(block: &Block, src: &Tensor) -> Tensor {
        let mut agg = Tensor::zeros(block.num_dst, src.cols());
        for i in 0..block.num_dst {
            let nbrs = block.neighbors_of(i);
            let inv = 1.0 / (nbrs.len() + 1) as f32;
            let row = agg.row_mut(i);
            for (r, &v) in row.iter_mut().zip(src.row(i)) {
                *r += v;
            }
            for &j in nbrs {
                for (r, &v) in row.iter_mut().zip(src.row(j as usize)) {
                    *r += v;
                }
            }
            for r in row.iter_mut() {
                *r *= inv;
            }
        }
        agg
    }

    fn with_self_backward(block: &Block, grad_agg: &Tensor, grad_src: &mut Tensor) {
        for i in 0..block.num_dst {
            let nbrs = block.neighbors_of(i);
            let inv = 1.0 / (nbrs.len() + 1) as f32;
            let g = grad_agg.row(i);
            for (d, &v) in grad_src.row_mut(i).iter_mut().zip(g) {
                *d += v * inv;
            }
            for &j in nbrs {
                for (d, &v) in grad_src.row_mut(j as usize).iter_mut().zip(g) {
                    *d += v * inv;
                }
            }
        }
    }

    /// A seeded block of `num_dst` destinations over `num_src` sources
    /// whose dst 3 has no neighbour, and three matrices of mixed-sign,
    /// non-dyadic values: src features, dst gradient, a non-zero `grad_src`
    /// to accumulate onto.
    fn random_case(seed: u64) -> (Block, Tensor, Tensor, Tensor) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let (num_dst, num_src, dim) = (9, 40, 7);
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for i in 0..num_dst {
            let deg = if i == 3 { 0 } else { 1 + next() % 6 };
            indices.extend((0..deg).map(|_| next() % num_src as u32));
            offsets.push(indices.len() as u32);
        }
        let block = Block {
            num_dst,
            src_nodes: (0..num_src as u32).collect(),
            offsets,
            indices,
        };
        let mut matrix = |rows: usize| {
            let data = (0..rows * dim)
                .map(|_| next() as f32 / 1e9 - 1.07)
                .collect();
            Tensor::from_vec(rows, dim, data)
        };
        let (src, grad, onto) = (matrix(num_src), matrix(num_dst), matrix(num_src));
        (block, src, grad, onto)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn aggregation_matches_the_two_loops_it_replaced_bit_for_bit() {
        for seed in [1, 42, 20261005] {
            let (block, src, grad, onto) = random_case(seed);
            assert!(block.neighbors_of(3).is_empty());

            let sage = mean_aggregate(&block, &src, false);
            assert_eq!(bits(&sage), bits(&neighbours_only(&block, &src)));
            assert!(sage.row(3).iter().all(|&v| v == 0.0));
            let gcn = mean_aggregate(&block, &src, true);
            assert_eq!(bits(&gcn), bits(&with_self(&block, &src)));
            assert_eq!(gcn.row(3), src.row(3));

            let (mut got, mut want) = (onto.clone(), onto.clone());
            mean_aggregate_backward(&block, &grad, &mut got, false);
            neighbours_only_backward(&block, &grad, &mut want);
            assert_eq!(bits(&got), bits(&want));
            let (mut got, mut want) = (onto.clone(), onto);
            mean_aggregate_backward(&block, &grad, &mut got, true);
            with_self_backward(&block, &grad, &mut want);
            assert_eq!(bits(&got), bits(&want));
        }
    }
}
