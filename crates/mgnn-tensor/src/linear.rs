//! Linear (fully connected) layer with explicit forward/backward.

use crate::init::xavier_uniform;
use crate::tensor::Tensor;

/// `y = x · W + b` with cached input for the backward pass.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub weight: Tensor,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient.
    pub grad_weight: Tensor,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            weight: xavier_uniform(in_dim, out_dim, seed),
            bias: vec![0.0; out_dim],
            grad_weight: Tensor::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass; caches `x` for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim());
        let mut y = x.matmul(&self.weight);
        y.add_row_broadcast(&self.bias);
        self.cached_input = Some(x.clone());
        y
    }

    /// Forward without caching (inference).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight);
        y.add_row_broadcast(&self.bias);
        y
    }

    /// Backward pass: accumulates `grad_weight`/`grad_bias`, returns grad
    /// w.r.t. the input. Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dX = dY · Wᵀ
        grad_out.matmul_t(&self.weight)
    }

    /// The parameter half of [`backward`](Self::backward) alone, for a
    /// layer whose input needs no gradient (a model's first: its input is
    /// data). Panics if called before `forward`.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = xᵀ · dY,  db = Σ_rows dY
        self.grad_weight.add_assign(&x.t_matmul(grad_out));
        for (gb, s) in self.grad_bias.iter_mut().zip(grad_out.sum_rows()) {
            *gb += s;
        }
    }

    /// Zero accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight = Tensor::zeros(self.in_dim(), self.out_dim());
        self.grad_bias.iter_mut().for_each(|b| *b = 0.0);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.in_dim() * self.out_dim() + self.out_dim()
    }

    /// Copy parameters into `out`, returning the number written.
    pub fn write_params(&self, out: &mut [f32]) -> usize {
        let w = self.weight.data();
        out[..w.len()].copy_from_slice(w);
        out[w.len()..w.len() + self.bias.len()].copy_from_slice(&self.bias);
        w.len() + self.bias.len()
    }

    /// Load parameters from `src`, returning the number read.
    pub fn read_params(&mut self, src: &[f32]) -> usize {
        let wlen = self.weight.data().len();
        self.weight.data_mut().copy_from_slice(&src[..wlen]);
        let blen = self.bias.len();
        self.bias.copy_from_slice(&src[wlen..wlen + blen]);
        wlen + blen
    }

    /// Copy gradients into `out`, returning the number written.
    pub fn write_grads(&self, out: &mut [f32]) -> usize {
        let w = self.grad_weight.data();
        out[..w.len()].copy_from_slice(w);
        out[w.len()..w.len() + self.grad_bias.len()].copy_from_slice(&self.grad_bias);
        w.len() + self.grad_bias.len()
    }

    /// Load gradients from `src` (after allreduce), returning number read.
    pub fn read_grads(&mut self, src: &[f32]) -> usize {
        let wlen = self.grad_weight.data().len();
        self.grad_weight.data_mut().copy_from_slice(&src[..wlen]);
        let blen = self.grad_bias.len();
        self.grad_bias.copy_from_slice(&src[wlen..wlen + blen]);
        wlen + blen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the full backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 42);
        let x = Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.1]);
        // Loss = sum(y); dL/dy = ones.
        let y = layer.forward(&x);
        let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        layer.zero_grad();
        let gx = layer.backward(&ones);

        let eps = 1e-3f32;
        // Check dW numerically.
        for idx in 0..6 {
            let mut wp = layer.clone();
            wp.weight.data_mut()[idx] += eps;
            let mut wm = layer.clone();
            wm.weight.data_mut()[idx] -= eps;
            let lp: f32 = wp.forward_inference(&x).data().iter().sum();
            let lm: f32 = wm.forward_inference(&x).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.grad_weight.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dW[{idx}]: {num} vs {ana}");
        }
        // Check dX numerically.
        for idx in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward_inference(&xp).data().iter().sum();
            let lm: f32 = layer.forward_inference(&xm).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dX[{idx}]: {num} vs {ana}");
        }
        // Bias gradient is just the row count here.
        for &gb in &layer.grad_bias {
            assert!((gb - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn params_round_trip() {
        let layer = Linear::new(4, 3, 7);
        let mut buf = vec![0.0f32; layer.num_params()];
        assert_eq!(layer.write_params(&mut buf), 15);
        let mut other = Linear::new(4, 3, 99);
        other.read_params(&buf);
        assert_eq!(other.weight, layer.weight);
        assert_eq!(other.bias, layer.bias);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut layer = Linear::new(2, 2, 1);
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let g = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        layer.forward(&x);
        layer.backward(&g);
        let after_one = layer.grad_weight.clone();
        layer.forward(&x);
        layer.backward(&g);
        for (a, b) in layer.grad_weight.data().iter().zip(after_one.data()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
        layer.zero_grad();
        assert!(layer.grad_weight.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn backward_before_forward_panics() {
        let mut layer = Linear::new(2, 2, 0);
        layer.backward(&Tensor::zeros(1, 2));
    }
}
