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

    /// Calls `visit(parameters, their gradients)` for the weight, then
    /// for the bias: the order of every flat parameter/gradient buffer.
    pub fn visit(&self, visit: &mut dyn FnMut(&[f32], &[f32])) {
        visit(self.weight.data(), self.grad_weight.data());
        visit(&self.bias, &self.grad_bias);
    }

    /// [`visit`](Self::visit) with both slices writable.
    pub fn visit_mut(&mut self, visit: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visit(self.weight.data_mut(), self.grad_weight.data_mut());
        visit(&mut self.bias, &mut self.grad_bias);
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
        let mut buf = Vec::new();
        layer.visit(&mut |p, _| buf.extend_from_slice(p));
        assert_eq!(buf.len(), 15);
        let mut other = Linear::new(4, 3, 99);
        let mut at = 0;
        other.visit_mut(&mut |p, _| {
            p.copy_from_slice(&buf[at..at + p.len()]);
            at += p.len();
        });
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
        layer.visit_mut(&mut |_, g| g.fill(0.0));
        assert!(layer.grad_weight.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn backward_before_forward_panics() {
        let mut layer = Linear::new(2, 2, 0);
        layer.backward(&Tensor::zeros(1, 2));
    }
}
