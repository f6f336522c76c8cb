//! Optimizers over flat parameter/gradient buffers.

/// A first-order optimizer stepping flat parameter vectors.
pub trait Optimizer: Send {
    /// Apply one update: `params -= f(grads)`.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);
}

/// Plain SGD.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)² from x=0.
    fn run<O: Optimizer>(mut opt: O, iters: usize) -> f32 {
        let mut x = vec![0.0f32];
        for _ in 0..iters {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = run(Sgd::new(0.1), 100);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step(&mut [0.0], &[0.0, 1.0]);
    }
}
