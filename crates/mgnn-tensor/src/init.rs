//! Seeded parameter initializers.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Tensor {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Uniform in `(-bound, bound)`.
pub fn uniform(rows: usize, cols: usize, bound: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_and_determinism() {
        let w = xavier_uniform(64, 32, 5);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= a));
        assert_eq!(w, xavier_uniform(64, 32, 5));
        assert_ne!(w, xavier_uniform(64, 32, 6));
    }

    #[test]
    fn xavier_not_degenerate() {
        let w = xavier_uniform(32, 32, 1);
        let mean: f32 = w.data().iter().sum::<f32>() / 1024.0;
        assert!(mean.abs() < 0.05);
        assert!(w.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn uniform_bound() {
        let w = uniform(10, 10, 0.5, 2);
        assert!(w.data().iter().all(|&v| v.abs() <= 0.5));
    }
}
