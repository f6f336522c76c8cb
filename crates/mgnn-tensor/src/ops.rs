//! ReLU with its backward pass, and the row-wise softmax.

use crate::tensor::Tensor;

/// ReLU forward: `max(0, x)`.
pub fn relu(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| v.max(0.0)).collect();
    Tensor::from_vec(x.rows(), x.cols(), data)
}

/// ReLU backward: `grad * (x > 0)` where `x` is the forward *input*.
pub fn relu_backward(grad: &Tensor, input: &Tensor) -> Tensor {
    assert_eq!(grad.shape(), input.shape());
    let data = grad
        .data()
        .iter()
        .zip(input.data())
        .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
        .collect();
    Tensor::from_vec(grad.rows(), grad.cols(), data)
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for i in 0..x.rows() {
        let row = x.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let orow = out.row_mut(i);
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        let inv = 1.0 / sum;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::from_vec(1, 4, vec![1.0; 4]);
        let gx = relu_backward(&g, &x);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Stability: huge inputs don't produce NaN.
        assert!(s.data().iter().all(|v| v.is_finite()));
        // Monotone: bigger logit, bigger prob.
        assert!(s.get(0, 2) > s.get(0, 0));
    }
}
