//! Sparse row-normalized adjacency and SpMM.
//!
//! GNN aggregation is a sparse-dense matrix product `A·X` where `A` is the
//! (normalized) sampled adjacency. The model layers implement their
//! aggregations with fused scatter loops; this module provides the explicit
//! sparse form for library users who want to build custom layers, plus a
//! reference the fused implementations are tested against.

use crate::tensor::Tensor;
use rayon::prelude::*;

/// An immutable CSR sparse matrix of `f32` weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Build from CSR parts. Panics on malformed inputs.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        offsets: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(offsets.len(), rows + 1, "offsets length");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(*offsets.last().unwrap() as usize, indices.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets monotone");
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        SparseMatrix {
            rows,
            cols,
            offsets,
            indices,
            values,
        }
    }

    /// Row-mean aggregation matrix of a sampled bipartite layer:
    /// `A[i, j] = 1/deg(i)` for each sampled neighbor position `j` of dst
    /// `i` (rows with no neighbors are all-zero) — exactly GraphSAGE's
    /// neighbor-mean operator.
    pub fn mean_aggregator(
        num_dst: usize,
        num_src: usize,
        offsets: &[u32],
        indices: &[u32],
    ) -> Self {
        assert_eq!(offsets.len(), num_dst + 1);
        let mut values = Vec::with_capacity(indices.len());
        for i in 0..num_dst {
            let deg = (offsets[i + 1] - offsets[i]) as usize;
            let w = if deg == 0 { 0.0 } else { 1.0 / deg as f32 };
            values.extend(std::iter::repeat_n(w, deg));
        }
        SparseMatrix::from_parts(num_dst, num_src, offsets.to_vec(), indices.to_vec(), values)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sparse-dense product `self · x` (`rows×cols · cols×d → rows×d`),
    /// parallel over output rows.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        let d = x.cols();
        let mut out = vec![0.0f32; self.rows * d];
        out.par_chunks_mut(d).enumerate().for_each(|(i, orow)| {
            let s = self.offsets[i] as usize;
            let e = self.offsets[i + 1] as usize;
            for k in s..e {
                let j = self.indices[k] as usize;
                let w = self.values[k];
                if w == 0.0 {
                    continue;
                }
                let xrow = x.row(j);
                for (o, &v) in orow.iter_mut().zip(xrow) {
                    *o += w * v;
                }
            }
        });
        Tensor::from_vec(self.rows, d, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseMatrix {
        // 2×3: [[0.5 at col 2, 0.5 at col 0], [1.0 at col 1]]
        SparseMatrix::from_parts(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![0.5, 0.5, 1.0])
    }

    #[test]
    fn spmm_small() {
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = small().spmm(&x);
        // row0 = 0.5·x2 + 0.5·x0 = [3, 4]; row1 = x1 = [3, 4]
        assert_eq!(y.data(), &[3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn mean_aggregator_rows_sum_to_one_or_zero() {
        let a = SparseMatrix::mean_aggregator(3, 5, &[0, 2, 2, 5], &[0, 4, 1, 2, 3]);
        assert_eq!(a.nnz(), 5);
        let ones = Tensor::from_vec(5, 1, vec![1.0; 5]);
        let y = a.spmm(&ones);
        assert!((y.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(y.get(1, 0), 0.0); // isolated row
        assert!((y.get(2, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_column_out_of_range() {
        SparseMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn empty_matrix() {
        let a = SparseMatrix::from_parts(2, 3, vec![0, 0, 0], vec![], vec![]);
        let x = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let y = a.spmm(&x);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }
}
