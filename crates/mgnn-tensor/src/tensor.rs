//! Row-major 2-D `f32` tensor with rayon-parallel matrix products.

use rayon::prelude::*;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Construct from a row-major buffer. Panics on shape mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the raw row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, recovering the raw row-major buffer (and its
    /// capacity) — the recycling path of the `PreparedBatch` pool.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Rows per parallel row block in the matmul family. Blocks keep
    /// the streamed `rhs` panel hot in cache across nearby output rows
    /// and amortize task dispatch.
    const MATMUL_RB: usize = 16;

    /// `k`-block width in [`Tensor::matmul`]: one `KB×n` panel of
    /// `rhs` (256·n·4 bytes) is reused by all rows of a row block
    /// before moving on.
    const MATMUL_KB: usize = 256;

    /// Matrix product `self · rhs` (`m×k · k×n → m×n`), parallel over
    /// row blocks and cache-blocked over `k`.
    ///
    /// The inner loop is `i-k-j` so the `rhs` row is streamed
    /// contiguously (cache-friendly; see the Rust Performance Book's
    /// advice on access order). Each output element still accumulates
    /// in ascending-`k` order — `k`-blocking reorders loops, not the
    /// per-element sum — so results are bitwise-identical to the
    /// untiled kernel at any thread count.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 {
            return Tensor::from_vec(m, n, out);
        }
        out.par_chunks_mut(n * Self::MATMUL_RB)
            .enumerate()
            .for_each(|(blk, oblock)| {
                let i0 = blk * Self::MATMUL_RB;
                for kb in (0..k).step_by(Self::MATMUL_KB) {
                    let kend = (kb + Self::MATMUL_KB).min(k);
                    for (r, orow) in oblock.chunks_mut(n).enumerate() {
                        let i = i0 + r;
                        let arow = &self.data[i * k..(i + 1) * k];
                        for (kk, &a) in arow[kb..kend].iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let brow = &rhs.data[(kb + kk) * n..(kb + kk + 1) * n];
                            for (o, &b) in orow.iter_mut().zip(brow) {
                                *o += a * b;
                            }
                        }
                    }
                }
            });
        Tensor::from_vec(m, n, out)
    }

    /// `selfᵀ · rhs` (`k×m ᵀ · k×n → m×n`) without materializing the
    /// transpose — the gradient-of-weights product in linear backward.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        // Accumulate per row-block in parallel then reduce.
        let out = (0..k)
            .into_par_iter()
            .fold(
                || vec![0.0f32; m * n],
                |mut acc, kk| {
                    let arow = &self.data[kk * m..(kk + 1) * m];
                    let brow = &rhs.data[kk * n..(kk + 1) * n];
                    for (i, &a) in arow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let dst = &mut acc[i * n..(i + 1) * n];
                        for (d, &b) in dst.iter_mut().zip(brow) {
                            *d += a * b;
                        }
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f32; m * n],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
        Tensor::from_vec(m, n, out)
    }

    /// `self · rhsᵀ` (`m×k · n×k ᵀ → m×n`) — the gradient-of-input product.
    ///
    /// Row-block parallel; each dot product uses a fixed 4-lane
    /// unrolled accumulation (combined as `(s0+s1)+(s2+s3)+tail`), so
    /// the result is deterministic at any thread count.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 {
            return Tensor::from_vec(m, n, out);
        }
        out.par_chunks_mut(n * Self::MATMUL_RB)
            .enumerate()
            .for_each(|(blk, oblock)| {
                let i0 = blk * Self::MATMUL_RB;
                for (r, orow) in oblock.chunks_mut(n).enumerate() {
                    let i = i0 + r;
                    let arow = &self.data[i * k..(i + 1) * k];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let brow = &rhs.data[j * k..(j + 1) * k];
                        *o = dot_unrolled(arow, brow);
                    }
                }
            });
        Tensor::from_vec(m, n, out)
    }

    /// Explicit transpose — the reference the fused [`Tensor::t_matmul`]
    /// and [`Tensor::matmul_t`] are tested against.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Add `row` (length `cols`) to every row — bias broadcast.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols);
        for r in self.data.chunks_mut(self.cols) {
            for (a, &b) in r.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector — bias gradient.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in self.data.chunks(self.cols) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += v;
            }
        }
        out
    }
}

/// Dot product with four independent accumulator lanes and a fixed
/// combine order `(s0+s1)+(s2+s3)+tail` — deterministic and unlocks
/// instruction-level parallelism the single-accumulator loop serializes
/// on the FP add latency chain.
#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for l in 0..4 {
            lanes[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}×{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let via_fused = a.t_matmul(&b);
        let via_explicit = a.transpose().matmul(&b);
        for (x, y) in via_fused.data().iter().zip(via_explicit.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let via_fused = a.matmul_t(&b);
        let via_explicit = a.matmul(&b.transpose());
        for (x, y) in via_fused.data().iter().zip(via_explicit.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        let mut x = Tensor::zeros(3, 2);
        x.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(x.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(x.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut a = t(1, 2, &[3.0, 4.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[6.0, 8.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn zero_sized() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 2);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (0, 2));
    }

    /// Pseudo-random but deterministic fill (no RNG dep in this crate).
    fn filled(rows: usize, cols: usize, salt: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_add(salt).wrapping_mul(2654435761);
                ((h % 97) as f32 - 48.0) / 16.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The tiled kernel must be *bitwise* identical to the naive
    /// ascending-k triple loop — k-blocking reorders loops, not the
    /// per-element accumulation — at sizes straddling the RB=16 and
    /// KB=256 block boundaries.
    #[test]
    fn tiled_matmul_bitwise_matches_naive() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (15, 17, 7),
            (16, 256, 5),
            (17, 257, 33),
            (40, 300, 3),
        ] {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a.get(i, kk);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        naive[i * n + j] += av * b.get(kk, j);
                    }
                }
            }
            let tiled = a.matmul(&b);
            let same = tiled
                .data()
                .iter()
                .zip(&naive)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "tiled matmul diverged at m={m} k={k} n={n}");
        }
    }

    /// Thread-count independence: the matmul family must return
    /// bitwise-identical outputs when forced onto one thread.
    #[test]
    fn matmul_family_identical_across_thread_caps() {
        let a = filled(37, 129, 3);
        let b = filled(129, 19, 4);
        let at = a.transpose(); // 129×37, so atᵀ·b is valid for t_matmul
        let bt = b.transpose(); // 19×129, so a·btᵀ is valid for matmul_t
        let (mm, tm, mt) =
            rayon::pool::with_max_threads(1, || (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt)));
        assert_eq!(mm, a.matmul(&b));
        assert_eq!(tm, at.t_matmul(&b));
        assert_eq!(mt, a.matmul_t(&bt));
    }
}
