//! Row-major dense matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// The storage is a single flat `Vec<f64>` (perf-book idiom: avoid
/// `Vec<Vec<f64>>` so rows are contiguous and the allocator is touched once).
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Build from row slices. Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(d: &[f64]) -> Self {
        let mut m = Self::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// Uses the i-k-j loop order so the inner loop walks both operands
    /// contiguously (row-major friendly).
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        (0..self.rows).map(|i| crate::dot(self.row(i), x)).collect()
    }

    /// `self += alpha * other` elementwise.
    pub fn add_scaled(&mut self, alpha: f64, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale all entries in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        crate::scale(alpha, &mut self.data);
    }

    /// Rank-1 update `self += alpha * x * y^T`.
    pub fn rank1_update(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        for (i, &xi) in x.iter().enumerate() {
            crate::axpy(alpha * xi, y, self.row_mut(i));
        }
    }

    /// Maximum absolute entry; 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Sum of the diagonal entries (requires square).
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Symmetrize in place: `A <- (A + A^T)/2`. Useful after accumulating
    /// scatter matrices where round-off breaks exact symmetry.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Row-block edge for the blocked `f32` kernels below. A transposed block
/// panel holds `TILE × k` floats — L1/L2-resident for the feature and
/// hidden-layer widths used by the acoustic models (k ≤ a few hundred) —
/// and the per-output accumulator strip is `TILE` floats on the stack.
const TILE: usize = 128;

/// Blocked `out = x · wᵀ + bias` over `f32` row-major panels — the emission
/// hot-path kernel (`x`: `rows × k` frames, `w`: `out_dim × k` weights,
/// `out`: `rows × out_dim`).
///
/// Each output element is one dot product accumulated strictly in `k`
/// order, so results are **bit-identical** to the scalar per-row loop. The
/// exactness matters: the decoder's exact scoring mode promises bit-identical
/// output to the historical per-frame scorer. The speed-up comes from
/// making the *row* (frame) dimension the inner, data-parallel axis: each
/// row block is transposed once into a `k × TILE` panel, and for every
/// output the `k` accumulation steps then run over `TILE` independent
/// unit-stride accumulators — the serial chain a single dot product imposes
/// is carried across frames in parallel instead, which vectorizes where the
/// per-frame loop cannot.
pub fn gemm_xwt_f32(x: &[f32], w: &[f32], bias: &[f32], k: usize, out: &mut [f32]) {
    assert!(k > 0, "inner dimension must be positive");
    let rows = x.len() / k;
    let out_dim = bias.len();
    assert_eq!(x.len(), rows * k, "x must be rows × k");
    assert_eq!(w.len(), out_dim * k, "w must be out_dim × k");
    assert_eq!(out.len(), rows * out_dim, "out must be rows × out_dim");
    let mut xt = vec![0.0f32; TILE.min(rows.max(1)) * k];
    let mut acc = [0.0f32; TILE];
    for r0 in (0..rows).step_by(TILE) {
        let rb = TILE.min(rows - r0);
        // Transpose the block: xt[kk · rb + j] = x[(r0 + j) · k + kk].
        for j in 0..rb {
            let xr = &x[(r0 + j) * k..(r0 + j + 1) * k];
            for (kk, &v) in xr.iter().enumerate() {
                xt[kk * rb + j] = v;
            }
        }
        for o in 0..out_dim {
            let wo = &w[o * k..(o + 1) * k];
            let accs = &mut acc[..rb];
            accs.fill(0.0);
            for (kk, &wk) in wo.iter().enumerate() {
                let col = &xt[kk * rb..kk * rb + rb];
                for (a, &xv) in accs.iter_mut().zip(col) {
                    *a += xv * wk;
                }
            }
            let b = bias[o];
            for (j, &a) in accs.iter().enumerate() {
                out[(r0 + j) * out_dim + o] = b + a;
            }
        }
    }
}

/// `y += alpha * x` over `f32` slices (single-precision twin of [`axpy`]).
///
/// [`axpy`]: crate::axpy
#[inline]
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn rank1_update_known() {
        let mut a = Mat::zeros(2, 2);
        a.rank1_update(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(a, Mat::from_rows(&[&[8.0, 10.0], &[24.0, 30.0]]));
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], a[(1, 0)]);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn gemm_xwt_matches_scalar_reference_bitwise() {
        // Odd sizes exercise partial tiles on both axes.
        let (rows, k, out_dim) = (67, 39, 41);
        let x: Vec<f32> = (0..rows * k)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.063)
            .collect();
        let w: Vec<f32> = (0..out_dim * k)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.041)
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.11 - 2.0).collect();
        let mut out = vec![0.0f32; rows * out_dim];
        gemm_xwt_f32(&x, &w, &bias, k, &mut out);
        for r in 0..rows {
            for o in 0..out_dim {
                let mut acc = 0.0f32;
                for j in 0..k {
                    acc += x[r * k + j] * w[o * k + j];
                }
                assert_eq!(out[r * out_dim + o].to_bits(), (bias[o] + acc).to_bits());
            }
        }
    }

    #[test]
    fn gemm_xwt_empty_rows_is_noop() {
        let mut out = Vec::new();
        gemm_xwt_f32(&[], &[0.5, 0.5], &[1.0], 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn axpy_f32_basic() {
        let mut y = vec![1.0f32, 1.0];
        axpy_f32(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn trace_and_max_abs() {
        let a = Mat::from_rows(&[&[1.0, -9.0], &[2.0, 3.0]]);
        assert_eq!(a.trace(), 4.0);
        assert_eq!(a.max_abs(), 9.0);
    }
}
