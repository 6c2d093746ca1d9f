//! Row-major dense matrix type, and the `f32` GEMM of the emission hot path
//! (its transcendentals are in `vmath.rs`).

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

/// Frames per accumulator group of [`gemm_xwt_f32`]'s register block. A
/// `[f32; LANES]` group is the shape the autovectorizer turns into vector
/// registers (one 256-bit register, or two 128-bit ones on the baseline
/// ISA); a flat 32-wide inner loop is unrolled into scalars instead.
const LANES: usize = 8;

/// Accumulator groups per output in a full register block.
const GROUPS: usize = 4;

/// Frames per register block, and the row count of the transposed panel:
/// `TILE × k` floats, L1-resident for the feature and hidden-layer widths
/// the acoustic models use (k ≤ a few hundred).
const TILE: usize = GROUPS * LANES;

/// Outputs per register block.
const OUTS: usize = 4;

/// Blocked `out = x · wᵀ + bias` over `f32` row-major panels — the emission
/// hot-path kernel (`x`: `rows × k` frames, `w`: `out_dim × k` weights,
/// `out`: `rows × out_dim`).
///
/// Each output element is one dot product accumulated strictly in `k`
/// order, one multiply then one add per step (never a fused multiply-add),
/// so results are **bit-identical** to the scalar per-row loop. The
/// exactness matters: block scoring promises bit-identical output to the
/// per-frame scorer (there is no other scoring mode). The speed-up comes from
/// making the *row* (frame) dimension the data-parallel axis: each block of
/// `TILE` rows is transposed once into a `k × TILE` panel, and an
/// `OUTS × TILE` block of outputs is then accumulated with its accumulators
/// live in registers across the whole `k` loop — the serial chain a single
/// dot product imposes is carried across frames in parallel, each panel
/// column is loaded once for `OUTS` outputs, and no partial sum goes
/// through memory.
pub fn gemm_xwt_f32(x: &[f32], w: &[f32], bias: &[f32], k: usize, out: &mut [f32]) {
    assert!(k > 0, "inner dimension must be positive");
    let rows = x.len() / k;
    let out_dim = bias.len();
    assert_eq!(x.len(), rows * k, "x must be rows × k");
    assert_eq!(w.len(), out_dim * k, "w must be out_dim × k");
    assert_eq!(out.len(), rows * out_dim, "out must be rows × out_dim");
    // Lanes past a ragged last block keep zeros or an earlier block's
    // frames: they are multiplied like the rest and never stored.
    let mut xt = vec![0.0f32; TILE * k];
    for r0 in (0..rows).step_by(TILE) {
        let rb = TILE.min(rows - r0);
        // Transpose the block: xt[kk · TILE + j] = x[(r0 + j) · k + kk].
        for j in 0..rb {
            let xr = &x[(r0 + j) * k..(r0 + j + 1) * k];
            for (kk, &v) in xr.iter().enumerate() {
                xt[kk * TILE + j] = v;
            }
        }
        let orows = &mut out[r0 * out_dim..(r0 + rb) * out_dim];
        if rb == TILE {
            panel_frames::<GROUPS>(&xt, 0, w, bias, k, orows);
        } else {
            // One group at a time, so a short utterance's tail wastes at
            // most `LANES − 1` lanes.
            for j0 in (0..rb).step_by(LANES) {
                panel_frames::<1>(&xt, j0, w, bias, k, &mut orows[j0 * out_dim..]);
            }
        }
    }
}

/// Every output of the `G · LANES` frames at panel columns `j0..`, written
/// to the leading rows of `orows` (all of them, if it has fewer).
fn panel_frames<const G: usize>(
    xt: &[f32],
    j0: usize,
    w: &[f32],
    bias: &[f32],
    k: usize,
    orows: &mut [f32],
) {
    let out_dim = bias.len();
    let whole = out_dim - out_dim % OUTS;
    for o0 in (0..whole).step_by(OUTS) {
        out_block::<OUTS, G>(xt, j0, w, bias, k, o0, orows);
    }
    for o0 in whole..out_dim {
        out_block::<1, G>(xt, j0, w, bias, k, o0, orows);
    }
}

/// The register block: outputs `o0..o0 + O` of `G` groups of frames.
#[inline(always)]
fn out_block<const O: usize, const G: usize>(
    xt: &[f32],
    j0: usize,
    w: &[f32],
    bias: &[f32],
    k: usize,
    o0: usize,
    orows: &mut [f32],
) {
    let out_dim = bias.len();
    let wo = &w[o0 * k..(o0 + O) * k];
    // On a cache-line boundary. The compiler keeps the block in memory and
    // moves it as 32-byte vectors, but aligns a plain array to 16: whether
    // it then starts half a vector off is decided by the caller's stack
    // depth alone, and when it does every other access splits a line —
    // ≈ 15 % of a served request's CPU (EXPERIMENTS.md, "One vote window").
    #[repr(align(64))]
    struct Block<const O: usize, const G: usize>([[[f32; LANES]; G]; O]);
    let Block(acc) = &mut Block([[[0.0f32; LANES]; G]; O]);
    for (kk, col) in xt.chunks_exact(TILE).enumerate() {
        let col = &col[j0..j0 + G * LANES];
        for (o, groups) in acc.iter_mut().enumerate() {
            let wk = wo[o * k + kk];
            for (group, xs) in groups.iter_mut().zip(col.chunks_exact(LANES)) {
                let xs: [f32; LANES] = xs.try_into().expect("LANES columns");
                for (a, xv) in group.iter_mut().zip(xs) {
                    *a += xv * wk;
                }
            }
        }
    }
    for (j, orow) in orows.chunks_exact_mut(out_dim).take(G * LANES).enumerate() {
        for (o, groups) in acc.iter().enumerate() {
            orow[o0 + o] = bias[o0 + o] + groups[j / LANES][j % LANES];
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

    /// The scalar per-row loop `gemm_xwt_f32` must reproduce bit for bit.
    fn assert_gemm_matches_scalar(rows: usize, k: usize, out_dim: usize) {
        let x: Vec<f32> = (0..rows * k)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.063)
            .collect();
        let w: Vec<f32> = (0..out_dim * k)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.041)
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.11 - 2.0).collect();
        let mut out = vec![f32::NAN; rows * out_dim];
        gemm_xwt_f32(&x, &w, &bias, k, &mut out);
        for r in 0..rows {
            for o in 0..out_dim {
                let mut acc = 0.0f32;
                for j in 0..k {
                    acc += x[r * k + j] * w[o * k + j];
                }
                assert_eq!(
                    out[r * out_dim + o].to_bits(),
                    (bias[o] + acc).to_bits(),
                    "{rows} × {k} × {out_dim}: row {r}, output {o}"
                );
            }
        }
    }

    /// Every edge of the register block: rows around multiples of `LANES`
    /// and `TILE`, outputs around multiples of `OUTS`, and the served
    /// networks' widths.
    #[test]
    fn gemm_xwt_matches_scalar_reference_bitwise() {
        for rows in [0, 1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 750] {
            for out_dim in [1, 3, 4, 5, 141, 177] {
                for k in [1, 39, 128] {
                    assert_gemm_matches_scalar(rows, k, out_dim);
                }
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
