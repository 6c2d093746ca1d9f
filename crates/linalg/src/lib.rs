//! Small dense linear-algebra kernels for the LRE-DBA reproduction.
//!
//! This crate is a deliberately minimal substrate: the paper's backend needs
//! LDA (a generalized symmetric-definite eigenproblem), the acoustic models
//! need covariance handling (Cholesky), PLP feature extraction needs
//! Levinson-Durbin recursion, and the MMI backend needs plain dense solves.
//! Everything is `f64`, row-major, and allocation-explicit; no external BLAS.
//!
//! The exception is the emission hot path's two shared `f32` kernels, which
//! live here because both acoustic-model families and the decoder use them:
//! the blocked [`gemm_xwt_f32`], and the slice [`expf_in_place`] /
//! [`lnf_in_place`] pair, which return `f32::exp`'s and `f32::ln`'s bits
//! without a libm call per element.
//!
//! # Example
//! ```
//! use lre_linalg::Mat;
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = a.cholesky().unwrap();
//! let x = chol.solve(&[1.0, 2.0]);
//! // verify A x = b
//! let b = a.matvec(&x);
//! assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
//! ```

mod cholesky;
mod eigen;
mod geig;
mod levinson;
mod lu;
mod matrix;
mod stats;
mod vmath;

pub use cholesky::Cholesky;
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use geig::{generalized_symmetric_eigen, GeneralizedEigen};
pub use levinson::{
    autocorrelation, levinson_durbin, levinson_durbin_into, lpc_to_cepstrum, lpc_to_cepstrum_into,
    LpcResult,
};
pub use lu::Lu;
pub use matrix::{axpy_f32, gemm_xwt_f32, Mat};
pub use stats::{covariance_matrix, mean_vector, weighted_mean_vector};
pub use vmath::{expf_in_place, lnf_in_place};

/// Numerical tolerance used by the decompositions in this crate when deciding
/// whether a pivot / eigenvalue is effectively zero.
pub const EPS: f64 = 1e-12;

/// Dot product of two equal-length slices.
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norm2_basic() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn scale_basic() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }
}
