//! Delta (derivative) feature appending.
//!
//! The paper's acoustic front-ends use "first order and second order
//! derivatives" of 12-13 base coefficients (§4.1), giving 39-dimensional
//! vectors. We use the standard regression formula over a ±`window` context.

use crate::frames::FrameMatrix;

/// Regression deltas, by the standard formula
/// `d_t = Σ_{k=1..w} k (x_{t+k} - x_{t-k}) / (2 Σ k²)` clamping at the edges,
/// of columns `src..src + d` of every `stride`-wide row of `data`, written
/// to columns `dst..dst + d` of the same rows (the two ranges are disjoint).
fn deltas_within(data: &mut [f32], stride: usize, src: usize, dst: usize, d: usize, window: usize) {
    assert!(window >= 1);
    let t_max = data.len() / stride;
    let denom: f32 = 2.0 * (1..=window).map(|k| (k * k) as f32).sum::<f32>();
    let mut row = vec![0.0_f32; d];
    for t in 0..t_max {
        row.fill(0.0);
        for k in 1..=window {
            let fwd = (t + k).min(t_max - 1) * stride + src;
            let bwd = t.saturating_sub(k) * stride + src;
            for (i, r) in row.iter_mut().enumerate() {
                *r += k as f32 * (data[fwd + i] - data[bwd + i]);
            }
        }
        let out = &mut data[t * stride + dst..][..d];
        for (o, &r) in out.iter_mut().zip(&row) {
            *o = r / denom;
        }
    }
}

/// Append Δ and ΔΔ features: `[x, Δx, ΔΔx]`, tripling the dimension. The
/// statics are copied into the output once and both derivative blocks are
/// computed in place beside them (ΔΔ is the delta of the Δ block).
pub fn append_deltas(feats: &FrameMatrix, window: usize) -> FrameMatrix {
    let d = feats.dim();
    let mut data = vec![0.0_f32; 3 * d * feats.num_frames()];
    for (row, x) in data.chunks_exact_mut(3 * d).zip(feats.iter()) {
        row[..d].copy_from_slice(x);
    }
    deltas_within(&mut data, 3 * d, 0, d, d, window);
    deltas_within(&mut data, 3 * d, d, 2 * d, d, window);
    FrameMatrix::from_flat(3 * d, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_of_constant_is_zero() {
        let f = FrameMatrix::from_flat(2, vec![3.0, -1.0, 3.0, -1.0, 3.0, -1.0, 3.0, -1.0]);
        let a = append_deltas(&f, 2);
        assert!(a.iter().all(|fr| fr[2..].iter().all(|&v| v.abs() < 1e-7)));
    }

    #[test]
    fn delta_of_linear_ramp_is_constant_slope() {
        // x_t = 2t: interior deltas should equal the slope 2.
        let vals: Vec<f32> = (0..10).map(|t| 2.0 * t as f32).collect();
        let f = FrameMatrix::from_flat(1, vals);
        let a = append_deltas(&f, 2);
        for t in 2..8 {
            assert!(
                (a.frame(t)[1] - 2.0).abs() < 1e-6,
                "t={t}: {}",
                a.frame(t)[1]
            );
        }
        // ΔΔ of a ramp vanishes once both windows are clear of the edges.
        for t in 4..6 {
            assert!(a.frame(t)[2].abs() < 1e-6);
        }
    }

    #[test]
    fn append_triples_dimension() {
        let f = FrameMatrix::from_flat(3, vec![0.0; 15]);
        let a = append_deltas(&f, 2);
        assert_eq!(a.dim(), 9);
        assert_eq!(a.num_frames(), 5);
    }

    #[test]
    fn statics_preserved_in_first_block() {
        let f = FrameMatrix::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let a = append_deltas(&f, 1);
        assert_eq!(&a.frame(0)[..2], &[1.0, 2.0]);
        assert_eq!(&a.frame(1)[..2], &[3.0, 4.0]);
    }
}
