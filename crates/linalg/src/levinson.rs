//! Levinson-Durbin recursion for linear-prediction (LPC) analysis.
//!
//! Used by the PLP feature pipeline in `lre-dsp`: an all-pole model is fit to
//! the (perceptually warped) power spectrum via its autocorrelation.

/// Result of fitting an order-`p` all-pole model.
#[derive(Clone, Debug)]
pub struct LpcResult {
    /// LPC coefficients `a[1..=p]` with the convention
    /// `x[n] ≈ -Σ_k a[k] x[n-k]`; `coeffs.len() == p`.
    pub coeffs: Vec<f64>,
    /// Reflection (PARCOR) coefficients, one per order.
    pub reflection: Vec<f64>,
    /// Final prediction-error power (model gain²).
    pub error: f64,
}

/// Biased autocorrelation of `x` for lags `0..=max_lag`.
pub fn autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    let mut r = vec![0.0; max_lag + 1];
    for (lag, rl) in r.iter_mut().enumerate() {
        if lag >= n {
            break;
        }
        let mut acc = 0.0;
        for i in lag..n {
            acc += x[i] * x[i - lag];
        }
        *rl = acc;
    }
    r
}

/// Levinson-Durbin recursion on autocorrelation `r[0..=p]`.
///
/// Returns `None` when `r[0] <= 0` (no signal energy) or the recursion goes
/// numerically unstable (prediction error becomes non-positive).
pub fn levinson_durbin(r: &[f64], order: usize) -> Option<LpcResult> {
    let mut a = vec![0.0_f64; order + 1];
    let mut reflection = vec![0.0_f64; order];
    let error = levinson_durbin_into(r, &mut a, &mut reflection)?;
    Some(LpcResult {
        coeffs: a[1..].to_vec(),
        reflection,
        error,
    })
}

/// [`levinson_durbin`] into caller-owned storage, for per-frame use: the
/// order is `reflection.len()`, `a` has `order + 1` slots (`a[0]` is the
/// implicit 1 and is left alone; the coefficients land in `a[1..]`), and the
/// return value is the final prediction-error power. On `None` both slices
/// hold partial results.
pub fn levinson_durbin_into(r: &[f64], a: &mut [f64], reflection: &mut [f64]) -> Option<f64> {
    let order = reflection.len();
    assert_eq!(a.len(), order + 1, "one slot per coefficient plus a[0]");
    assert!(r.len() > order, "need autocorrelation up to lag `order`");
    if r[0] <= 0.0 {
        return None;
    }
    let mut err = r[0];

    for m in 1..=order {
        let mut acc = r[m];
        for k in 1..m {
            acc += a[k] * r[m - k];
        }
        let k_m = -acc / err;
        reflection[m - 1] = k_m;

        // Update coefficients symmetrically.
        a[m] = k_m;
        let half = m / 2;
        for k in 1..=half {
            let tmp = a[k] + k_m * a[m - k];
            a[m - k] += k_m * a[k];
            a[k] = tmp;
        }

        err *= 1.0 - k_m * k_m;
        if err <= 0.0 {
            return None;
        }
    }
    Some(err)
}

/// Convert LPC coefficients to `n_cep` cepstral coefficients (excluding c0)
/// using the standard recursion; `gain2` is the prediction-error power.
///
/// The returned vector is `[c0, c1, ..., c_{n_cep}]` where `c0 = ln(gain2)`.
pub fn lpc_to_cepstrum(lpc: &[f64], gain2: f64, n_cep: usize) -> Vec<f64> {
    let mut c = vec![0.0; n_cep + 1];
    lpc_to_cepstrum_into(lpc, gain2, &mut c);
    c
}

/// [`lpc_to_cepstrum`] into a caller-owned `c` of `n_cep + 1 ≥ 1` slots.
pub fn lpc_to_cepstrum_into(lpc: &[f64], gain2: f64, c: &mut [f64]) {
    let p = lpc.len();
    c[0] = gain2.max(1e-300).ln();
    for n in 1..c.len() {
        // c_n = -a_n - (1/n) Σ_{k=1}^{n-1} k c_k a_{n-k}
        let mut acc = if n <= p { -lpc[n - 1] } else { 0.0 };
        for k in 1..n {
            if n - k <= p {
                acc -= (k as f64 / n as f64) * c[k] * lpc[n - k - 1];
            }
        }
        c[n] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorrelation_of_impulse() {
        let r = autocorrelation(&[1.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(r, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn autocorrelation_symmetric_signal() {
        let x = [1.0, 2.0, 3.0];
        let r = autocorrelation(&x, 2);
        assert!((r[0] - 14.0).abs() < 1e-12);
        assert!((r[1] - 8.0).abs() < 1e-12); // 2*1 + 3*2
        assert!((r[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_ar1_coefficient() {
        // AR(1): x[n] = 0.9 x[n-1] + e[n]. Theoretical autocorrelation r[k] ∝ 0.9^k.
        let rho: f64 = 0.9;
        let r: Vec<f64> = (0..4).map(|k| rho.powi(k)).collect();
        let lpc = levinson_durbin(&r, 1).unwrap();
        // Convention: x[n] ≈ -a1 x[n-1] so a1 ≈ -0.9.
        assert!((lpc.coeffs[0] + rho).abs() < 1e-10);
        assert!((lpc.error - (1.0 - rho * rho)).abs() < 1e-10);
    }

    #[test]
    fn recovers_ar2_coefficients() {
        // Build exact autocorrelation of AR(2) via Yule-Walker forward pass.
        let (a1, a2) = (1.2, -0.5); // x[n] = a1 x[n-1] + a2 x[n-2] + e
                                    // Solve stationary Yule-Walker equations for r1, r2 with r0 = 1:
                                    // r1 = a1 r0 + a2 r1 => r1 = a1 / (1 - a2)
        let r1 = a1 / (1.0 - a2);
        let r2 = a1 * r1 + a2;
        let r3 = a1 * r2 + a2 * r1;
        let r = vec![1.0, r1, r2, r3];
        let lpc = levinson_durbin(&r, 2).unwrap();
        assert!((lpc.coeffs[0] + a1).abs() < 1e-9, "a1: {}", lpc.coeffs[0]);
        assert!((lpc.coeffs[1] + a2).abs() < 1e-9, "a2: {}", lpc.coeffs[1]);
    }

    #[test]
    fn reflection_coefficients_bounded_for_valid_autocorrelation() {
        let x: Vec<f64> = (0..128)
            .map(|i| ((i as f64) * 0.7).sin() + 0.3 * ((i as f64) * 2.1).cos())
            .collect();
        let r = autocorrelation(&x, 12);
        let lpc = levinson_durbin(&r, 12).unwrap();
        for &k in &lpc.reflection {
            assert!(k.abs() <= 1.0 + 1e-9, "|k| = {}", k.abs());
        }
        assert!(lpc.error > 0.0);
    }

    #[test]
    fn zero_energy_rejected() {
        assert!(levinson_durbin(&[0.0, 0.0, 0.0], 2).is_none());
    }

    #[test]
    fn cepstrum_of_first_order_model() {
        // For A(z) = 1 + a1 z^{-1}, c_n = -(-a1)^n / n … specifically c1 = -a1.
        let c = lpc_to_cepstrum(&[-0.5], 1.0, 3);
        assert!((c[0] - 0.0).abs() < 1e-12); // ln(1.0)
        assert!((c[1] - 0.5).abs() < 1e-12);
        // c2 = -a2 - (1/2) c1 a1 = 0 - 0.5*0.5*(-0.5) = 0.125
        assert!((c[2] - 0.125).abs() < 1e-12);
    }
}
