//! PLP front-end (Hermansky 1990, simplified):
//! power spectrum → bark critical-band analysis → equal-loudness
//! pre-emphasis → intensity-loudness compression (cube root) → all-pole
//! model via autocorrelation + Levinson-Durbin → LPC cepstra.
//!
//! This is the feature used by the paper's DNN-HMM English recognizer
//! ("13-dimensional PLP features plus their first and second order
//! derivatives", §4.1).

#[cfg(test)]
use crate::analysis::TailScratch;
use crate::analysis::{Analyzer, Cepstrum, TailLanes};
use crate::filterbank::{bark_filterbank, relative_floor_lanes, Filterbank};
use crate::frame::FrameConfig;
use crate::frames::FrameMatrix;
use crate::{F32s, F64s, LANES};

/// PLP extraction parameters.
#[derive(Clone, Debug)]
pub struct PlpConfig {
    pub frame: FrameConfig,
    pub nfft: usize,
    /// Number of bark critical bands.
    pub num_bands: usize,
    /// All-pole model order.
    pub lpc_order: usize,
    /// Cepstra to keep, *including* c0.
    pub num_ceps: usize,
    pub f_lo: f32,
    pub f_hi: f32,
}

impl Default for PlpConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            nfft: 256,
            num_bands: 17,
            lpc_order: 12,
            num_ceps: 13,
            f_lo: 100.0,
            f_hi: 3800.0,
        }
    }
}

/// Equal-loudness weight for a frequency in Hz (Hermansky's E(ω) approximation).
pub fn equal_loudness(hz: f32) -> f32 {
    let w2 = (hz as f64 * 2.0 * std::f64::consts::PI).powi(2);
    let num = (w2 + 56.8e6) * w2.powi(2);
    let den = (w2 + 6.3e6).powi(2) * (w2 + 0.38e9);
    (num / den) as f32
}

/// The PLP half of an analysis, after the power spectrum: bark critical
/// bands → equal loudness → relative floor → cube-root compression →
/// cosine autocorrelation → Levinson-Durbin → LPC cepstra, with the bank,
/// the loudness weights and the autocorrelation's cosines built once.
#[derive(Clone, Debug)]
pub struct PlpTail {
    pub(crate) cfg: PlpConfig,
    bank: Filterbank,
    loudness: Vec<f32>,
    autocorrelation: CosineAutocorrelation,
}

impl PlpTail {
    pub fn new(cfg: &PlpConfig) -> PlpTail {
        let bank = bark_filterbank(
            cfg.num_bands,
            cfg.nfft,
            cfg.frame.sample_rate,
            cfg.f_lo,
            cfg.f_hi,
        );
        PlpTail {
            cfg: cfg.clone(),
            loudness: bank
                .centers_hz
                .iter()
                .map(|&hz| equal_loudness(hz))
                .collect(),
            bank,
            autocorrelation: CosineAutocorrelation::new(cfg.num_bands, cfg.lpc_order),
        }
    }

    pub(crate) fn lanes(&self) -> TailLanes {
        TailLanes {
            lpc: vec![[0.0; LANES]; self.cfg.lpc_order + 1],
            ceps: vec![[0.0; LANES]; self.cfg.num_ceps],
            ..TailLanes::new(
                self.cfg.num_bands,
                self.cfg.lpc_order + 1,
                self.cfg.num_ceps,
            )
        }
    }

    /// A lane group's cepstra, into `s.out`, from its power spectra. A lane
    /// whose all-pole fit the single-frame recursion would have abandoned
    /// (no energy, or an unstable recursion) gets zeros, as a degenerate
    /// frame always has.
    pub(crate) fn cepstra_lanes(&self, power: &[F32s], s: &mut TailLanes) {
        self.bank.apply_lanes(power, &mut s.bands);
        for (e, &w) in s.bands.iter_mut().zip(&self.loudness) {
            for e in e {
                *e *= w;
            }
        }
        relative_floor_lanes(&mut s.bands);
        for (c, e) in s.warped.iter_mut().zip(&s.bands) {
            *c = e.map(|e| (e as f64).powf(1.0 / 3.0));
        }
        self.autocorrelation.apply_lanes(&s.warped, &mut s.coeffs);
        let (error, alive) = levinson_durbin_lanes(&s.coeffs, &mut s.lpc);
        lpc_to_cepstrum_lanes(&s.lpc[1..], error, &mut s.ceps);
        for (o, c) in s.out.iter_mut().zip(&s.ceps) {
            *o = std::array::from_fn(|l| if alive[l] { c[l] as f32 } else { 0.0 });
        }
    }

    #[cfg(test)]
    pub(crate) fn scratch(&self) -> TailScratch {
        TailScratch {
            lpc: vec![0.0; self.cfg.lpc_order + 1],
            reflection: vec![0.0; self.cfg.lpc_order],
            ceps: vec![0.0; self.cfg.num_ceps],
            ..TailScratch::new(self.cfg.num_bands, self.cfg.lpc_order + 1)
        }
    }

    /// One frame's cepstra (`out.len() == num_ceps`) from its power spectrum:
    /// the reference every lane of [`PlpTail::cepstra_lanes`] must equal.
    #[cfg(test)]
    pub(crate) fn cepstra(&self, power: &[f32], s: &mut TailScratch, out: &mut [f32]) {
        use crate::filterbank::relative_floor;
        use lre_linalg::{levinson_durbin_into, lpc_to_cepstrum_into};
        self.bank.apply_into(power, &mut s.bands);
        for (e, &w) in s.bands.iter_mut().zip(&self.loudness) {
            *e *= w;
        }
        relative_floor(&mut s.bands);
        for (c, &e) in s.warped.iter_mut().zip(&s.bands) {
            *c = (e as f64).powf(1.0 / 3.0);
        }
        // The compressed band spectrum is treated as half of a symmetric
        // spectrum; its autocorrelation is the inverse DCT (type-I style
        // cosine transform).
        self.autocorrelation.apply_into(&s.warped, &mut s.coeffs);
        match levinson_durbin_into(&s.coeffs, &mut s.lpc, &mut s.reflection) {
            Some(error) => {
                lpc_to_cepstrum_into(&s.lpc[1..], error, &mut s.ceps);
                for (o, &c) in out.iter_mut().zip(&s.ceps) {
                    *o = c as f32;
                }
            }
            // Degenerate frame (all-zero energy): emit zeros.
            None => out.fill(0.0),
        }
    }
}

/// Extract PLP features for an utterance.
pub fn plp(samples: &[f32], cfg: &PlpConfig) -> FrameMatrix {
    Analyzer::new(vec![Cepstrum::Plp(PlpTail::new(cfg))])
        .analyze(samples)
        .pop()
        .expect("one matrix per tail")
}

/// Autocorrelation of the symmetric extension of a one-sided band spectrum:
/// `r[k] = Σ_j s[j] cos(π k j / (J-1))`, with half weights at the endpoints
/// (discretized inverse Fourier transform of a real even spectrum).
///
/// The `(max_lag + 1) × J` cosines are tabulated from the same f64
/// expression the sum would evaluate, and each term is still formed as
/// `weight · s[j] · cos`, left to right, so the lags are `to_bits`-equal to
/// the direct form's.
#[derive(Clone, Debug)]
struct CosineAutocorrelation {
    j_max: usize,
    cos: Vec<f64>,
}

impl CosineAutocorrelation {
    fn new(j_max: usize, max_lag: usize) -> CosineAutocorrelation {
        assert!(j_max >= 2);
        let cos = (0..=max_lag)
            .flat_map(|k| {
                (0..j_max).map(move |j| {
                    (std::f64::consts::PI * k as f64 * j as f64 / (j_max as f64 - 1.0)).cos()
                })
            })
            .collect();
        CosineAutocorrelation { j_max, cos }
    }

    /// [`CosineAutocorrelation::apply_into`] of a lane group, row `j` lane
    /// `l` being band `j` of frame `l`: each lane forms and adds the same
    /// terms in the same order.
    fn apply_lanes(&self, spectrum: &[F64s], r: &mut [F64s]) {
        let j_max = self.j_max;
        assert_eq!(
            spectrum.len(),
            j_max,
            "spectrum length must match the table"
        );
        assert_eq!(r.len(), self.cos.len() / j_max, "one output per lag");
        for (rk, row) in r.iter_mut().zip(self.cos.chunks_exact(j_max)) {
            let mut acc = [0.0; LANES];
            for (j, (s, &c)) in spectrum.iter().zip(row).enumerate() {
                let w = if j == 0 || j == j_max - 1 { 0.5 } else { 1.0 };
                for (a, &s) in acc.iter_mut().zip(s) {
                    *a += w * s * c;
                }
            }
            *rk = acc.map(|a| a / (j_max as f64 - 1.0));
        }
    }

    /// Lags `0..=max_lag` of `spectrum` (`len == J`) into `r`.
    #[cfg(test)]
    fn apply_into(&self, spectrum: &[f64], r: &mut [f64]) {
        let j_max = self.j_max;
        assert_eq!(
            spectrum.len(),
            j_max,
            "spectrum length must match the table"
        );
        assert_eq!(r.len(), self.cos.len() / j_max, "one output per lag");
        for (rk, row) in r.iter_mut().zip(self.cos.chunks_exact(j_max)) {
            let mut acc = 0.0;
            for (j, (&s, &c)) in spectrum.iter().zip(row).enumerate() {
                let w = if j == 0 || j == j_max - 1 { 0.5 } else { 1.0 };
                acc += w * s * c;
            }
            *rk = acc / (j_max as f64 - 1.0);
        }
    }
}

/// `lre_linalg::levinson_durbin_into` on a lane group's autocorrelations,
/// row `k` lane `l` being lag `k` of frame `l`, with `a` as there (`order +
/// 1` rows, row 0 untouched). Returns each lane's final prediction-error
/// power and whether the single-frame recursion would have returned it.
///
/// Every lane runs all `order` steps with the single-frame operations in
/// their order, and a lane stays alive while that recursion would have gone
/// on: its exits are `r[0] <= 0` and `err <= 0`, and the mask tests exactly
/// those, so a NaN lane lives on as it does there. What a dead lane holds is
/// meaningless.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the NaN-keeping predicates are the contract
fn levinson_durbin_lanes(r: &[F64s], a: &mut [F64s]) -> (F64s, [bool; LANES]) {
    let order = a.len() - 1;
    assert!(r.len() > order, "need autocorrelation up to lag `order`");
    let mut alive = r[0].map(|r0| !(r0 <= 0.0));
    let mut err = r[0];
    for m in 1..=order {
        let mut acc = r[m];
        for k in 1..m {
            for l in 0..LANES {
                acc[l] += a[k][l] * r[m - k][l];
            }
        }
        let k_m: F64s = std::array::from_fn(|l| -acc[l] / err[l]);
        a[m] = k_m;
        for k in 1..=m / 2 {
            for l in 0..LANES {
                let tmp = a[k][l] + k_m[l] * a[m - k][l];
                a[m - k][l] += k_m[l] * a[k][l];
                a[k][l] = tmp;
            }
        }
        for l in 0..LANES {
            err[l] *= 1.0 - k_m[l] * k_m[l];
            alive[l] &= !(err[l] <= 0.0);
        }
    }
    (err, alive)
}

/// `lre_linalg::lpc_to_cepstrum_into` of a lane group: `lpc` holds `a[1..]`
/// of [`levinson_durbin_lanes`], `gain2` its error powers, and `c` gets
/// `n_cep + 1 ≥ 1` rows; one libm `ln` per lane, the recursion's terms per
/// lane in its order.
fn lpc_to_cepstrum_lanes(lpc: &[F64s], gain2: F64s, c: &mut [F64s]) {
    let p = lpc.len();
    c[0] = gain2.map(|g| g.max(1e-300).ln());
    for n in 1..c.len() {
        let mut acc = if n <= p {
            lpc[n - 1].map(|a| -a)
        } else {
            [0.0; LANES]
        };
        for k in 1..n {
            if n - k <= p {
                let w = k as f64 / n as f64;
                for l in 0..LANES {
                    acc[l] -= w * c[k][l] * lpc[n - k - 1][l];
                }
            }
        }
        c[n] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_loudness_has_midband_emphasis() {
        // The curve should weight ~1-2 kHz well above 100 Hz.
        assert!(equal_loudness(1500.0) > equal_loudness(100.0) * 10.0);
    }

    /// The autocorrelation as it was before the table existed — a `cos()`
    /// per term — kept verbatim as the bit-identity reference.
    fn cosine_autocorrelation(spectrum: &[f64], max_lag: usize) -> Vec<f64> {
        let j_max = spectrum.len();
        assert!(j_max >= 2);
        let mut r = vec![0.0; max_lag + 1];
        for (k, rk) in r.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &s) in spectrum.iter().enumerate() {
                let w = if j == 0 || j == j_max - 1 { 0.5 } else { 1.0 };
                acc += w
                    * s
                    * (std::f64::consts::PI * k as f64 * j as f64 / (j_max as f64 - 1.0)).cos();
            }
            *rk = acc / (j_max as f64 - 1.0);
        }
        r
    }

    fn tabulated(spectrum: &[f64], max_lag: usize) -> Vec<f64> {
        let mut r = vec![0.0; max_lag + 1];
        CosineAutocorrelation::new(spectrum.len(), max_lag).apply_into(spectrum, &mut r);
        r
    }

    #[test]
    fn tabulated_autocorrelation_is_bit_identical_to_the_direct_form() {
        for (j_max, max_lag) in [(17, 12), (17, 0), (2, 1), (33, 20)] {
            for seed in 0..16 {
                // Cube-root-compressed band energies are the inputs that matter.
                let s: Vec<f64> = crate::testsignal::noise_and_tones(j_max, seed)
                    .iter()
                    .map(|&v| ((v * v + 1e-6) as f64).powf(1.0 / 3.0))
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&tabulated(&s, max_lag)),
                    bits(&cosine_autocorrelation(&s, max_lag)),
                    "J {j_max} lags {max_lag} seed {seed}"
                );
            }
        }
    }

    /// The lane recursions hold each lane to `levinson_durbin_into` +
    /// `lpc_to_cepstrum_into`: the same live/dead verdict, and on a live lane
    /// the same error power, coefficients and cepstra (NaN matching NaN).
    /// Every case runs in every lane, beside live and dead neighbours: no
    /// energy (`r0 = 0`, `r0 < 0`), an unstable step first reached at m = 1,
    /// 5 and 12, a NaN `r0` and a NaN lag (both of which the single-frame
    /// recursion carries to the end), and real frames.
    #[test]
    fn lane_levinson_durbin_keeps_each_frames_recursion() {
        use lre_linalg::{autocorrelation, levinson_durbin_into, lpc_to_cepstrum_into};
        const ORDER: usize = 12;
        let real = |seed| -> Vec<f64> {
            let x: Vec<f64> = crate::testsignal::noise_and_tones(64, seed)
                .iter()
                .map(|&v| v as f64)
                .collect();
            autocorrelation(&x, ORDER)
        };
        let unstable_at = |m: usize| {
            let mut r = real(40 + m as u64);
            r[m] += 10.0 * r[0];
            let (mut a, mut k) = (vec![0.0; m], vec![0.0; m - 1]);
            assert!(levinson_durbin_into(&r[..m], &mut a, &mut k).is_some());
            r
        };
        let with = |i: usize, v: f64| {
            let mut r = real(50 + i as u64);
            r[i] = v;
            r
        };
        let cases = [
            real(1),
            with(0, 0.0),
            real(2),
            with(0, -1.0),
            unstable_at(1),
            unstable_at(5),
            real(3),
            unstable_at(12),
            with(0, f64::NAN),
            with(3, f64::NAN),
            real(4),
        ];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let (mut a, mut c) = ([[0.0; LANES]; ORDER + 1], [[0.0; LANES]; 13]);
        let mut dead = 0;
        for rot in 0..cases.len() {
            let lane_case = |l: usize| &cases[(rot + l) % cases.len()];
            let r: Vec<F64s> = (0..=ORDER)
                .map(|k| std::array::from_fn(|l| lane_case(l)[k]))
                .collect();
            let (error, alive) = levinson_durbin_lanes(&r, &mut a);
            lpc_to_cepstrum_lanes(&a[1..], error, &mut c);
            for l in 0..LANES {
                let (mut want_a, mut k, mut want_c) = ([0.0; ORDER + 1], [0.0; ORDER], [0.0; 13]);
                let want = levinson_durbin_into(lane_case(l), &mut want_a, &mut k);
                assert_eq!(alive[l], want.is_some(), "rotation {rot} lane {l}");
                let Some(want_error) = want else {
                    dead += 1;
                    continue;
                };
                lpc_to_cepstrum_into(&want_a[1..], want_error, &mut want_c);
                assert!(same(error[l], want_error), "rotation {rot} lane {l}");
                for (m, row) in a.iter().enumerate().skip(1) {
                    assert!(same(row[l], want_a[m]), "rotation {rot} lane {l} a[{m}]");
                }
                for (n, row) in c.iter().enumerate() {
                    assert!(same(row[l], want_c[n]), "rotation {rot} lane {l} c[{n}]");
                }
            }
        }
        // Five dead cases, each seen in eight lanes.
        assert_eq!(dead, 5 * LANES);
    }

    #[test]
    fn cosine_autocorrelation_flat_spectrum() {
        // A flat spectrum corresponds to a white process: r[0] > 0, r[k>0] ≈ 0.
        let r = tabulated(&[1.0; 33], 4);
        assert!(r[0] > 0.0);
        for &v in &r[1..] {
            assert!(v.abs() < 1e-9 * r[0].max(1.0), "lag leak: {v}");
        }
    }

    #[test]
    fn cosine_autocorrelation_r0_dominates() {
        let s: Vec<f64> = (0..17)
            .map(|i| 1.0 + (i as f64 * 0.4).sin().abs())
            .collect();
        let r = tabulated(&s, 8);
        for &v in &r[1..] {
            assert!(v.abs() <= r[0] + 1e-12);
        }
    }

    #[test]
    fn plp_dims_and_finiteness() {
        let cfg = PlpConfig::default();
        let samples: Vec<f32> = (0..8000)
            .map(|i| (2.0 * std::f32::consts::PI * 700.0 * i as f32 / 8000.0).sin())
            .collect();
        let p = plp(&samples, &cfg);
        assert_eq!(p.dim(), 13);
        assert_eq!(p.num_frames(), cfg.frame.num_frames(8000));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn silence_yields_frames_without_panicking() {
        let cfg = PlpConfig::default();
        let p = plp(&vec![0.0_f32; 4000], &cfg);
        assert!(p.num_frames() > 0);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }
}
