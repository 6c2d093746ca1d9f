//! PLP front-end (Hermansky 1990, simplified):
//! power spectrum → bark critical-band analysis → equal-loudness
//! pre-emphasis → intensity-loudness compression (cube root) → all-pole
//! model via autocorrelation + Levinson-Durbin → LPC cepstra.
//!
//! This is the feature used by the paper's DNN-HMM English recognizer
//! ("13-dimensional PLP features plus their first and second order
//! derivatives", §4.1).

use crate::analysis::{Analyzer, Cepstrum, TailScratch};
use crate::filterbank::{bark_filterbank, relative_floor, Filterbank};
use crate::frame::FrameConfig;
use crate::frames::FrameMatrix;
use lre_linalg::{levinson_durbin_into, lpc_to_cepstrum_into};

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

    pub(crate) fn scratch(&self) -> TailScratch {
        TailScratch {
            lpc: vec![0.0; self.cfg.lpc_order + 1],
            reflection: vec![0.0; self.cfg.lpc_order],
            ceps: vec![0.0; self.cfg.num_ceps],
            ..TailScratch::new(self.cfg.num_bands, self.cfg.lpc_order + 1)
        }
    }

    /// One frame's cepstra (`out.len() == num_ceps`) from its power spectrum.
    pub(crate) fn cepstra(&self, power: &[f32], s: &mut TailScratch, out: &mut [f32]) {
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

    /// Lags `0..=max_lag` of `spectrum` (`len == J`) into `r`.
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
