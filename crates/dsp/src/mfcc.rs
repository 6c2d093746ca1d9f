//! MFCC front-end: power spectrum → mel filterbank → log → DCT-II.

#[cfg(test)]
use crate::analysis::TailScratch;
use crate::analysis::{Analyzer, Cepstrum, TailLanes};
use crate::filterbank::{mel_filterbank, relative_floor_lanes, Filterbank};
use crate::frame::FrameConfig;
use crate::frames::FrameMatrix;
use crate::{F32s, F64s, LANES};

/// MFCC extraction parameters (defaults match the paper's telephone setup:
/// 8 kHz, 25 ms/10 ms, 13 coefficients including c0).
#[derive(Clone, Debug)]
pub struct MfccConfig {
    pub frame: FrameConfig,
    pub nfft: usize,
    pub num_filters: usize,
    /// Cepstra to keep, *including* c0.
    pub num_ceps: usize,
    pub f_lo: f32,
    pub f_hi: f32,
}

impl Default for MfccConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            nfft: 256,
            num_filters: 23,
            num_ceps: 13,
            f_lo: 100.0,
            f_hi: 3800.0,
        }
    }
}

/// Orthonormal DCT-II of `n` inputs keeping `k` coefficients, with the
/// `k × n` cosines `cos(π i (2j + 1) / 2n)` tabulated once. Each entry is
/// the value the same f64 expression yields when evaluated inside the sum,
/// and the sum runs over `j` in the same order, so a tabulated transform is
/// `to_bits`-equal to the direct one.
#[derive(Clone, Debug)]
pub struct Dct2 {
    n: usize,
    cos: Vec<f64>,
    norm0: f64,
    norm: f64,
}

impl Dct2 {
    pub fn new(n: usize, k: usize) -> Dct2 {
        assert!(n > 0 && k <= n);
        let cos = (0..k)
            .flat_map(|i| {
                (0..n).map(move |j| {
                    (std::f64::consts::PI * i as f64 * (2.0 * j as f64 + 1.0) / (2.0 * n as f64))
                        .cos()
                })
            })
            .collect();
        Dct2 {
            n,
            cos,
            norm0: (1.0 / n as f64).sqrt(),
            norm: (2.0 / n as f64).sqrt(),
        }
    }

    /// Coefficients kept (`k`).
    pub fn num_coeffs(&self) -> usize {
        self.cos.len() / self.n
    }

    /// Transform `x` (`len == n`) into `out` (`len == k`).
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length must match the table");
        assert_eq!(out.len(), self.num_coeffs(), "one output per coefficient");
        for (i, (o, row)) in out
            .iter_mut()
            .zip(self.cos.chunks_exact(self.n))
            .enumerate()
        {
            let mut acc = 0.0;
            for (&xj, &c) in x.iter().zip(row) {
                acc += xj * c;
            }
            *o = acc * if i == 0 { self.norm0 } else { self.norm };
        }
    }

    /// [`Dct2::apply_into`] of a lane group, row `j` lane `l` being input `j`
    /// of frame `l`: each lane's sums run over `j` in the same order.
    pub(crate) fn apply_lanes(&self, x: &[F64s], out: &mut [F64s]) {
        assert_eq!(x.len(), self.n, "input length must match the table");
        assert_eq!(out.len(), self.num_coeffs(), "one output per coefficient");
        for (i, (o, row)) in out
            .iter_mut()
            .zip(self.cos.chunks_exact(self.n))
            .enumerate()
        {
            let mut acc = [0.0; LANES];
            for (xj, &c) in x.iter().zip(row) {
                for (a, &xj) in acc.iter_mut().zip(xj) {
                    *a += xj * c;
                }
            }
            let norm = if i == 0 { self.norm0 } else { self.norm };
            *o = acc.map(|a| a * norm);
        }
    }
}

/// DCT-II of `x`, keeping `k` coefficients, with orthonormal scaling.
pub fn dct2(x: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![0.0; k];
    Dct2::new(x.len(), k).apply_into(x, &mut out);
    out
}

/// The MFCC half of an analysis, after the power spectrum: mel filterbank →
/// relative floor → log → DCT-II, all from tables built once.
#[derive(Clone, Debug)]
pub struct MfccTail {
    pub(crate) cfg: MfccConfig,
    bank: Filterbank,
    dct: Dct2,
}

impl MfccTail {
    pub fn new(cfg: &MfccConfig) -> MfccTail {
        MfccTail {
            cfg: cfg.clone(),
            bank: mel_filterbank(
                cfg.num_filters,
                cfg.nfft,
                cfg.frame.sample_rate,
                cfg.f_lo,
                cfg.f_hi,
            ),
            dct: Dct2::new(cfg.num_filters, cfg.num_ceps),
        }
    }

    pub(crate) fn lanes(&self) -> TailLanes {
        TailLanes::new(self.cfg.num_filters, self.cfg.num_ceps, self.cfg.num_ceps)
    }

    /// A lane group's cepstra, into `s.out`, from its power spectra.
    pub(crate) fn cepstra_lanes(&self, power: &[F32s], s: &mut TailLanes) {
        self.bank.apply_lanes(power, &mut s.bands);
        relative_floor_lanes(&mut s.bands);
        for (l, e) in s.warped.iter_mut().zip(&s.bands) {
            *l = e.map(|e| (e as f64).ln());
        }
        self.dct.apply_lanes(&s.warped, &mut s.coeffs);
        for (o, c) in s.out.iter_mut().zip(&s.coeffs) {
            *o = c.map(|c| c as f32);
        }
    }

    #[cfg(test)]
    pub(crate) fn scratch(&self) -> TailScratch {
        TailScratch::new(self.cfg.num_filters, self.cfg.num_ceps)
    }

    /// One frame's cepstra (`out.len() == num_ceps`) from its power spectrum:
    /// the reference every lane of [`MfccTail::cepstra_lanes`] must equal.
    #[cfg(test)]
    pub(crate) fn cepstra(&self, power: &[f32], s: &mut TailScratch, out: &mut [f32]) {
        use crate::filterbank::relative_floor;
        self.bank.apply_into(power, &mut s.bands);
        relative_floor(&mut s.bands);
        for (l, &e) in s.warped.iter_mut().zip(&s.bands) {
            *l = (e as f64).ln();
        }
        self.dct.apply_into(&s.warped, &mut s.coeffs);
        for (o, &c) in out.iter_mut().zip(&s.coeffs) {
            *o = c as f32;
        }
    }
}

/// Extract MFCC features for an utterance.
pub fn mfcc(samples: &[f32], cfg: &MfccConfig) -> FrameMatrix {
    Analyzer::new(vec![Cepstrum::Mfcc(MfccTail::new(cfg))])
        .analyze(samples)
        .pop()
        .expect("one matrix per tail")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DCT as it was before the table existed — a `cos()` per term —
    /// kept verbatim as the bit-identity reference.
    fn dct2_direct(x: &[f64], k: usize) -> Vec<f64> {
        let n = x.len();
        assert!(n > 0 && k <= n);
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        (0..k)
            .map(|i| {
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    acc += xj
                        * (std::f64::consts::PI * i as f64 * (2.0 * j as f64 + 1.0)
                            / (2.0 * n as f64))
                            .cos();
                }
                acc * if i == 0 { norm0 } else { norm }
            })
            .collect()
    }

    #[test]
    fn tabulated_dct_is_bit_identical_to_the_direct_form() {
        for (n, k) in [(23, 13), (23, 23), (17, 13), (40, 20), (1, 1), (8, 0)] {
            let table = Dct2::new(n, k);
            let mut got = vec![0.0; k];
            for seed in 0..16 {
                // Log band energies of real frames are the inputs that matter.
                let x: Vec<f64> = crate::testsignal::noise_and_tones(n, seed)
                    .iter()
                    .map(|&v| ((v * v + 1e-6) as f64).ln())
                    .collect();
                let want = dct2_direct(&x, k);
                table.apply_into(&x, &mut got);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n {n} k {k} seed {seed}");
                assert_eq!(bits(&dct2(&x, k)), bits(&want));
            }
        }
    }

    #[test]
    fn dct2_of_constant_is_only_c0() {
        let c = dct2(&[2.0; 8], 8);
        assert!((c[0] - 2.0 * (8.0_f64).sqrt()).abs() < 1e-12);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dct2_is_orthonormal_energy_preserving() {
        let x: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.83).sin()).collect();
        let c = dct2(&x, 16);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-9);
    }

    #[test]
    fn mfcc_dims_and_frame_count() {
        let cfg = MfccConfig::default();
        let samples = vec![0.1_f32; 8000]; // 1 second
        let m = mfcc(&samples, &cfg);
        assert_eq!(m.dim(), 13);
        assert_eq!(m.num_frames(), cfg.frame.num_frames(8000));
    }

    #[test]
    fn distinct_tones_give_distinct_cepstra() {
        let cfg = MfccConfig::default();
        let mk = |f0: f32| -> Vec<f32> {
            (0..4000)
                .map(|i| (2.0 * std::f32::consts::PI * f0 * i as f32 / 8000.0).sin())
                .collect()
        };
        let a = mfcc(&mk(300.0), &cfg);
        let b = mfcc(&mk(2000.0), &cfg);
        // Compare mean cepstra; they must differ substantially.
        let mean = |m: &FrameMatrix| -> Vec<f32> {
            let mut acc = vec![0.0; m.dim()];
            for fr in m.iter() {
                for (a, &v) in acc.iter_mut().zip(fr) {
                    *a += v;
                }
            }
            let n = m.num_frames() as f32;
            acc.iter().map(|v| v / n).collect()
        };
        let (ma, mb) = (mean(&a), mean(&b));
        let dist: f32 = ma
            .iter()
            .zip(&mb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "cepstral distance too small: {dist}");
    }
}
