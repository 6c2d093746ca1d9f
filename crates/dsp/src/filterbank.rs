//! Mel and bark auditory filterbanks applied to power spectra.

use crate::{F32s, LANES};

/// Hz → mel (HTK convention, matching the HTK-produced front-ends of §4.1).
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Mel → Hz.
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10.0_f32.powf(mel / 2595.0) - 1.0)
}

/// Hz → bark (Traunmüller-style approximation used in classic PLP).
pub fn hz_to_bark(hz: f32) -> f32 {
    let x = hz / 600.0;
    6.0 * (x + (x * x + 1.0).sqrt()).ln()
}

/// A bank of spectral weighting filters over FFT bins.
///
/// `weights` is `num_filters × num_bins`, flat row-major, and ≈ 90 % zeros: a
/// triangle is non-zero on one contiguous run of bins, recorded in `spans`,
/// and [`Filterbank::apply_into`] multiplies only that run. Skipping the
/// zero products leaves every band energy `to_bits`-equal to the full dot
/// product over a finite spectrum: each skipped term is `+0.0`, the running
/// sum is `+0.0` until the first non-zero term and never `-0.0` after, and
/// the terms inside the run are added in the same order.
#[derive(Clone, Debug)]
pub struct Filterbank {
    num_filters: usize,
    num_bins: usize,
    weights: Vec<f32>,
    /// Per filter, the bin range `lo..hi` outside which its weights are zero.
    spans: Vec<(usize, usize)>,
    /// Center frequency of each filter in Hz (diagnostics, equal-loudness).
    pub centers_hz: Vec<f32>,
}

impl Filterbank {
    pub fn num_filters(&self) -> usize {
        self.num_filters
    }

    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Filter `f`'s weights over the FFT bins.
    pub fn filter(&self, f: usize) -> &[f32] {
        &self.weights[f * self.num_bins..(f + 1) * self.num_bins]
    }

    /// Apply to a power spectrum (`len == num_bins`), producing per-filter
    /// energies.
    pub fn apply(&self, power: &[f32]) -> Vec<f32> {
        let mut energies = vec![0.0; self.num_filters];
        self.apply_into(power, &mut energies);
        energies
    }

    /// [`Filterbank::apply`] into caller-owned storage (`len == num_filters`).
    pub fn apply_into(&self, power: &[f32], energies: &mut [f32]) {
        assert_eq!(power.len(), self.num_bins, "spectrum length mismatch");
        assert_eq!(energies.len(), self.num_filters, "one energy per filter");
        for ((row, &(lo, hi)), e) in self
            .weights
            .chunks_exact(self.num_bins)
            .zip(&self.spans)
            .zip(energies)
        {
            let mut acc = 0.0_f32;
            for (w, p) in row[lo..hi].iter().zip(&power[lo..hi]) {
                acc += w * p;
            }
            *e = acc;
        }
    }

    /// [`Filterbank::apply_into`] of a lane group: `power` has a row per bin
    /// and `energies` a row per filter, lane `l` of each belonging to frame
    /// `l`. Every lane sums its filter's span in the same order as the
    /// single-frame path, so each is `to_bits`-equal to it.
    pub(crate) fn apply_lanes(&self, power: &[F32s], energies: &mut [F32s]) {
        assert_eq!(power.len(), self.num_bins, "spectrum length mismatch");
        assert_eq!(energies.len(), self.num_filters, "one energy per filter");
        for ((row, &(lo, hi)), e) in self
            .weights
            .chunks_exact(self.num_bins)
            .zip(&self.spans)
            .zip(energies)
        {
            let mut acc = [0.0_f32; LANES];
            for (&w, p) in row[lo..hi].iter().zip(&power[lo..hi]) {
                for (a, &p) in acc.iter_mut().zip(p) {
                    *a += w * p;
                }
            }
            *e = acc;
        }
    }
}

/// Clamp each frame's band energies, in place, to a floor relative to its
/// strongest band: bands more than ~40 dB below the peak take the floor.
/// Synthetic speech otherwise has spectrally empty bands whose log-energy
/// swings wildly with any additive noise, destabilizing every cepstral
/// coefficient. Row `b` lane `l` is band `b` of frame `l`; each lane has its
/// own peak.
///
/// A non-finite energy (a NaN or ±Inf sample reached the frame, or its power
/// overflowed f32) is no band's peak and takes the floor too, so what leaves
/// here is always finite and positive.
pub(crate) fn relative_floor_lanes(bands: &mut [F32s]) {
    let mut peak = [1e-10_f32; LANES];
    for e in bands.iter() {
        for (m, &e) in peak.iter_mut().zip(e) {
            *m = if e.is_finite() { m.max(e) } else { *m };
        }
    }
    let floor = peak.map(|p| p * 1e-4 + 1e-10);
    for e in bands {
        for (e, &floor) in e.iter_mut().zip(&floor) {
            *e = if e.is_finite() { e.max(floor) } else { floor };
        }
    }
}

/// [`relative_floor_lanes`] of a single frame, as the per-frame pipeline
/// applied it: the reference each lane must equal.
#[cfg(test)]
pub(crate) fn relative_floor(bands: &mut [f32]) {
    let peak = bands
        .iter()
        .filter(|e| e.is_finite())
        .fold(1e-10_f32, |m, &e| m.max(e));
    let floor = peak * 1e-4 + 1e-10;
    for e in bands {
        *e = if e.is_finite() { e.max(floor) } else { floor };
    }
}

/// Build a triangular mel filterbank for `nfft`-point FFTs of `sample_rate`
/// audio, spanning `f_lo..f_hi` Hz.
pub fn mel_filterbank(
    num_filters: usize,
    nfft: usize,
    sample_rate: f32,
    f_lo: f32,
    f_hi: f32,
) -> Filterbank {
    assert!(num_filters > 0 && f_lo < f_hi && f_hi <= sample_rate / 2.0);
    let num_bins = nfft / 2 + 1;
    let mel_lo = hz_to_mel(f_lo);
    let mel_hi = hz_to_mel(f_hi);
    // num_filters + 2 edge points, uniform in mel.
    let edges_hz: Vec<f32> = (0..num_filters + 2)
        .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (num_filters + 1) as f32))
        .collect();
    triangular_bank(&edges_hz, num_bins, nfft, sample_rate)
}

/// Build a triangular bark-spaced filterbank (the PLP "critical band"
/// analysis; classic PLP uses trapezoid masking curves — triangles are a
/// standard simplification that preserves the warping).
pub fn bark_filterbank(
    num_filters: usize,
    nfft: usize,
    sample_rate: f32,
    f_lo: f32,
    f_hi: f32,
) -> Filterbank {
    assert!(num_filters > 0 && f_lo < f_hi && f_hi <= sample_rate / 2.0);
    let num_bins = nfft / 2 + 1;
    let b_lo = hz_to_bark(f_lo);
    let b_hi = hz_to_bark(f_hi);
    // Invert bark numerically by bisection over Hz (monotone map).
    let bark_to_hz = |b: f32| -> f32 {
        let (mut lo, mut hi) = (0.0_f32, sample_rate / 2.0);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if hz_to_bark(mid) < b {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let edges_hz: Vec<f32> = (0..num_filters + 2)
        .map(|i| bark_to_hz(b_lo + (b_hi - b_lo) * i as f32 / (num_filters + 1) as f32))
        .collect();
    triangular_bank(&edges_hz, num_bins, nfft, sample_rate)
}

fn triangular_bank(edges_hz: &[f32], num_bins: usize, nfft: usize, sample_rate: f32) -> Filterbank {
    let num_filters = edges_hz.len() - 2;
    let bin_hz = sample_rate / nfft as f32;
    let mut weights = vec![0.0_f32; num_filters * num_bins];
    let mut centers_hz = Vec::with_capacity(num_filters);
    let mut spans = Vec::with_capacity(num_filters);
    for f in 0..num_filters {
        let (lo, ctr, hi) = (edges_hz[f], edges_hz[f + 1], edges_hz[f + 2]);
        centers_hz.push(ctr);
        let row = &mut weights[f * num_bins..(f + 1) * num_bins];
        for (bin, w) in row.iter_mut().enumerate() {
            let hz = bin as f32 * bin_hz;
            if hz > lo && hz < hi {
                *w = if hz <= ctr {
                    (hz - lo) / (ctr - lo)
                } else {
                    (hi - hz) / (hi - ctr)
                };
            }
        }
        let first = row.iter().position(|&w| w != 0.0).unwrap_or(0);
        let end = row.iter().rposition(|&w| w != 0.0).map_or(first, |b| b + 1);
        spans.push((first, end));
    }
    Filterbank {
        num_filters,
        num_bins,
        weights,
        spans,
        centers_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_roundtrip() {
        for hz in [0.0, 100.0, 1000.0, 3500.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.2, "{hz} -> {back}");
        }
    }

    #[test]
    fn mel_is_monotone() {
        let mut prev = -1.0;
        for i in 0..100 {
            let m = hz_to_mel(i as f32 * 40.0);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn bark_is_monotone_and_zero_at_dc() {
        assert!(hz_to_bark(0.0).abs() < 1e-6);
        assert!(hz_to_bark(100.0) < hz_to_bark(200.0));
    }

    #[test]
    fn filters_are_nonnegative_and_peak_near_one() {
        let fb = mel_filterbank(23, 256, 8000.0, 100.0, 3800.0);
        assert_eq!(fb.num_filters(), 23);
        for f in 0..fb.num_filters() {
            let row = fb.filter(f);
            assert!(row.iter().all(|&w| w >= 0.0));
            let max = row.iter().fold(0.0_f32, |m, &v| m.max(v));
            assert!(max > 0.5, "filter {f} has degenerate peak {max}");
        }
    }

    #[test]
    fn apply_flat_spectrum_gives_positive_energies() {
        let fb = bark_filterbank(17, 256, 8000.0, 100.0, 3800.0);
        let flat = vec![1.0; fb.num_bins()];
        let e = fb.apply(&flat);
        assert!(e.iter().all(|&v| v > 0.0));
    }

    /// `apply` multiplies only each filter's non-zero run; the result must be
    /// the full 129-term dot product `Σ_bin filter(f)[bin] · power[bin]`, bit
    /// for bit, on real power spectra (and on an all-zero one).
    #[test]
    fn sparse_rows_equal_the_dense_dot_product_bit_for_bit() {
        use crate::testsignal::noise_and_tones;
        let banks = [
            mel_filterbank(23, 256, 8000.0, 100.0, 3800.0),
            bark_filterbank(17, 256, 8000.0, 100.0, 3800.0),
            mel_filterbank(40, 512, 16000.0, 0.0, 8000.0),
        ];
        for (b, fb) in banks.iter().enumerate() {
            let nfft = 2 * (fb.num_bins() - 1);
            let mut spectra: Vec<Vec<f32>> = (0..32)
                .map(|seed| crate::power_spectrum(&noise_and_tones(nfft - 56, seed), nfft))
                .collect();
            spectra.push(vec![0.0; fb.num_bins()]);
            for power in &spectra {
                let got = fb.apply(power);
                for (f, g) in got.iter().enumerate() {
                    let dense: f32 = fb.filter(f).iter().zip(power).map(|(w, p)| w * p).sum();
                    assert_eq!(g.to_bits(), dense.to_bits(), "bank {b} filter {f}");
                }
            }
        }
    }

    #[test]
    fn spans_cover_exactly_the_nonzero_weights() {
        let fb = bark_filterbank(17, 256, 8000.0, 100.0, 3800.0);
        for (f, &(lo, hi)) in fb.spans.iter().enumerate() {
            let row = fb.filter(f);
            assert!(lo < hi, "filter {f} is empty");
            assert!(row[..lo].iter().chain(&row[hi..]).all(|&w| w == 0.0));
            assert!(row[lo] != 0.0 && row[hi - 1] != 0.0);
        }
    }

    #[test]
    fn relative_floor_clamps_weak_and_non_finite_bands() {
        let mut bands = [1.0, 1e-9, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        relative_floor(&mut bands);
        let floor = 1.0_f32 * 1e-4 + 1e-10;
        assert_eq!(bands, [1.0, floor, floor, floor, floor, 0.5]);
        // Nothing finite at all: the absolute floor.
        let mut dead = [f32::NAN; 3];
        relative_floor(&mut dead);
        assert_eq!(dead, [1e-10_f32 * 1e-4 + 1e-10; 3]);
    }

    /// Each lane of the lane form is the single-frame floor of its frame,
    /// bit for bit, whatever its neighbours hold.
    #[test]
    fn lane_floor_equals_each_frames_floor() {
        let frames: [Vec<f32>; LANES] = [
            vec![1.0, 1e-9, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5],
            vec![f32::NAN; 6],
            vec![0.0; 6],
            vec![3e38, 1e-30, 2.0, -0.0, 7.0, 1e-5],
            vec![f32::INFINITY, 1.0, 1.0, 1.0, 1.0, 1e-12],
            vec![1e-12, 1e-11, 1e-13, 0.0, 1e-10, 1e-14],
            vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            vec![f32::NEG_INFINITY, 1e20, 1e16, 5.0, 0.0, 1e15],
        ];
        let mut lanes: Vec<F32s> = (0..6)
            .map(|b| std::array::from_fn(|l| frames[l][b]))
            .collect();
        relative_floor_lanes(&mut lanes);
        for (l, frame) in frames.iter().enumerate() {
            let mut want = frame.clone();
            relative_floor(&mut want);
            let got: Vec<u32> = lanes.iter().map(|b| b[l].to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|e| e.to_bits()).collect();
            assert_eq!(got, want, "lane {l}");
        }
    }

    #[test]
    fn centers_increase() {
        let fb = mel_filterbank(12, 256, 8000.0, 100.0, 3800.0);
        for w in fb.centers_hz.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
