//! Iterative radix-2 Cooley-Tukey FFT, planned: the bit-reversal permutation
//! and the twiddle factors of a length are tabulated once in an [`Fft`].

/// Minimal complex number for the FFT (we avoid pulling in a numerics crate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    pub re: f32,
    pub im: f32,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

/// Radix-2 decimation-in-time plan for one transform length: the
/// bit-reversal permutation and every stage's twiddle factors, tabulated once.
///
/// The twiddles of the stage that merges blocks of `len` points are
/// `w₀ = 1, w_{k+1} = w_k · w_len` with `w_len = e^{-2πi/len}` rounded to f32
/// — the same f32 recurrence a loop-carried `w = w * wlen` evaluates, run
/// once here instead of once per block per frame, so a transform is
/// `to_bits`-equal to the recurrence form (the test module keeps that form
/// to prove it).
#[derive(Clone, Debug)]
pub struct Fft {
    /// `rev[i]` is `i` with its `log2 n` bits reversed.
    rev: Vec<u32>,
    /// Stage `len`'s `len / 2` twiddles start at `len / 2 - 1`; `n - 1` in all.
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Plan for `n`-point transforms; `n` must be a power of two.
    pub fn new(n: usize) -> Fft {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| {
                (i.reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0)) as u32
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (s, c) = ang.sin_cos();
            let wlen = Complex::new(c as f32, s as f32);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        Fft { rev, twiddles }
    }

    /// Transform length.
    pub fn size(&self) -> usize {
        self.rev.len()
    }

    /// In-place forward transform of `buf` (`buf.len() == self.size()`).
    pub fn transform(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.size(), "buffer length must match the plan");
        for (i, &j) in self.rev.iter().enumerate() {
            if j as usize > i {
                buf.swap(i, j as usize);
            }
        }
        self.butterflies(buf);
    }

    /// Power spectrum `|X[k]|²`, `k = 0..=n/2`, of a real frame zero-padded
    /// to the plan's length, into `power`; `buf` is `n` points of scratch.
    pub fn power_spectrum_into(&self, frame: &[f32], buf: &mut [Complex], power: &mut [f32]) {
        let n = self.size();
        assert!(n >= frame.len(), "nfft must cover the frame");
        assert_eq!(buf.len(), n, "scratch length must match the plan");
        assert_eq!(power.len(), n / 2 + 1, "one bin per k in 0..=n/2");
        // Load straight into bit-reversed order: the permutation of a
        // zero-padded real frame is a scatter, not a swap pass.
        let (filled, padding) = self.rev.split_at(frame.len());
        for (&j, &x) in filled.iter().zip(frame) {
            buf[j as usize] = Complex::new(x, 0.0);
        }
        for &j in padding {
            buf[j as usize] = Complex::ZERO;
        }
        self.butterflies(buf);
        for (p, c) in power.iter_mut().zip(buf.iter()) {
            *p = c.norm_sq();
        }
    }

    /// The `log2 n` butterfly stages over bit-reversed input.
    fn butterflies(&self, buf: &mut [Complex]) {
        let mut half = 1;
        while half < buf.len() {
            let stage = &self.twiddles[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(stage) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            half <<= 1;
        }
    }
}

/// In-place forward FFT. `buf.len()` must be a power of two.
pub fn fft_in_place(buf: &mut [Complex]) {
    Fft::new(buf.len()).transform(buf);
}

/// Power spectrum (`|X[k]|²` for `k = 0..=n/2`) of a real frame, zero-padded to
/// `nfft` (must be a power of two and ≥ `frame.len()`).
pub fn power_spectrum(frame: &[f32], nfft: usize) -> Vec<f32> {
    let fft = Fft::new(nfft);
    let mut power = vec![0.0; nfft / 2 + 1];
    fft.power_spectrum_into(frame, &mut vec![Complex::ZERO; nfft], &mut power);
    power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsignal::noise_and_tones;

    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    let w = Complex::new(ang.cos() as f32, ang.sin() as f32);
                    acc = acc + xj * w;
                }
                acc
            })
            .collect()
    }

    /// The transform as it was before the plan existed — bit-reversal by
    /// swaps, twiddles by a loop-carried f32 recurrence — kept verbatim as
    /// the reference the tabulated form must equal bit for bit.
    fn fft_recurrence(buf: &mut [Complex]) {
        let n = buf.len();
        assert!(n.is_power_of_two());
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (s, c) = ang.sin_cos();
            let wlen = Complex::new(c as f32, s as f32);
            let mut i = 0;
            while i < n {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..len / 2 {
                    let u = buf[i + k];
                    let v = buf[i + k + len / 2] * w;
                    buf[i + k] = u + v;
                    buf[i + k + len / 2] = u - v;
                    w = w * wlen;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    fn bits(buf: &[Complex]) -> Vec<(u32, u32)> {
        buf.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn planned_transform_is_bit_identical_to_the_recurrence_form() {
        for log2 in 0..=10 {
            let n = 1usize << log2;
            let fft = Fft::new(n);
            for seed in 0..4 {
                let re = noise_and_tones(n, 17 + seed);
                let im = noise_and_tones(n, 99 + seed);
                let x: Vec<Complex> = re
                    .iter()
                    .zip(&im)
                    .map(|(&r, &i)| Complex::new(r, i))
                    .collect();
                let mut want = x.clone();
                fft_recurrence(&mut want);
                let mut got = x.clone();
                fft.transform(&mut got);
                assert_eq!(bits(&got), bits(&want), "n = {n}, seed {seed}");
                let mut via_fn = x;
                fft_in_place(&mut via_fn);
                assert_eq!(bits(&via_fn), bits(&want));
            }
        }
    }

    #[test]
    fn planned_power_spectrum_is_bit_identical_for_padded_real_frames() {
        let fft = Fft::new(256);
        let mut buf = vec![Complex::ZERO; 256];
        let mut power = vec![0.0; 129];
        for (len, seed) in [(200, 1), (256, 2), (1, 3), (0, 4), (137, 5)] {
            let frame = noise_and_tones(len, seed);
            let mut want: Vec<Complex> = frame.iter().map(|&v| Complex::new(v, 0.0)).collect();
            want.resize(256, Complex::ZERO);
            fft_recurrence(&mut want);
            let want: Vec<u32> = want[..=128].iter().map(|c| c.norm_sq().to_bits()).collect();
            // The scratch is dirty from the previous frame on purpose.
            fft.power_spectrum_into(&frame, &mut buf, &mut power);
            let got: Vec<u32> = power.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, want, "frame length {len}");
            let via_fn: Vec<u32> = power_spectrum(&frame, 256)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(via_fn, want);
        }
    }

    #[test]
    fn planned_transform_matches_naive_dft_at_frame_size() {
        let x: Vec<Complex> = noise_and_tones(256, 7)
            .iter()
            .map(|&v| Complex::new(v, 0.0))
            .collect();
        let expect = dft_naive(&x);
        let mut got = x;
        Fft::new(256).transform(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g.re - e.re).abs() < 2e-3 && (g.im - e.im).abs() < 2e-3,
                "{g:?} vs {e:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let expect = dft_naive(&x);
        let mut got = x.clone();
        fft_in_place(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.re - e.re).abs() < 1e-4, "{g:?} vs {e:?}");
            assert!((g.im - e.im).abs() < 1e-4);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0].re = 1.0;
        fft_in_place(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-6 && c.im.abs() < 1e-6);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * k0 as f32 * i as f32 / n as f32).cos())
            .collect();
        let ps = power_spectrum(&x, n);
        let peak = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<f32> = (0..32).map(|i| ((i * i) as f32 * 0.013).sin()).collect();
        let time_energy: f32 = x.iter().map(|v| v * v).sum();
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut buf);
        let freq_energy: f32 = buf.iter().map(|c| c.norm_sq()).sum::<f32>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-3 * time_energy.max(1.0));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut buf = vec![Complex::ZERO; 12];
        fft_in_place(&mut buf);
    }
}
