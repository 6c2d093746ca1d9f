//! The one spectral pass: frame → window → FFT → power spectrum, shared by
//! every cepstral tail that wants it, eight frames at a time.

use crate::fft::{ComplexLanes, Fft};
use crate::frame::{FrameConfig, Framer};
use crate::frames::FrameMatrix;
use crate::mfcc::MfccTail;
use crate::plp::PlpTail;
use crate::{F32s, F64s, LANES};

/// A cepstral analysis that starts from a frame's power spectrum.
#[derive(Clone, Debug)]
pub enum Cepstrum {
    Mfcc(MfccTail),
    Plp(PlpTail),
}

impl Cepstrum {
    fn framing(&self) -> (FrameConfig, usize) {
        match self {
            Cepstrum::Mfcc(t) => (t.cfg.frame, t.cfg.nfft),
            Cepstrum::Plp(t) => (t.cfg.frame, t.cfg.nfft),
        }
    }

    fn num_ceps(&self) -> usize {
        match self {
            Cepstrum::Mfcc(t) => t.cfg.num_ceps,
            Cepstrum::Plp(t) => t.cfg.num_ceps,
        }
    }

    fn lanes(&self) -> TailLanes {
        match self {
            Cepstrum::Mfcc(t) => t.lanes(),
            Cepstrum::Plp(t) => t.lanes(),
        }
    }

    fn cepstra_lanes(&self, power: &[F32s], s: &mut TailLanes) {
        match self {
            Cepstrum::Mfcc(t) => t.cepstra_lanes(power, s),
            Cepstrum::Plp(t) => t.cepstra_lanes(power, s),
        }
    }

    #[cfg(test)]
    fn scratch(&self) -> TailScratch {
        match self {
            Cepstrum::Mfcc(t) => t.scratch(),
            Cepstrum::Plp(t) => t.scratch(),
        }
    }

    #[cfg(test)]
    fn cepstra(&self, power: &[f32], scratch: &mut TailScratch, out: &mut [f32]) {
        match self {
            Cepstrum::Mfcc(t) => t.cepstra(power, scratch, out),
            Cepstrum::Plp(t) => t.cepstra(power, scratch, out),
        }
    }
}

/// Per-call working storage of one tail over a lane group, row `i` lane `l`
/// holding value `i` of the group's frame `l`: band energies, their warped
/// (log or cube-root) values, the transform's output coefficients, PLP's
/// all-pole model and its cepstra (empty for MFCC), and the cepstra as
/// stored.
pub(crate) struct TailLanes {
    pub bands: Vec<F32s>,
    pub warped: Vec<F64s>,
    pub coeffs: Vec<F64s>,
    pub lpc: Vec<F64s>,
    pub ceps: Vec<F64s>,
    pub out: Vec<F32s>,
}

impl TailLanes {
    pub fn new(bands: usize, coeffs: usize, out: usize) -> TailLanes {
        TailLanes {
            bands: vec![[0.0; LANES]; bands],
            warped: vec![[0.0; LANES]; bands],
            coeffs: vec![[0.0; LANES]; coeffs],
            lpc: Vec::new(),
            ceps: Vec::new(),
            out: vec![[0.0; LANES]; out],
        }
    }
}

/// The single-frame form of [`TailLanes`], for the per-frame reference
/// tails.
#[cfg(test)]
pub(crate) struct TailScratch {
    pub bands: Vec<f32>,
    pub warped: Vec<f64>,
    pub coeffs: Vec<f64>,
    pub lpc: Vec<f64>,
    pub reflection: Vec<f64>,
    pub ceps: Vec<f64>,
}

#[cfg(test)]
impl TailScratch {
    pub fn new(bands: usize, coeffs: usize) -> TailScratch {
        TailScratch {
            bands: vec![0.0; bands],
            warped: vec![0.0; bands],
            coeffs: vec![0.0; coeffs],
            lpc: Vec::new(),
            reflection: Vec::new(),
            ceps: Vec::new(),
        }
    }
}

/// Feature analysis of whole utterances: every table the per-frame work
/// needs (window, FFT plan, and each tail's filterbank and cosines), built
/// once, and one pass over the samples that serves all tails.
///
/// The frames run in groups of [`LANES`], one frame per lane: pre-emphasis +
/// window of each into a `window_len` scratch, **one** lane-wise FFT into
/// `nfft / 2 + 1` rows of power, then each tail's cepstra from those same
/// rows, scattered into the group's output rows. Every lane performs the
/// single-frame pipeline's operations in its order (the libm `ln` / `powf`
/// stay one call per element), so each row is `to_bits`-equal to analysing
/// its frame alone; a ragged last group is padded with zero frames whose
/// lanes are never stored. The working storage is allocated per call, not
/// per group, and is a few tens of KB whatever the length of the utterance;
/// the analyzer itself is immutable and shared across threads.
#[derive(Clone, Debug)]
pub struct Analyzer {
    framer: Framer,
    fft: Fft,
    tails: Vec<Cepstrum>,
}

impl Analyzer {
    /// An analyzer computing `tails`, which must agree on framing and FFT
    /// size (they share the spectrum).
    pub fn new(tails: Vec<Cepstrum>) -> Analyzer {
        let (frame, nfft) = tails
            .first()
            .expect("an analyzer needs at least one tail")
            .framing();
        assert!(
            tails.iter().all(|t| t.framing() == (frame, nfft)),
            "tails sharing a spectrum must share framing and FFT size"
        );
        assert!(nfft >= frame.window_len, "nfft must cover the frame");
        Analyzer {
            framer: Framer::new(frame),
            fft: Fft::new(nfft),
            tails,
        }
    }

    /// Cepstra of every whole frame of `samples`: one `num_frames ×
    /// num_ceps` matrix per tail, in the order the tails were given.
    pub fn analyze(&self, samples: &[f32]) -> Vec<FrameMatrix> {
        let nf = self.framer.config().num_frames(samples.len());
        let mut outs: Vec<FrameMatrix> = self
            .tails
            .iter()
            .map(|t| FrameMatrix::from_flat(t.num_ceps(), vec![0.0; t.num_ceps() * nf]))
            .collect();
        if nf == 0 {
            return outs;
        }
        let (nfft, window_len) = (self.fft.size(), self.framer.config().window_len);
        let mut frames = vec![0.0_f32; LANES * window_len];
        let mut buf = vec![ComplexLanes::ZERO; nfft];
        let mut power = vec![[0.0_f32; LANES]; nfft / 2 + 1];
        let mut scratch: Vec<TailLanes> = self.tails.iter().map(Cepstrum::lanes).collect();
        for f0 in (0..nf).step_by(LANES) {
            let live = LANES.min(nf - f0);
            for (l, frame) in frames.chunks_exact_mut(window_len).enumerate() {
                if l < live {
                    self.framer.frame_into(samples, f0 + l, frame);
                } else {
                    frame.fill(0.0);
                }
            }
            self.fft.power_spectra_into(&frames, &mut buf, &mut power);
            for ((tail, s), out) in self.tails.iter().zip(&mut scratch).zip(&mut outs) {
                tail.cepstra_lanes(&power, s);
                for l in 0..live {
                    for (o, c) in out.frame_mut(f0 + l).iter_mut().zip(&s.out) {
                        *o = c[l];
                    }
                }
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsignal::noise_and_tones;
    use crate::{hamming_window, mfcc, plp, power_spectrum, pre_emphasis, MfccConfig, PlpConfig};

    fn both() -> Analyzer {
        Analyzer::new(vec![
            Cepstrum::Mfcc(MfccTail::new(&MfccConfig::default())),
            Cepstrum::Plp(PlpTail::new(&PlpConfig::default())),
        ])
    }

    fn swapped() -> Analyzer {
        Analyzer::new(vec![
            Cepstrum::Plp(PlpTail::new(&PlpConfig::default())),
            Cepstrum::Mfcc(MfccTail::new(&MfccConfig::default())),
        ])
    }

    fn bits(m: &FrameMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The per-frame pipeline the lane groups replaced, kept as their
    /// reference: each frame alone through `frame_into`,
    /// `power_spectrum_into` and every tail's single-frame `cepstra`.
    fn analyze_per_frame(a: &Analyzer, samples: &[f32]) -> Vec<FrameMatrix> {
        let nf = a.framer.config().num_frames(samples.len());
        let nfft = a.fft.size();
        let mut frame = vec![0.0_f32; a.framer.config().window_len];
        let mut buf = vec![crate::Complex::ZERO; nfft];
        let mut power = vec![0.0_f32; nfft / 2 + 1];
        let mut scratch: Vec<TailScratch> = a.tails.iter().map(Cepstrum::scratch).collect();
        let mut outs: Vec<FrameMatrix> = a
            .tails
            .iter()
            .map(|t| FrameMatrix::from_flat(t.num_ceps(), vec![0.0; t.num_ceps() * nf]))
            .collect();
        for f in 0..nf {
            a.framer.frame_into(samples, f, &mut frame);
            a.fft.power_spectrum_into(&frame, &mut buf, &mut power);
            for ((tail, s), out) in a.tails.iter().zip(&mut scratch).zip(&mut outs) {
                tail.cepstra(&power, s, out.frame_mut(f));
            }
        }
        outs
    }

    fn assert_lanes_equal_per_frame(x: &[f32], what: &str) {
        for a in [both(), swapped()] {
            let (got, want) = (a.analyze(x), analyze_per_frame(&a, x));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.num_frames(), w.num_frames(), "{what}");
                assert_eq!(bits(g), bits(w), "{what}");
            }
        }
    }

    /// Lane groups equal the per-frame pipeline bit for bit, for both tail
    /// orders: every ragged last group (frame counts ≡ 0…7 mod 8), no frame
    /// and one frame, hostile samples whose frames sit in a single lane of a
    /// group, and a silent frame between live ones.
    #[test]
    fn lane_groups_equal_the_per_frame_pipeline() {
        for len in [0, 199, 200] {
            assert_lanes_equal_per_frame(&noise_and_tones(len, 21), &format!("{len} samples"));
        }
        for nf in 16..24 {
            // Whole frames plus a few samples short of another hop.
            let len = 200 + 80 * (nf - 1) + (nf % 3) * 17;
            assert_eq!(FrameConfig::default().num_frames(len), nf);
            assert_lanes_equal_per_frame(&noise_and_tones(len, nf as u64), &format!("{nf} frames"));
        }
        // 19 frames: groups of 8, 8 and a ragged 3. Sample 40 reaches frame 0
        // only; sample 700 frames 7 and 8 only (lane 7 of the first group,
        // lane 0 of the second, pre-emphasis included); the last sample
        // frame 18 only (lane 2 of the ragged group).
        let len = 200 + 80 * 18;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30] {
            for at in [40, 700, len - 1] {
                let mut x = noise_and_tones(len, 23);
                x[at] = bad;
                assert_lanes_equal_per_frame(&x, &format!("{bad} at sample {at}"));
            }
            assert_lanes_equal_per_frame(&vec![bad; 900], &format!("all {bad}"));
        }
        // Frame 11 (lane 3 of the second group) silent, pre-emphasis input
        // included; its neighbours are only partly so.
        let mut x = noise_and_tones(len, 29);
        x[11 * 80 - 1..11 * 80 + 200].fill(0.0);
        assert_lanes_equal_per_frame(&x, "silent frame 11");
    }

    /// Sharing the spectrum changes nothing: both matrices of a two-tail
    /// pass equal the single-kind `mfcc()` / `plp()` calls bit for bit, from
    /// sub-window utterances up to the benchmark's longest.
    #[test]
    fn shared_spectrum_matrices_equal_single_kind_calls() {
        let shared = both();
        let swapped = swapped();
        for (len, seed) in [
            (0, 1),
            (199, 2),
            (200, 3),
            (279, 4),
            (280, 5),
            (1_000, 6),
            (8_000, 7),
            (24_000, 8),
            (60_000, 9),
        ] {
            let x = noise_and_tones(len, seed);
            let m = mfcc(&x, &MfccConfig::default());
            let p = plp(&x, &PlpConfig::default());
            let nf = MfccConfig::default().frame.num_frames(len);
            assert_eq!((m.num_frames(), m.dim()), (nf, 13));
            assert_eq!((p.num_frames(), p.dim()), (nf, 13));
            let got = shared.analyze(&x);
            assert_eq!(got.len(), 2);
            assert_eq!(bits(&got[0]), bits(&m), "mfcc, {len} samples");
            assert_eq!(bits(&got[1]), bits(&p), "plp, {len} samples");
            let got = swapped.analyze(&x);
            assert_eq!(bits(&got[0]), bits(&p));
            assert_eq!(bits(&got[1]), bits(&m));
        }
    }

    /// The streaming pass equals the stage-at-a-time pipeline written out
    /// from the crate's public pieces over whole-signal buffers: emphasize
    /// everything, window each frame, `power_spectrum`, the full dense
    /// filter rows, floor, then log and `dct2` (MFCC) or equal loudness
    /// before the floor, cube root, the cosine autocorrelation,
    /// `levinson_durbin` and `lpc_to_cepstrum` (PLP).
    #[test]
    fn streaming_pass_equals_the_stagewise_pipeline() {
        let (cfg, pcfg) = (MfccConfig::default(), PlpConfig::default());
        assert_eq!(pcfg.frame, cfg.frame);
        let x = noise_and_tones(4_000, 11);
        let emphasized = pre_emphasis(&x, cfg.frame.pre_emphasis);
        let window = hamming_window(cfg.frame.window_len);
        let bank = crate::mel_filterbank(cfg.num_filters, cfg.nfft, 8000.0, cfg.f_lo, cfg.f_hi);
        let bark = crate::bark_filterbank(pcfg.num_bands, pcfg.nfft, 8000.0, pcfg.f_lo, pcfg.f_hi);
        let got = mfcc(&x, &cfg);
        let got_plp = plp(&x, &pcfg);
        assert_eq!(got.num_frames(), 48);
        assert_eq!(got_plp.num_frames(), 48);
        let floored = |energies: Vec<f32>| -> Vec<f32> {
            let peak = energies.iter().fold(1e-10f32, |m, &e| m.max(e));
            let floor = peak * 1e-4 + 1e-10;
            energies.iter().map(|&e| e.max(floor)).collect()
        };
        let to_bits = |c: &[f64]| -> Vec<u32> { c.iter().map(|&c| (c as f32).to_bits()).collect() };
        for f in 0..got.num_frames() {
            let frame: Vec<f32> = window
                .iter()
                .zip(&emphasized[f * cfg.frame.hop..])
                .map(|(w, s)| w * s)
                .collect();
            let ps = power_spectrum(&frame, cfg.nfft);
            let energies: Vec<f32> = (0..cfg.num_filters)
                .map(|b| bank.filter(b).iter().zip(&ps).map(|(w, p)| w * p).sum())
                .collect();
            let logs: Vec<f64> = floored(energies).iter().map(|&e| (e as f64).ln()).collect();
            let want = to_bits(&crate::mfcc::dct2(&logs, cfg.num_ceps));
            let row: Vec<u32> = got.frame(f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, want, "mfcc frame {f}");

            let loud: Vec<f32> = (0..pcfg.num_bands)
                .map(|b| {
                    let e: f32 = bark.filter(b).iter().zip(&ps).map(|(w, p)| w * p).sum();
                    e * crate::plp::equal_loudness(bark.centers_hz[b])
                })
                .collect();
            let cubed: Vec<f64> = floored(loud)
                .iter()
                .map(|&e| (e as f64).powf(1.0 / 3.0))
                .collect();
            let j = pcfg.num_bands as f64 - 1.0;
            let r: Vec<f64> = (0..=pcfg.lpc_order)
                .map(|k| {
                    let acc = cubed.iter().enumerate().fold(0.0, |acc, (i, &s)| {
                        let w = if i == 0 || i == pcfg.num_bands - 1 {
                            0.5
                        } else {
                            1.0
                        };
                        acc + w * s * (std::f64::consts::PI * k as f64 * i as f64 / j).cos()
                    });
                    acc / j
                })
                .collect();
            let lpc = lre_linalg::levinson_durbin(&r, pcfg.lpc_order).expect("a live frame");
            let ceps = lre_linalg::lpc_to_cepstrum(&lpc.coeffs, lpc.error, pcfg.num_ceps - 1);
            let row: Vec<u32> = got_plp.frame(f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, to_bits(&ceps), "plp frame {f}");
        }
    }

    /// Hostile samples end in finite cepstra: a non-finite band energy takes
    /// the floor instead of reaching `ln` / `powf`.
    #[test]
    fn non_finite_and_overflowing_samples_yield_finite_cepstra() {
        let shared = both();
        for bad in [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
            1e19,
        ] {
            let mut x = noise_and_tones(2_000, 13);
            for i in [0, 1, 199, 200, 777, 1_999] {
                x[i] = bad;
            }
            for m in shared.analyze(&x) {
                assert_eq!(m.num_frames(), 23);
                assert!(
                    m.as_slice().iter().all(|v| v.is_finite()),
                    "laced with {bad}"
                );
            }
            for m in shared.analyze(&vec![bad; 500]) {
                assert!(m.as_slice().iter().all(|v| v.is_finite()), "all {bad}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share framing")]
    fn tails_with_different_framing_are_refused() {
        let odd = PlpConfig {
            nfft: 512,
            ..PlpConfig::default()
        };
        Analyzer::new(vec![
            Cepstrum::Mfcc(MfccTail::new(&MfccConfig::default())),
            Cepstrum::Plp(PlpTail::new(&odd)),
        ]);
    }
}
