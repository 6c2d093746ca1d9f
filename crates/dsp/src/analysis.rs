//! The one spectral pass: frame → window → FFT → power spectrum, shared by
//! every cepstral tail that wants it.

use crate::fft::{Complex, Fft};
use crate::frame::{FrameConfig, Framer};
use crate::frames::FrameMatrix;
use crate::mfcc::MfccTail;
use crate::plp::PlpTail;

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

    fn scratch(&self) -> TailScratch {
        match self {
            Cepstrum::Mfcc(t) => t.scratch(),
            Cepstrum::Plp(t) => t.scratch(),
        }
    }

    fn cepstra(&self, power: &[f32], scratch: &mut TailScratch, out: &mut [f32]) {
        match self {
            Cepstrum::Mfcc(t) => t.cepstra(power, scratch, out),
            Cepstrum::Plp(t) => t.cepstra(power, scratch, out),
        }
    }
}

/// Per-call working storage of one tail: band energies, their warped (log
/// or cube-root) values, the transform's output coefficients, and — PLP
/// only, empty otherwise — the all-pole model and its cepstra.
pub(crate) struct TailScratch {
    pub bands: Vec<f32>,
    pub warped: Vec<f64>,
    pub coeffs: Vec<f64>,
    pub lpc: Vec<f64>,
    pub reflection: Vec<f64>,
    pub ceps: Vec<f64>,
}

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
/// Per frame: pre-emphasis + window into a `window_len` scratch, **one** FFT
/// into an `nfft / 2 + 1`-bin power spectrum, then each tail's cepstra from
/// that same spectrum straight into its output row. The analyzer's working
/// storage is allocated per call, not per frame, and is a few KB whatever
/// the length of the utterance; the analyzer itself is immutable and
/// shared across threads.
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
        let nfft = self.fft.size();
        let mut frame = vec![0.0_f32; self.framer.config().window_len];
        let mut buf = vec![Complex::ZERO; nfft];
        let mut power = vec![0.0_f32; nfft / 2 + 1];
        let mut scratch: Vec<TailScratch> = self.tails.iter().map(Cepstrum::scratch).collect();
        for f in 0..nf {
            self.framer.frame_into(samples, f, &mut frame);
            self.fft.power_spectrum_into(&frame, &mut buf, &mut power);
            for ((tail, s), out) in self.tails.iter().zip(&mut scratch).zip(&mut outs) {
                tail.cepstra(&power, s, out.frame_mut(f));
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

    fn bits(m: &FrameMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Sharing the spectrum changes nothing: both matrices of a two-tail
    /// pass equal the single-kind `mfcc()` / `plp()` calls bit for bit, from
    /// sub-window utterances up to the benchmark's longest.
    #[test]
    fn shared_spectrum_matrices_equal_single_kind_calls() {
        let shared = both();
        let swapped = Analyzer::new(vec![
            Cepstrum::Plp(PlpTail::new(&PlpConfig::default())),
            Cepstrum::Mfcc(MfccTail::new(&MfccConfig::default())),
        ]);
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
    /// filter rows, floor, log, `dct2`.
    #[test]
    fn streaming_pass_equals_the_stagewise_pipeline() {
        let cfg = MfccConfig::default();
        let x = noise_and_tones(4_000, 11);
        let emphasized = pre_emphasis(&x, cfg.frame.pre_emphasis);
        let window = hamming_window(cfg.frame.window_len);
        let bank = crate::mel_filterbank(cfg.num_filters, cfg.nfft, 8000.0, cfg.f_lo, cfg.f_hi);
        let got = mfcc(&x, &cfg);
        assert_eq!(got.num_frames(), 48);
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
            let peak = energies.iter().fold(1e-10f32, |m, &e| m.max(e));
            let floor = peak * 1e-4 + 1e-10;
            let logs: Vec<f64> = energies
                .iter()
                .map(|&e| (e.max(floor) as f64).ln())
                .collect();
            let want: Vec<u32> = crate::mfcc::dct2(&logs, cfg.num_ceps)
                .iter()
                .map(|&c| (c as f32).to_bits())
                .collect();
            let row: Vec<u32> = got.frame(f).iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, want, "frame {f}");
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
