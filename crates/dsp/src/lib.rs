//! Signal-processing substrate for the LRE-DBA reproduction.
//!
//! The paper's front-ends consume 13-dimensional PLP (or MFCC) features plus
//! first- and second-order derivatives, extracted every 10 ms over a 25 ms
//! Hamming window from 8 kHz telephone speech, normalized by CMVN (§4.1).
//! This crate implements that entire path from raw samples, plus the formant
//! waveform synthesizer the synthetic corpus uses in place of real speech:
//!
//! - [`analysis`]: the [`Analyzer`] — one pass over an utterance, eight
//!   frames at a time, one FFT per frame, any number of cepstral tails from
//!   that spectrum,
//! - [`fft`]: iterative radix-2 complex FFT and real power spectra,
//! - [`frame`]: pre-emphasis, framing, Hamming windows,
//! - [`filterbank`]: mel and bark filterbanks,
//! - [`mfcc()`](mfcc::mfcc) / [`plp()`](plp::plp): the two cepstral front-ends,
//!   each an [`Analyzer`] with a single tail,
//! - [`delta`]: derivative appending,
//! - [`cmvn`]: per-utterance cepstral mean/variance normalization,
//! - [`synth`]: a formant synthesizer that renders phone sequences to samples,
//! - [`FrameMatrix`]: the flat row-major `f32` feature container every other
//!   crate consumes.
//!
//! # What is tabulated, and why nothing moved
//!
//! The paper runs six recognizers over the same audio (§4.1), so feature
//! analysis is per-utterance work that every front-end repeats unless it is
//! shared, and per-frame work worth doing from tables. Everything that does
//! not depend on the samples is computed once, when an [`Analyzer`] (or an
//! [`Fft`], [`Filterbank`], [`mfcc::Dct2`]) is built — and each table holds
//! exactly the values the per-frame expression it replaces would produce, so
//! every feature is `f32::to_bits`-equal to the untabulated computation:
//!
//! | table | replaces | why the bits are the same |
//! |---|---|---|
//! | Hamming window ([`frame::Framer`]) | `hamming_window` per call | same function, called once |
//! | bit-reversal permutation ([`Fft`]) | `reverse_bits` + swap per frame | a permutation; the zero-padded real frame is scattered straight into place |
//! | stage twiddles ([`Fft`]) | loop-carried `w = w * wlen` per block | filled by that same f32 recurrence from the same `wlen` |
//! | filter spans ([`Filterbank`]) | 129-term dense rows, ≈ 90 % zeros | skipped terms are `+0.0`; the sum is `+0.0` before the run and never `-0.0` after it |
//! | DCT-II cosines ([`mfcc::Dct2`]) | 299 f64 `cos()` per frame | same f64 expression per entry, same summation order |
//! | autocorrelation cosines ([`plp::PlpTail`]) | 221 f64 `cos()` per frame | same expression, same `weight · s · cos` order |
//! | equal-loudness weights ([`plp::PlpTail`]) | per call | same function, called once |
//!
//! What stays per frame is what depends on the samples: the butterflies, the
//! band sums, 23 `ln` (MFCC) or 17 `powf` + one order-12 Levinson-Durbin
//! (PLP). The unit tests keep the pre-table FFT, DCT and autocorrelation
//! verbatim as references, and `lre-am`'s `feature_golden` test pins digests
//! recorded before any of this existed.
//!
//! That per-frame work runs over **lane groups**: eight consecutive frames
//! at once, frame `l` in lane `l` of every `[f32; 8]` / `[f64; 8]` row, so
//! each step is one vector operation for all eight. Per group: the eight
//! windowed frames are scattered into bit-reversed rows, the butterflies run
//! every stage across the lanes (`fft::ComplexLanes`) with `re² + im²`
//! per lane; then each tail applies its filter spans, a per-lane relative
//! floor (each lane its own peak), the DCT-II or loudness weights, cosine
//! autocorrelation, Levinson-Durbin and LPC → cepstrum recursions across
//! the lanes. Why every lane's bits are the single-frame ones: rustc
//! neither reassociates nor contracts float arithmetic, and each lane
//! performs exactly the single-frame code's operations, on the same
//! operands, in the same order — lanes never mix. Where the single-frame
//! code stops early (Levinson-Durbin's `r[0] <= 0` and `err <= 0` exits),
//! the lane keeps computing under an `alive` mask built from those same
//! predicates, so a NaN lane lives on exactly where the single-frame code
//! would, and a dead lane writes the zeros a degenerate frame always got.
//! A ragged last group is padded with zero frames whose lanes are never
//! stored. The one exception to "one vector operation" is libm: `ln` and
//! `powf(1/3)` (and the cepstrum's `c0 = ln`) stay one scalar call per
//! element, the functions the single-frame path called. The single-frame
//! tails survive only in the unit tests, as the lane groups' reference.

pub mod analysis;
pub mod cmvn;
pub mod delta;
pub mod fft;
pub mod filterbank;
pub mod frame;
pub mod frames;
pub mod mfcc;
pub mod plp;
pub mod sdc;
pub mod synth;

pub use analysis::{Analyzer, Cepstrum};
pub use cmvn::cmvn_in_place;
pub use delta::append_deltas;
pub use fft::{fft_in_place, power_spectrum, Complex, Fft};
pub use filterbank::{
    bark_filterbank, hz_to_bark, hz_to_mel, mel_filterbank, mel_to_hz, Filterbank,
};
pub use frame::{hamming_window, pre_emphasis, FrameConfig, Framer};
pub use frames::FrameMatrix;
pub use mfcc::{mfcc, MfccConfig, MfccTail};
pub use plp::{plp, PlpConfig, PlpTail};
pub use sdc::{sdc, SdcConfig};
pub use synth::{FormantSpec, Segment, SynthConfig, Synthesizer};

/// Frames per lane group: the [`Analyzer`] runs each per-frame step across
/// this many frames at once, frame `l` of the group in lane `l` of every
/// `[f32; LANES]` / `[f64; LANES]` row.
pub(crate) const LANES: usize = 8;

/// One value of each frame of a lane group.
pub(crate) type F32s = [f32; LANES];

/// [`F32s`] in double precision, for the tails' f64 stages.
pub(crate) type F64s = [f64; LANES];

/// Deterministic test input shared by the unit tests: seeded noise under two
/// tones.
#[cfg(test)]
pub(crate) mod testsignal {
    pub fn noise_and_tones(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let noise = ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 23) as f32;
                let t = i as f32 / 8000.0;
                0.3 * noise
                    + (2.0 * std::f32::consts::PI * 440.0 * t).sin()
                    + 0.5 * (2.0 * std::f32::consts::PI * 1730.0 * t).cos()
            })
            .collect()
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    /// End-to-end smoke test: a synthetic vowel-like tone goes through the
    /// full MFCC and PLP paths and produces finite, non-degenerate features.
    #[test]
    fn tone_through_both_frontends() {
        let sr = 8000.0;
        let samples: Vec<f32> = (0..8000)
            .map(|i| {
                let t = i as f32 / sr;
                (2.0 * std::f32::consts::PI * 500.0 * t).sin()
                    + 0.5 * (2.0 * std::f32::consts::PI * 1500.0 * t).sin()
            })
            .collect();

        let m = mfcc(&samples, &MfccConfig::default());
        let p = plp(&samples, &PlpConfig::default());
        assert!(m.num_frames() > 50);
        assert_eq!(m.num_frames(), p.num_frames());
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        // Features must not be constant across frames.
        let first = m.frame(0).to_vec();
        assert!((0..m.num_frames()).any(|i| m.frame(i) != &first[..]) || m.num_frames() == 1);
    }
}
