//! Feature front-ends: MFCC or PLP base cepstra + Δ + ΔΔ + CMVN.
//!
//! All of it goes through one [`FeatureExtractor`]: an `lre_dsp::Analyzer`
//! whose window, FFT plan, filterbanks and cosine tables are built once (see
//! the `lre-dsp` crate docs for what is tabulated and why each table is
//! bit-identical to the expression it replaces), run once per utterance for
//! every kind wanted. [`extract_features`] is the single-kind case of it.

use lre_dsp::{
    append_deltas, cmvn_in_place, Analyzer, Cepstrum, FrameMatrix, MfccConfig, MfccTail, PlpConfig,
    PlpTail,
};
use std::sync::OnceLock;

/// Normalization applied after delta appending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalization {
    /// No per-utterance normalization (the acoustic model applies its own
    /// global transform; see `AcousticModel::feature_transform`).
    None,
    /// Cepstral mean subtraction only.
    Cms,
    /// Mean and variance normalization.
    Cmvn,
}

/// Which base cepstral analysis a recognizer uses. The paper's GMM-HMM and
/// DNN-HMM recognizers use PLP; MFCC is the classic alternative named in §1
/// as the third diversification axis, used here by the ANN-HMM front-ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    Mfcc,
    Plp,
}

impl FeatureKind {
    pub fn name(&self) -> &'static str {
        match self {
            FeatureKind::Mfcc => "mfcc",
            FeatureKind::Plp => "plp",
        }
    }
}

/// Feature dimension produced by [`extract_features`]: 13 cepstra × (static,
/// Δ, ΔΔ), the paper's 39-dimension configuration.
pub const FEATURE_DIM: usize = 39;

/// The feature front-end of a set of recognizers: one [`Analyzer`] pass per
/// utterance serves every distinct [`FeatureKind`] among them (the six
/// subsystems of the paper use two), and Δ/ΔΔ and the per-utterance
/// normalization run once per kind, not once per recognizer.
///
/// Sharing is free of any effect on the values: a kind's matrix is
/// `f32::to_bits`-equal to [`extract_features`] of that kind alone (the
/// tails only read the shared power spectrum), which in turn reproduces the
/// digests `tests/feature_golden.rs` recorded from the per-recognizer,
/// table-free passes this replaced.
#[derive(Clone, Debug)]
pub struct FeatureExtractor {
    kinds: Vec<FeatureKind>,
    analyzer: Analyzer,
}

impl FeatureExtractor {
    /// An extractor for the distinct kinds among `kinds` (at least one), in
    /// first-seen order.
    pub fn new(kinds: impl IntoIterator<Item = FeatureKind>) -> FeatureExtractor {
        let mut distinct = Vec::new();
        for kind in kinds {
            if !distinct.contains(&kind) {
                distinct.push(kind);
            }
        }
        let tails = distinct
            .iter()
            .map(|kind| match kind {
                FeatureKind::Mfcc => Cepstrum::Mfcc(MfccTail::new(&MfccConfig::default())),
                FeatureKind::Plp => Cepstrum::Plp(PlpTail::new(&PlpConfig::default())),
            })
            .collect();
        FeatureExtractor {
            kinds: distinct,
            analyzer: Analyzer::new(tails),
        }
    }

    /// The distinct kinds extracted, in the order [`Self::extract`] returns
    /// their matrices.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Position of `kind` in [`Self::kinds`].
    pub fn index_of(&self, kind: FeatureKind) -> Option<usize> {
        self.kinds.iter().position(|&k| k == kind)
    }

    /// CMS-normalized 39-dimensional features of every kind, from one pass
    /// over `samples`.
    pub fn extract(&self, samples: &[f32]) -> Vec<FrameMatrix> {
        self.extract_with(samples, Normalization::Cms)
    }

    /// [`Self::extract`] with an explicit normalization choice.
    pub fn extract_with(&self, samples: &[f32], norm: Normalization) -> Vec<FrameMatrix> {
        self.analyzer
            .analyze(samples)
            .iter()
            .map(|base| {
                let mut full = append_deltas(base, 2);
                match norm {
                    Normalization::None => {}
                    Normalization::Cms => cms_in_place(&mut full),
                    Normalization::Cmvn => cmvn_in_place(&mut full),
                }
                debug_assert_eq!(full.dim(), FEATURE_DIM);
                full
            })
            .collect()
    }
}

/// Extract normalized 39-dimensional features from raw samples.
///
/// Produces CMS-normalized features: per-utterance cepstral *mean*
/// subtraction (channel compensation, §4.1's conversation-side
/// normalization) — but **not** per-utterance variance scaling. Variance
/// normalization to unit scale is applied as a *global* transform owned by
/// the acoustic model: per-utterance variance depends on the utterance's
/// phone mix, which couples the feature space to the spoken language and
/// wrecks cross-language decoding (verified in this reproduction; see
/// DESIGN.md).
pub fn extract_features(samples: &[f32], kind: FeatureKind) -> FrameMatrix {
    extract_features_with(samples, kind, Normalization::Cms)
}

/// Extract features with an explicit normalization choice.
pub fn extract_features_with(
    samples: &[f32],
    kind: FeatureKind,
    norm: Normalization,
) -> FrameMatrix {
    // One single-kind extractor per kind for the life of the process, so a
    // call builds no tables.
    static MFCC: OnceLock<FeatureExtractor> = OnceLock::new();
    static PLP: OnceLock<FeatureExtractor> = OnceLock::new();
    let single = match kind {
        FeatureKind::Mfcc => &MFCC,
        FeatureKind::Plp => &PLP,
    };
    single
        .get_or_init(|| FeatureExtractor::new([kind]))
        .extract_with(samples, norm)
        .pop()
        .expect("one matrix per kind")
}

/// Mean-subtract each dimension in place (no variance scaling).
fn cms_in_place(feats: &mut FrameMatrix) {
    let t_max = feats.num_frames();
    if t_max == 0 {
        return;
    }
    let d = feats.dim();
    let mut mean = vec![0.0f64; d];
    for fr in feats.iter() {
        for i in 0..d {
            mean[i] += fr[i] as f64;
        }
    }
    let n = t_max as f64;
    let mean32: Vec<f32> = mean.iter().map(|m| (*m / n) as f32).collect();
    for t in 0..t_max {
        let fr = feats.frame_mut(t);
        for i in 0..d {
            fr[i] -= mean32[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone() -> Vec<f32> {
        (0..8000)
            .map(|i| (2.0 * std::f32::consts::PI * 600.0 * i as f32 / 8000.0).sin())
            .collect()
    }

    #[test]
    fn dimension_is_39() {
        for kind in [FeatureKind::Mfcc, FeatureKind::Plp] {
            let f = extract_features(&tone(), kind);
            assert_eq!(f.dim(), FEATURE_DIM);
            assert!(f.num_frames() > 90);
        }
    }

    /// Six recognizers over two kinds extract two matrices from one pass,
    /// each bit-identical to the single-kind call.
    #[test]
    fn shared_extraction_equals_single_kind_extraction() {
        use FeatureKind::{Mfcc, Plp};
        let shared = FeatureExtractor::new([Mfcc, Mfcc, Mfcc, Plp, Plp, Plp]);
        assert_eq!(shared.kinds(), [Mfcc, Plp]);
        assert_eq!(shared.index_of(Plp), Some(1));
        assert_eq!(FeatureExtractor::new([Plp]).index_of(Mfcc), None);
        for samples in [tone(), tone()[..280].to_vec(), tone()[..199].to_vec()] {
            let both = shared.extract(&samples);
            assert_eq!(both.len(), 2);
            for (got, kind) in both.iter().zip([Mfcc, Plp]) {
                let want = extract_features(&samples, kind);
                assert_eq!(got.num_frames(), want.num_frames());
                let bits = |m: &FrameMatrix| -> Vec<u32> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(got), bits(&want), "{}", kind.name());
            }
        }
    }

    #[test]
    fn cmvn_variant_is_normalized() {
        let f = extract_features_with(&tone(), FeatureKind::Mfcc, Normalization::Cmvn);
        for d in 0..f.dim() {
            let n = f.num_frames() as f64;
            let mean: f64 = f.iter().map(|fr| fr[d] as f64).sum::<f64>() / n;
            assert!(mean.abs() < 2e-2, "dim {d} mean {mean}");
        }
    }

    #[test]
    fn kinds_produce_different_features() {
        // Compare un-normalized features: CMS zeroes a steady-state tone.
        let a = extract_features_with(&tone(), FeatureKind::Mfcc, Normalization::None);
        let b = extract_features_with(&tone(), FeatureKind::Plp, Normalization::None);
        assert_eq!(a.num_frames(), b.num_frames());
        let diff: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1.0);
    }
}
