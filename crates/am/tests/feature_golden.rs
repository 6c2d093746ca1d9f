//! Bit-identity golden for the feature front-end.
//!
//! The digests below were recorded at commit `caac373` — the last one whose
//! `lre-dsp` ran six naive per-frame DSP passes (allocating FFT with a serial
//! twiddle chain, dense filterbanks, per-frame `cos()` in the DCT and the
//! cosine autocorrelation, three-matrix delta appending). The table-driven
//! analyzer that replaced them must reproduce every output value
//! `f32::to_bits`-equal, so these must never be re-recorded to make a DSP
//! change pass; a DSP change that moves them changes every trained model and
//! every served score.
//!
//! The input is built from integer arithmetic and f32 multiply-adds only, but
//! the features go through the platform's f64 `cos` / `ln` / `powf`, so the
//! digests are pinned to the libm they were recorded with (glibc, x86-64).

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

mod common;

use common::{digest, fixed_utterance, fnv};
use lre_am::frontend::{extract_features_with, Normalization};
use lre_am::{extract_features, FeatureKind};

#[test]
fn input_is_the_recorded_one() {
    assert_eq!(digest(&fixed_utterance()), GOLDEN_INPUT);
}

#[test]
fn full_utterance_features_match_the_parent_commit() {
    let x = fixed_utterance();
    for (kind, want) in [
        (FeatureKind::Mfcc, GOLDEN_MFCC),
        (FeatureKind::Plp, GOLDEN_PLP),
    ] {
        let f = extract_features(&x, kind);
        assert_eq!((f.num_frames(), f.dim()), (748, 39));
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            digest(f.as_slice()),
            want,
            "{} features drifted from the recorded bits",
            kind.name()
        );
    }
}

/// Short prefixes put the delta edge clamps, the one-frame CMS and the
/// other two normalizations under the same contract.
#[test]
fn prefixes_and_normalizations_match_the_parent_commit() {
    let x = fixed_utterance();
    let mut got = Vec::new();
    for len in [200, 280, 360, 8_000] {
        for kind in [FeatureKind::Mfcc, FeatureKind::Plp] {
            for norm in [Normalization::None, Normalization::Cms, Normalization::Cmvn] {
                got.push(digest(
                    extract_features_with(&x[..len], kind, norm).as_slice(),
                ));
            }
        }
    }
    let folded = fnv(got.iter().flat_map(|d| d.to_le_bytes()), 2 * got.len());
    assert_eq!(folded, GOLDEN_PREFIXES, "per-case digests: {got:#x?}");
}

const GOLDEN_INPUT: u64 = 0x7e23317278aed4a1;
const GOLDEN_MFCC: u64 = 0xfb3f26d72d795bc9;
const GOLDEN_PLP: u64 = 0x930905911574f33a;
const GOLDEN_PREFIXES: u64 = 0x8cb2b6d6bac213bc;
