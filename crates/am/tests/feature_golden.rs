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

use lre_am::frontend::{extract_features_with, Normalization};
use lre_am::{extract_features, FeatureKind};

/// 7.5 s (748 frames, the length of the benchmark's 30 s-nominal utterance)
/// of seeded noise under two drifting resonator tones.
fn fixed_utterance() -> Vec<f32> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    // Two-pole resonators `y[n] = c·y[n-1] − y[n-2]`, c = 2cos(ω): ≈ 500 Hz
    // and ≈ 1 500 Hz at 8 kHz, written as literals so no libm call shapes
    // the input.
    let (c1, c2) = (1.847_759_f32, 0.765_366_9_f32);
    let (mut a1, mut a0) = (0.382_683_4_f32, 0.0_f32);
    let (mut b1, mut b0) = (0.923_879_5_f32, 0.0_f32);
    (0..60_000)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 23) as f32;
            let a = c1 * a1 - a0;
            (a0, a1) = (a1, a);
            let b = c2 * b1 - b0;
            (b0, b1) = (b1, b);
            // A slow amplitude ramp keeps frames distinct under CMS.
            let gain = 0.2 + 0.8 * (i % 4_000) as f32 / 4_000.0;
            gain * (0.5 * a + 0.25 * b) + 0.05 * noise
        })
        .collect()
}

/// The fold of `lre_serve::sample_digest`: FNV-1a over the little-endian
/// bytes, then the count of 32-bit words.
fn fnv(bytes: impl IntoIterator<Item = u8>, words: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= words as u64;
    h.wrapping_mul(PRIME)
}

fn digest(values: &[f32]) -> u64 {
    fnv(
        values.iter().flat_map(|v| v.to_bits().to_le_bytes()),
        values.len(),
    )
}

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
