//! Bit-identity golden for the search / slot-posterior half of the decoder.
//!
//! The digests below were recorded at commit `e7d7278` — the last one whose
//! `decode_with_scratch` chose between two emission kernels and two segment
//! softmaxes by a scoring-mode field. The one arithmetic that is left must
//! reproduce the emission block, the Viterbi score, every segment and every
//! slot posterior `f32::to_bits`-equal, so these must never be re-recorded
//! to make a decoder change pass: every supervector, every trained bundle
//! and every served score moves with them.
//!
//! The acoustic models are seeded stand-ins (see `emission_golden.rs` in
//! `lre-am`): a GMM whose states sit on frames of the utterance itself and a
//! network with the ANN layer shape. Like the other goldens, the digests are
//! pinned to the libm they were recorded with (glibc, x86-64).

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

#[path = "../../am/tests/common/mod.rs"]
mod common;

use common::{digest, fixed_utterance, fnv};
use lre_am::frontend::{extract_features_with, Normalization};
use lre_am::nn::TrainConfig;
use lre_am::{
    AcousticModel, DiagGmm, FeatureKind, FeatureTransform, FrameScorer, GmmStateScorer,
    HmmTopology, Mlp, NnStateScorer, StateInventory, STATES_PER_PHONE,
};
use lre_dsp::FrameMatrix;
use lre_lattice::{decode, score_all_frames, DecodeOutput, DecoderConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const DIM: usize = 39;

fn acoustic_model(scorer: Box<dyn FrameScorer>, feature: FeatureKind) -> AcousticModel {
    let phones = scorer.num_states() / STATES_PER_PHONE;
    AcousticModel {
        scorer,
        topology: HmmTopology::default(),
        inventory: StateInventory::from_phone_count(phones),
        feature,
        feature_transform: FeatureTransform::identity(DIM),
        train_diagnostic: None,
    }
}

/// 12 phones × 3 states of 4-component mixtures centred on frames of the
/// utterance, wide enough that several phones compete inside one segment.
fn gmm_am(feats: &FrameMatrix) -> AcousticModel {
    let n = feats.num_frames();
    let mut rng = StdRng::seed_from_u64(0x0064_676d);
    let gmms = (0..12 * STATES_PER_PHONE)
        .map(|s| {
            let means: Vec<f32> = (0..4)
                .flat_map(|c| feats.frame((s * 53 + c * 197) % n).iter().copied())
                .collect();
            let vars: Vec<f32> = (0..4 * DIM)
                .map(|_| 1.5 + 2.0 * rng.random::<f32>())
                .collect();
            let weights: Vec<f32> = (0..4).map(|_| 0.05 + rng.random::<f32>()).collect();
            DiagGmm::from_params(means, vars, weights, DIM)
        })
        .collect();
    acoustic_model(Box::new(GmmStateScorer::new(gmms)), FeatureKind::Plp)
}

/// The ANN layer shape (59 phones × 3 states). A randomly initialized
/// network scores every state within a fraction of a nat and the search
/// never leaves its first phone, so this one gets a few seeded SGD epochs
/// towards "the nearest of 59 anchor frames": peaked, time-varying
/// posteriors without a corpus.
fn nn_am(feats: &FrameMatrix) -> AcousticModel {
    let n = feats.num_frames();
    let labels: Vec<u32> = (0..n)
        .map(|t| {
            let dist = |p: usize| -> f32 {
                let anchor = feats.frame((p * 12 + 5) % n);
                let x = feats.frame(t);
                x.iter().zip(anchor).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            let phone = (0..59)
                .min_by(|&a, &b| dist(a).partial_cmp(&dist(b)).unwrap())
                .unwrap();
            (phone * STATES_PER_PHONE + t % STATES_PER_PHONE) as u32
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x0064_6e61);
    let mut net = Mlp::new(&[DIM, 128, 177], &mut rng);
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    net.train(feats.as_slice(), &labels, &cfg, &mut rng);
    let priors: Vec<f32> = (0..177).map(|i| 1.0 + (i % 7) as f32).collect();
    acoustic_model(
        Box::new(NnStateScorer::new(net, &priors)),
        FeatureKind::Mfcc,
    )
}

/// Everything a `DecodeOutput` carries, in order, as 32-bit words.
fn decode_digest(out: &DecodeOutput) -> u64 {
    assert_eq!(out.network.num_slots(), out.segments.len());
    let mut words = vec![out.num_frames as u32, out.viterbi_score.to_bits()];
    for seg in &out.segments {
        words.extend([u32::from(seg.phone), seg.start as u32, seg.end as u32]);
    }
    for slot in out.network.slots() {
        words.push(slot.len() as u32);
        for e in slot {
            assert!(e.prob.is_finite());
            words.extend([u32::from(e.phone), e.prob.to_bits()]);
        }
    }
    fnv(words.iter().flat_map(|w| w.to_le_bytes()), words.len())
}

/// `[emission block, full decode, 0-frame decode, 1-frame decode]`.
fn digests(am: &AcousticModel, feats: &FrameMatrix) -> [u64; 4] {
    assert_eq!((feats.num_frames(), feats.dim()), (748, DIM));
    let cfg = DecoderConfig::default();
    let full = decode(am, feats, &cfg);
    assert!(full.segments.len() > 1, "the search must segment");
    [
        digest(&score_all_frames(am, feats)),
        decode_digest(&full),
        decode_digest(&decode(am, &feats.slice_frames(0, 0), &cfg)),
        decode_digest(&decode(am, &feats.slice_frames(0, 1), &cfg)),
    ]
}

#[test]
fn gmm_decode_matches_the_parent_commit() {
    let f = extract_features_with(&fixed_utterance(), FeatureKind::Plp, Normalization::Cmvn);
    let got = digests(&gmm_am(&f), &f);
    assert_eq!(got, GOLDEN_GMM, "got {got:#x?}");
}

#[test]
fn nn_decode_matches_the_parent_commit() {
    let f = extract_features_with(&fixed_utterance(), FeatureKind::Mfcc, Normalization::Cmvn);
    let got = digests(&nn_am(&f), &f);
    assert_eq!(got, GOLDEN_NN, "got {got:#x?}");
}

const GOLDEN_GMM: [u64; 4] = [
    0xd2d00714ed8de544,
    0xb53f580ec936a4b2,
    0xe604843a24902d25,
    0xd8a9fd22bab207d8,
];
const GOLDEN_NN: [u64; 4] = [
    0xe80d8bfb60f1d4e9,
    0x93c0a2cbd6cf6666,
    0xe604843a24902d25,
    0x3996748896f70b1b,
];
