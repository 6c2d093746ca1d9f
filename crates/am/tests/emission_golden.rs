//! Bit-identity golden for the `Exact`-mode emission block kernels.
//!
//! The digests below were recorded at commit `32d3f55` — the last one whose
//! GMM log-sum-exp tail called libm `expf` for every mixture term and whose
//! `gemm_xwt_f32` ran one output's accumulator strip at a time. The kernels
//! that replaced them must reproduce every per-state score
//! `f32::to_bits`-equal, so these must never be re-recorded to make a kernel
//! change pass: every trained bundle and every served score moves with them.
//!
//! The scorers are seeded stand-ins shaped like the bundle's: 9-component
//! GMM states whose mixture terms mostly underflow against the best one (at
//! recording, 52 % of the terms had `expf` return zero and 32 % more were
//! below 1e-8 of the best), and randomly initialized networks with the ANN
//! and DNN layer shapes.
//! Like the feature golden, the digests are pinned to the libm they were
//! recorded with (glibc, x86-64).

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

mod common;

use common::{digest, fixed_utterance};
use lre_am::frontend::{extract_features_with, Normalization};
use lre_am::{DiagGmm, FeatureKind, FrameScorer};
use lre_am::{GmmStateScorer, Mlp, NnStateScorer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const DIM: usize = 39;

fn gmm_scorer(feats: &[f32]) -> GmmStateScorer {
    let n = feats.len() / DIM;
    let mut rng = StdRng::seed_from_u64(0x006d_6d67);
    // Component means are frames of the utterance itself, pushed apart by
    // `SPREAD`, under narrow variances: for any one frame a few components
    // are close and the rest are hundreds of nats below the best one.
    const SPREAD: f32 = 1.4;
    let gmms = (0..24)
        .map(|s| {
            let means: Vec<f32> = (0..9)
                .flat_map(|c| {
                    let t = (s * 31 + c * 83) % n;
                    feats[t * DIM..(t + 1) * DIM].iter().map(|v| v * SPREAD)
                })
                .collect();
            let vars: Vec<f32> = (0..9 * DIM)
                .map(|_| 0.08 + 0.3 * rng.random::<f32>())
                .collect();
            let weights: Vec<f32> = (0..9).map(|_| 0.05 + rng.random::<f32>()).collect();
            DiagGmm::from_params(means, vars, weights, DIM)
        })
        .collect();
    GmmStateScorer::new(gmms)
}

fn nn_scorer(sizes: &[usize], seed: u64) -> NnStateScorer {
    let net = Mlp::new(sizes, &mut StdRng::seed_from_u64(seed));
    let states = *sizes.last().unwrap();
    let priors: Vec<f32> = (0..states).map(|i| 1.0 + (i % 7) as f32).collect();
    NnStateScorer::new(net, &priors)
}

fn block_digest(scorer: &dyn FrameScorer, feats: &[f32]) -> u64 {
    let mut out = vec![0.0f32; feats.len() / DIM * scorer.num_states()];
    scorer.score_block(feats, DIM, &mut out);
    assert!(out.iter().all(|v| v.is_finite()));
    digest(&out)
}

#[test]
fn gmm_block_scores_match_the_parent_commit() {
    let f = extract_features_with(&fixed_utterance(), FeatureKind::Plp, Normalization::Cmvn);
    assert_eq!(
        block_digest(&gmm_scorer(f.as_slice()), f.as_slice()),
        GOLDEN_GMM
    );
}

#[test]
fn nn_block_scores_match_the_parent_commit() {
    let f = extract_features_with(&fixed_utterance(), FeatureKind::Mfcc, Normalization::Cmvn);
    let ann = nn_scorer(&[DIM, 128, 177], 0x0061_6e6e);
    let dnn = nn_scorer(&[DIM, 128, 96, 141], 0x0064_6e6e);
    assert_eq!(block_digest(&ann, f.as_slice()), GOLDEN_ANN);
    assert_eq!(block_digest(&dnn, f.as_slice()), GOLDEN_DNN);
}

const GOLDEN_GMM: u64 = 0xdcb2110a54be8e37;
const GOLDEN_ANN: u64 = 0x516a9e232ff33cf1;
const GOLDEN_DNN: u64 = 0x9ba3001ffa8dd657;
