//! Property-based tests for the acoustic-model substrate.

use lre_am::gmm::transpose_block;
use lre_am::{DiagGmm, FeatureTransform, Mlp, StateInventory};
use lre_artifact::{check_damage_detected, ArtifactRead, ArtifactWrite};
use lre_dsp::FrameMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn frames(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut r = StdRng::seed_from_u64(seed);
    (0..n * dim)
        .map(|_| r.random::<f32>() * 4.0 - 2.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------------------------------------------------------- GMM

    #[test]
    fn gmm_loglik_is_finite_and_peaks_at_data(seed in 0u64..500, n in 10usize..80) {
        let dim = 4;
        let data = frames(n, dim, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let g = DiagGmm::train(&data, dim, 3, 2, &mut rng);
        // Finite everywhere, and a training point scores above a far outlier.
        let x0 = &data[..dim];
        let far = vec![50.0f32; dim];
        prop_assert!(g.log_likelihood(x0).is_finite());
        prop_assert!(g.log_likelihood(x0) > g.log_likelihood(&far));
        // Weights normalized.
        let wsum: f32 = g.weights().iter().sum();
        prop_assert!((wsum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn gmm_posteriors_always_normalized(seed in 0u64..200) {
        let dim = 3;
        let data = frames(40, dim, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = DiagGmm::train(&data, dim, 4, 2, &mut rng);
        let mut p = vec![0.0; g.num_mix()];
        for probe in [[0.0f32, 0.0, 0.0], [3.0, -3.0, 1.0], [-10.0, 10.0, 0.0]] {
            g.posteriors(&probe, &mut p);
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn gmm_background_component_preserves_ranking_direction(seed in 0u64..100) {
        let dim = 3;
        let data = frames(60, dim, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = DiagGmm::train(&data, dim, 3, 2, &mut rng);
        let smoothed = g.with_background(0.1, 3.0);
        // The background adds a floor: smoothed likelihoods can't fall below
        // the floored background density minus the mixing penalty.
        let far = vec![8.0f32; dim];
        prop_assert!(smoothed.log_likelihood(&far) >= g.log_likelihood(&far) - 1e-3);
        prop_assert_eq!(smoothed.num_mix(), g.num_mix() + 1);
    }

    // ----------------------------------------------------- FeatureTransform

    #[test]
    fn transform_normalizes_its_own_fit_data(seed in 0u64..200, n in 8usize..60) {
        let dim = 5;
        let data = frames(n, dim, seed);
        let t = FeatureTransform::fit(&data, dim);
        let mut normed = data.clone();
        t.apply_flat(&mut normed);
        for d in 0..dim {
            let vals: Vec<f64> =
                normed.chunks_exact(dim).map(|f| f[d] as f64).collect();
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            prop_assert!(mean.abs() < 1e-2, "dim {d} mean {mean}");
            prop_assert!((var - 1.0).abs() < 0.05, "dim {d} var {var}");
        }
    }

    #[test]
    fn transform_is_the_same_for_matrix_and_flat(seed in 0u64..100) {
        let dim = 4;
        let data = frames(20, dim, seed);
        let t = FeatureTransform::fit(&data, dim);
        let mut flat = data.clone();
        t.apply_flat(&mut flat);
        let mut matrix = FrameMatrix::from_flat(dim, data);
        t.apply(&mut matrix);
        for (a, b) in flat.iter().zip(matrix.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    // ----------------------------------------------------------------- MLP

    #[test]
    fn mlp_posteriors_normalized_for_any_input(
        seed in 0u64..100,
        x in prop::collection::vec(-5.0f32..5.0, 6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[6, 10, 4], &mut rng);
        let p = net.posteriors(&x);
        prop_assert_eq!(p.len(), 4);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    // ------------------------------------------------------ StateInventory

    #[test]
    fn uniform_state_is_monotone_within_segment(len in 1usize..40) {
        let mut prev = 0;
        for pos in 0..len {
            let s = StateInventory::uniform_state(pos, len);
            prop_assert!(s >= prev, "state regressed at pos {pos}");
            prop_assert!(s < 3);
            prev = s;
        }
        // First frame always state 0; last frame of len>=3 always state 2.
        prop_assert_eq!(StateInventory::uniform_state(0, len), 0);
        if len >= 3 {
            prop_assert_eq!(StateInventory::uniform_state(len - 1, len), 2);
        }
    }

    // ------------------------------------------------ artifact round trips

    #[test]
    fn gmm_artifact_roundtrip_scores_bit_identically(
        seed in 0u64..200,
        probe in 0usize..1 << 16,
    ) {
        let dim = 4;
        let data = frames(50, dim, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = DiagGmm::train(&data, dim, 3, 2, &mut rng);
        let sealed = g.to_artifact_bytes();
        let back = DiagGmm::from_artifact_bytes(&sealed).expect("round trip");
        for probe_frame in data.chunks_exact(dim).take(8) {
            prop_assert_eq!(
                back.log_likelihood(probe_frame).to_bits(),
                g.log_likelihood(probe_frame).to_bits(),
                "reloaded GMM must score to the bit"
            );
        }
        check_damage_detected::<DiagGmm>(&sealed, probe);
    }

    #[test]
    fn mlp_artifact_roundtrip_scores_bit_identically(
        seed in 0u64..200,
        probe in 0usize..1 << 16,
        x in prop::collection::vec(-3.0f32..3.0, 6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[6, 9, 4], &mut rng);
        let sealed = net.to_artifact_bytes();
        let back = Mlp::from_artifact_bytes(&sealed).expect("round trip");
        let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        net.log_posteriors_into(&x, &mut a);
        back.log_posteriors_into(&x, &mut b);
        for (p, q) in a.iter().zip(&b) {
            prop_assert_eq!(p.to_bits(), q.to_bits(), "reloaded MLP must score to the bit");
        }
        check_damage_detected::<Mlp>(&sealed, probe);
    }
}

/// The exact block kernel against the per-frame oracle, bit for bit, over
/// every combination of: mixture count (every remainder of the
/// 3-component register block), block length (whole and ragged 8-frame
/// groups in every arm of the register block, the 64-frame block's edges,
/// the served lengths), component spread from "no term underflows" to
/// "nearly all do", and a row holding NaN or ±Inf.
#[test]
fn gmm_block_kernel_bitwise_matches_per_frame() {
    let dim = 5;
    let mut r = StdRng::seed_from_u64(0x626c_6f63);
    let mut uniform = |lo: f32, hi: f32| lo + (hi - lo) * r.random::<f32>();
    for num_mix in [1, 2, 3, 4, 5, 9, 16, 17] {
        for n in [1, 8, 11, 16, 17, 24, 25, 32, 33, 63, 64, 65, 75, 250, 750] {
            for spread in [0.5f32, 3.0, 8.0, 20.0] {
                for special in [
                    None,
                    Some(f32::NAN),
                    Some(f32::INFINITY),
                    Some(f32::NEG_INFINITY),
                ] {
                    let means: Vec<f32> = (0..num_mix * dim)
                        .map(|_| uniform(-spread, spread))
                        .collect();
                    let vars: Vec<f32> = (0..num_mix * dim).map(|_| uniform(0.1, 1.1)).collect();
                    let weights: Vec<f32> = (0..num_mix).map(|_| uniform(0.05, 1.05)).collect();
                    // Every frame lands within a σ or so of some component's mean.
                    let mut x: Vec<f32> = (0..n)
                        .flat_map(|t| {
                            let c = t % num_mix;
                            means[c * dim..(c + 1) * dim].to_vec()
                        })
                        .collect();
                    x.iter_mut().for_each(|v| *v += uniform(-1.0, 1.0));
                    if let Some(v) = special {
                        x[(n / 2) * dim + 2] = v;
                    }
                    let g = DiagGmm::from_params(means, vars, weights, dim);

                    let mut ft = Vec::new();
                    transpose_block(&x, dim, &mut ft);
                    let mut block = vec![0.0f32; n];
                    g.log_likelihood_block_t(&ft, &mut Vec::new(), &mut block);
                    for (t, (frame, &b)) in x.chunks_exact(dim).zip(&block).enumerate() {
                        let a = g.log_likelihood(frame);
                        // Rust leaves a NaN's sign and payload unspecified.
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "frame {t} of {n}, {num_mix} mixtures, spread {spread}, \
                             special {special:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}
