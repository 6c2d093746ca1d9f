//! Micro-benchmarks of the computational kernels underneath the pipeline:
//! FFT, MFCC/PLP extraction, GMM frame scoring, NN forward pass, expected
//! N-gram counting, TFLLR scaling and the dual-coordinate-descent SVM.
//! These are the knobs DESIGN.md's cost model is built on.

use criterion::{criterion_group, criterion_main, Criterion};
use lre_am::{DiagGmm, Mlp};
use lre_dsp::{
    mfcc, plp, power_spectrum, Analyzer, Cepstrum, MfccConfig, MfccTail, PlpConfig, PlpTail,
};
use lre_lattice::{expected_ngram_counts_cn, ConfusionNetwork, SlotEntry};
use lre_svm::{train_binary, SvmTrainConfig};
use lre_vsm::{SparseVec, TfllrScaler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn bench_dsp(c: &mut Criterion) {
    // A 750-frame utterance (the serving benchmark's 30 s nominal length) of
    // noise under two tones: every band carries energy, as in speech, so the
    // filterbank floor and the PLP recursion do representative work.
    let mut rng = StdRng::seed_from_u64(11);
    let samples: Vec<f32> = (0..60_160)
        .map(|i| {
            let t = i as f32 / 8000.0;
            (2.0 * std::f32::consts::PI * 700.0 * t).sin()
                + 0.5 * (2.0 * std::f32::consts::PI * 1900.0 * t).sin()
                + 0.2 * (rng.random::<f32>() - 0.5)
        })
        .collect();
    let (mfcc_cfg, plp_cfg) = (MfccConfig::default(), PlpConfig::default());
    assert_eq!(mfcc_cfg.frame.num_frames(samples.len()), 750);
    let mut g = c.benchmark_group("dsp");
    g.bench_function("fft_256_power_spectrum", |b| {
        b.iter(|| black_box(power_spectrum(&samples[..256], 256)))
    });
    // One recognizer's pass of each kind; the paper's six recognizers cost
    // 3 × mfcc + 3 × plp when each extracts its own …
    g.bench_function("mfcc_750_frames", |b| {
        b.iter(|| black_box(mfcc(&samples, &mfcc_cfg)))
    });
    g.bench_function("plp_750_frames", |b| {
        b.iter(|| black_box(plp(&samples, &plp_cfg)))
    });
    // … and this much when one analysis serves all of them.
    let shared = Analyzer::new(vec![
        Cepstrum::Mfcc(MfccTail::new(&mfcc_cfg)),
        Cepstrum::Plp(PlpTail::new(&plp_cfg)),
    ]);
    g.bench_function("mfcc_and_plp_shared_spectrum_750_frames", |b| {
        b.iter(|| black_box(shared.analyze(&samples)))
    });
    g.finish();
}

fn bench_am(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let frames: Vec<f32> = (0..2000 * 39)
        .map(|_| rng.random::<f32>() * 2.0 - 1.0)
        .collect();
    let gmm = DiagGmm::train(&frames, 39, 6, 2, &mut rng);
    let nn = Mlp::new(&[39, 96, 96, 141], &mut rng);
    let frame: Vec<f32> = (0..39).map(|_| rng.random::<f32>()).collect();

    let mut g = c.benchmark_group("acoustic_scoring");
    g.bench_function("gmm_6mix_39d_loglik", |b| {
        b.iter(|| black_box(gmm.log_likelihood(&frame)))
    });
    g.bench_function("dnn_96x96_forward", |b| {
        b.iter(|| black_box(nn.posteriors(&frame)))
    });

    // Batched counterparts: one 64-frame block through the transposed GMM
    // kernel, and a 128-row panel through the blocked gemm — the two kernels
    // the batched `score_block` paths are built on.
    let block = &frames[..64 * 39];
    let mut ft = vec![0.0f32; 64 * 39];
    for t in 0..64 {
        for d in 0..39 {
            ft[d * 64 + t] = block[t * 39 + d];
        }
    }
    let mut comps = Vec::new();
    let mut out64 = vec![0.0f32; 64];
    g.bench_function("gmm_6mix_39d_block_64frames", |b| {
        b.iter(|| {
            gmm.log_likelihood_block_t(&ft, &mut comps, &mut out64);
            black_box(&mut out64);
        })
    });
    let w: Vec<f32> = (0..141 * 39).map(|_| rng.random::<f32>() - 0.5).collect();
    let bias: Vec<f32> = (0..141).map(|_| rng.random::<f32>() - 0.5).collect();
    let x = &frames[..128 * 39];
    let mut gemm_out = vec![0.0f32; 128 * 141];
    g.bench_function("gemm_xwt_128x39x141", |b| {
        b.iter(|| {
            lre_linalg::gemm_xwt_f32(x, &w, &bias, 39, &mut gemm_out);
            black_box(&mut gemm_out);
        })
    });
    g.finish();
}

fn bench_phonotactics(c: &mut Criterion) {
    // A 100-slot confusion network with 4 alternatives per slot.
    let mut rng = StdRng::seed_from_u64(9);
    let slots: Vec<Vec<SlotEntry>> = (0..100)
        .map(|_| {
            (0..4)
                .map(|k| SlotEntry {
                    phone: rng.random_range(0..59u16),
                    prob: if k == 0 { 0.7 } else { 0.1 },
                })
                .collect()
        })
        .collect();
    let net = ConfusionNetwork::new(slots);

    let mut g = c.benchmark_group("phonotactics");
    g.bench_function("expected_bigram_counts_100_slots", |b| {
        b.iter(|| black_box(expected_ngram_counts_cn(&net, 2, 59)))
    });
    g.finish();
}

fn bench_svm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let dim = 3540u32; // 59 + 59² supervector
    let xs: Vec<SparseVec> = (0..200)
        .map(|i| {
            let pairs: Vec<(u32, f32)> = (0..300)
                .map(|_| (rng.random_range(0..dim), rng.random::<f32>()))
                .collect();
            let mut sv = SparseVec::from_pairs(pairs);
            // Make the two classes linearly separable on dimension 0.
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let mut pairs: Vec<(u32, f32)> = sv.iter().collect();
            pairs.push((0, y * 3.0));
            sv = SparseVec::from_pairs(pairs);
            sv
        })
        .collect();
    let ys: Vec<i8> = (0..200).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let scaler = TfllrScaler::fit(&xs, dim as usize, 1e-5);

    let mut g = c.benchmark_group("vsm_svm");
    g.sample_size(20);
    g.bench_function("tfllr_transform_300nnz", |b| {
        b.iter(|| black_box(scaler.transformed(&xs[0])))
    });
    g.bench_function("dcd_svm_train_200x300nnz", |b| {
        b.iter(|| {
            black_box(train_binary(
                &xs,
                &ys,
                dim as usize,
                &SvmTrainConfig::default(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dsp, bench_am, bench_phonotactics, bench_svm);
criterion_main!(benches);
