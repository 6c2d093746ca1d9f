//! Micro-benchmarks of the computational kernels underneath the pipeline:
//! FFT, MFCC/PLP extraction, GMM frame scoring, NN forward pass, expected
//! N-gram counting, TFLLR scaling and the dual-coordinate-descent SVM.
//! These are the knobs DESIGN.md's cost model is built on. Beside them, the
//! artifact container's CRC-32 and slice reader, which every bundle, guard
//! set and WAL replay goes through.

use criterion::{criterion_group, criterion_main, Criterion};
use lre_am::gmm::transpose_block;
use lre_am::{DiagGmm, Mlp};
use lre_am::{HmmTopology, StateInventory};
use lre_artifact::{crc32, ArtifactReader, ArtifactWriter};
use lre_dsp::{
    mfcc, plp, Analyzer, Cepstrum, Complex, Fft, MfccConfig, MfccTail, PlpConfig, PlpTail,
};
use lre_lattice::{
    expected_ngram_counts_cn, viterbi, ConfusionNetwork, DecodeScratch, DecoderConfig, SlotEntry,
};
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
    // A planned transform, as the analyzer runs it: `power_spectrum()`
    // builds the plan (bit-reversal table, 255 twiddles) on every call.
    let fft = Fft::new(256);
    let (mut buf, mut power) = (vec![Complex::ZERO; 256], vec![0.0; 129]);
    g.bench_function("fft_256_power_spectrum", |b| {
        b.iter(|| {
            fft.power_spectrum_into(black_box(&samples[..200]), &mut buf, &mut power);
            black_box(&power);
        })
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
    // A 3 s request: 9 whole lane groups and a ragged one of 3 frames.
    let short = &samples[..200 + 74 * 80];
    assert_eq!(mfcc_cfg.frame.num_frames(short.len()), 75);
    g.bench_function("mfcc_and_plp_shared_spectrum_75_frames", |b| {
        b.iter(|| black_box(shared.analyze(short)))
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
    let mut ft = Vec::new();
    transpose_block(&frames[..64 * 39], 39, &mut ft);
    let mut comps = Vec::new();
    let mut out = vec![0.0f32; 75];
    g.bench_function("gmm_6mix_39d_block_64frames", |b| {
        b.iter(|| {
            gmm.log_likelihood_block_t(&ft, &mut comps, &mut out[..64]);
            black_box(&mut out);
        })
    });
    // The same kernel on a GMM shaped like the bundle's states: 8 trained
    // components + the broad background one, means a few σ apart, each
    // frame drawn near one of them. Most terms then sit hundreds of nats
    // under the frame's best one, which is what the log-sum-exp tail's cost
    // depends on and what a GMM trained on uniform noise (above) never
    // shows. The fill is timed alone so the tail can be read off as the
    // difference. Beside the full 64-frame block, the ragged lengths of a
    // 3 s utterance: its 11-frame tail, and 75 frames as one block. Per
    // frame, 75 should cost within ≈ 15 % of 64, and 11 under twice 64 (it
    // pays for 16 lanes); a much larger ratio (PR 20: 1.3 × and 4.2 ×)
    // means the register block's accumulator chains no longer run
    // independently (EXPERIMENTS.md, "Short utterances at full vector
    // speed").
    let (spread_gmm, spread_frames) = bundle_like_gmm_frames(&mut rng, 75);
    for n in [64, 11, 75] {
        transpose_block(&spread_frames[..n * 39], 39, &mut ft);
        g.bench_function(
            &format!("gmm_9mix_39d_block_{n}frames_bundle_spread/fill"),
            |b| {
                b.iter(|| {
                    spread_gmm.fill_comps_block_t(&ft, &mut comps, n);
                    black_box(&mut comps);
                })
            },
        );
        g.bench_function(
            &format!("gmm_9mix_39d_block_{n}frames_bundle_spread/fill+tail"),
            |b| {
                b.iter(|| {
                    spread_gmm.log_likelihood_block_t(&ft, &mut comps, &mut out[..n]);
                    black_box(&mut out);
                })
            },
        );
    }

    // The small historical panel, then the four layer shapes of the served
    // networks (ANN 39→128→177, DNN 39→128→96→141) at a 30 s utterance,
    // and the first two at a 3 s one (75 = 64 + 11 rows) and at its
    // 11-row tail alone. Per row, 75 should cost within ≈ 10 % of 750 and
    // 11 within ≈ 30 % (PR 20: 1.6 × and 4.6 ×).
    for (rows, k, out_dim) in [
        (128, 39, 141),
        (750, 39, 128),
        (750, 128, 177),
        (750, 128, 96),
        (750, 96, 141),
        (75, 39, 128),
        (75, 128, 177),
        (11, 39, 128),
    ] {
        let x: Vec<f32> = (0..rows * k).map(|_| rng.random::<f32>() - 0.5).collect();
        let w: Vec<f32> = (0..out_dim * k)
            .map(|_| rng.random::<f32>() - 0.5)
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|_| rng.random::<f32>() - 0.5).collect();
        let mut gemm_out = vec![0.0f32; rows * out_dim];
        g.bench_function(&format!("gemm_xwt_{rows}x{k}x{out_dim}"), |b| {
            b.iter(|| {
                lre_linalg::gemm_xwt_f32(&x, &w, &bias, k, &mut gemm_out);
                black_box(&mut gemm_out);
            })
        });
    }
    g.finish();
}

/// A 9-component, 39-dimensional GMM and `n` frames (flat, `n × 39`) whose
/// mixture terms spread like the trained bundle's (there: 56 % of the terms
/// more than 104 nats under the frame's best, 11 % the best itself). Prints
/// the census it achieved.
fn bundle_like_gmm_frames(rng: &mut StdRng, n: usize) -> (DiagGmm, Vec<f32>) {
    let (dim, mix) = (39, 8);
    // Component `c` sits `radius_c` σ from the origin per dimension, so the
    // pairwise distances cover a wide range, as trained states' do.
    let means: Vec<f32> = (0..mix)
        .flat_map(|c| {
            let radius = 0.7 + 0.5 * c as f32;
            (0..dim)
                .map(|_| radius * (rng.random::<f32>() * 2.0 - 1.0))
                .collect::<Vec<_>>()
        })
        .collect();
    let vars: Vec<f32> = (0..mix * dim)
        .map(|_| 0.3 + 0.5 * rng.random::<f32>())
        .collect();
    let mut frames = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = rng.random_range(0..mix);
        for d in 0..dim {
            let sd = vars[c * dim + d].sqrt();
            frames.push(means[c * dim + d] + sd * (rng.random::<f32>() * 2.0 - 1.0));
        }
    }
    let gmm = DiagGmm::from_params(means, vars, vec![1.0; mix], dim).with_background(0.08, 3.0);

    let k = gmm.num_mix();
    let (mut ft, mut comps) = (Vec::new(), Vec::new());
    transpose_block(&frames, dim, &mut ft);
    gmm.fill_comps_block_t(&ft, &mut comps, n);
    let (mut zero, mut best) = (0, 0);
    for t in 0..n {
        let max = (0..k).map(|c| comps[c * n + t]).fold(f32::MIN, f32::max);
        zero += (0..k).filter(|c| comps[c * n + t] - max < -104.0).count();
        best += (0..k).filter(|c| comps[c * n + t] == max).count();
    }
    let share = |count: usize| 100.0 * count as f64 / (k * n) as f64;
    eprintln!(
        "bundle_spread census: {:.0} % of terms below -104, {:.0} % at the max",
        share(zero),
        share(best)
    );
    (gmm, frames)
}

/// `lre_linalg`'s slice `expf` / `lnf` beside a libm call per element, on
/// inputs spread like the emission paths' own: `expf` sees log-sum-exp terms
/// `l − max` (over half of them far below −104, a tenth exactly zero), `lnf`
/// sees floored softmax outputs. The two agree bit for bit (`lre-linalg`'s
/// exhaustive test), so the ratio is all there is to read: ≈ 4.8 (`expf`) and
/// ≈ 2.5 (`lnf`) where the three passes vectorise, near 1 when a toolchain
/// stops vectorising them.
fn bench_vmath(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let terms: Vec<f32> = (0..4096)
        .map(|_| match rng.random_range(0..100) {
            0..56 => -104.0 - 1500.0 * rng.random::<f32>(),
            56..67 => 0.0,
            _ => -104.0 * rng.random::<f32>(),
        })
        .collect();
    let posteriors: Vec<f32> = (0..4096)
        .map(|_| (-30.0 * rng.random::<f32>()).exp().max(1e-12))
        .collect();
    let mut buf = vec![0.0f32; 4096];

    type InPlace = fn(&mut [f32]);
    let rows: [(&str, &[f32], InPlace); 4] = [
        ("vmath_expf_4096", &terms, lre_linalg::expf_in_place),
        ("libm_expf_4096", &terms, |xs| {
            xs.iter_mut().for_each(|v| *v = v.exp())
        }),
        ("vmath_lnf_4096", &posteriors, lre_linalg::lnf_in_place),
        ("libm_lnf_4096", &posteriors, |xs| {
            xs.iter_mut().for_each(|v| *v = v.ln())
        }),
    ];
    let mut g = c.benchmark_group("vmath");
    for (name, input, f) in rows {
        g.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(input);
                f(&mut buf);
                black_box(&mut buf);
            })
        });
    }
    g.finish();
}

/// The phone-loop search alone ([`viterbi`]: relaxation and traceback) over
/// fixed synthetic emission scores, at a 3 s and a 30 s utterance and the
/// smallest and largest served state counts (`cz_ann`'s 43 phones,
/// `ma_gmm`'s 64). Scores are independent per state and frame, so no
/// choice of the relaxation is predictable — a branchy search pays a
/// mispredict on a large share of them, the select-based one none.
fn bench_search(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let (topology, cfg) = (HmmTopology::default(), DecoderConfig::default());
    let mut scratch = DecodeScratch::new();
    let mut g = c.benchmark_group("lattice");
    for frames in [75, 750] {
        for phones in [43, 64] {
            let inv = StateInventory::from_phone_count(phones);
            let scores: Vec<f32> = (0..frames * inv.num_states())
                .map(|_| -60.0 * rng.random::<f32>())
                .collect();
            let name = format!("viterbi_dense_{frames}frames_{}states", inv.num_states());
            g.bench_function(&name, |b| {
                b.iter(|| black_box(viterbi(&inv, &topology, &scores, &cfg, &mut scratch)))
            });
        }
    }
    g.finish();
}

/// The artifact layer every bundle, guard set, WAL record and lineage entry
/// goes through: CRC-32 over a 3 MB buffer (the smoke bundle's size;
/// slicing-by-16 reads ≈ 1.0–1.5 ms here, the bytewise loop it replaced
/// ≈ 10 ms, and ≈ 4 ms means the lookups were compiled to gathers) and a
/// 750 000-element `f32` slice (3 MB) read back as one span. That row is
/// mostly the page faults of a fresh 3 MB `Vec` (≈ 1.3–1.9 ms; the
/// per-element reader it replaced read ≈ 3.3–4 ms on fresh memory, and
/// 1.5 against 0.27 ms on reused memory).
fn bench_artifact(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let bytes: Vec<u8> = (0..3 << 20).map(|_| rng.random::<u8>()).collect();
    let floats: Vec<f32> = (0..750_000).map(|_| rng.random::<f32>() - 0.5).collect();
    let mut w = ArtifactWriter::new();
    w.put_f32_slice(&floats);
    let encoded = w.into_bytes();
    let mut g = c.benchmark_group("artifact");
    g.bench_function("crc32_3mb", |b| b.iter(|| black_box(crc32(&bytes))));
    g.bench_function("get_f32_slice_750k", |b| {
        b.iter(|| black_box(ArtifactReader::new(&encoded).get_f32_slice().unwrap()))
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

criterion_group!(
    benches,
    bench_dsp,
    bench_am,
    bench_vmath,
    bench_search,
    bench_artifact,
    bench_phonotactics,
    bench_svm
);
criterion_main!(benches);
