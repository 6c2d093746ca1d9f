//! Criterion companion to Table 5: micro-benchmarks of the three pipeline
//! stages whose real-time factors the paper reports — phone-loop decoding,
//! supervector generation, and the supervector product (SVM scoring) — plus
//! head-to-head comparisons of the historical hot path (per-frame emission
//! scoring, fresh allocations) against the batched, scratch-reusing one.

use criterion::{criterion_group, criterion_main, Criterion};
use lre_am::FrameScorer;
use lre_corpus::{Dataset, DatasetConfig, Duration, Scale};
use lre_dba::{standard_subsystems, Frontend};
use lre_lattice::{decode, decode_with_scratch, DecodeScratch, DecoderConfig};
use lre_phone::UniversalInventory;
use lre_svm::{OneVsRest, SvmTrainConfig};
use std::hint::black_box;

/// Hides the batched `score_block` override so the trait's default per-frame
/// loop runs — the reference path for the scoring/decode comparisons.
struct NoBatch(Box<dyn FrameScorer>);

impl FrameScorer for NoBatch {
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn score_frame(&self, frame: &[f32], out: &mut [f32]) {
        self.0.score_frame(frame, out)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

struct Setup {
    fe: Frontend,
    /// Same front-end retrained with the batched kernel hidden: the seed
    /// decode path (training is deterministic, so the models are identical).
    fe_seed: Frontend,
    feats: lre_dsp::FrameMatrix,
    network: lre_lattice::ConfusionNetwork,
    sv: lre_vsm::SparseVec,
    vsm: OneVsRest,
}

fn setup() -> Setup {
    let inv = UniversalInventory::new();
    let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 42));
    let mut fe = Frontend::train(
        standard_subsystems()[0],
        &ds,
        &inv,
        2,
        DecoderConfig::default(),
        7,
    );
    let mut fe_seed = Frontend::train(
        standard_subsystems()[0],
        &ds,
        &inv,
        2,
        DecoderConfig::default(),
        7,
    );
    let placeholder: Box<dyn FrameScorer> = Box::new(lre_am::GmmStateScorer::new(vec![
        lre_am::DiagGmm::from_params(vec![0.0], vec![1.0], vec![1.0], 1),
    ]));
    let batched = std::mem::replace(&mut fe_seed.am.scorer, placeholder);
    fe_seed.am.scorer = Box::new(NoBatch(batched));

    let utt = ds.test_set(Duration::S30)[0];
    let r = lre_corpus::render_utterance(&utt, ds.language(utt.language), &inv);
    let mut feats = lre_am::extract_features(&r.samples, fe.am.feature);
    fe.am.feature_transform.apply(&mut feats);
    let out = decode(&fe.am, &feats, &fe.decoder);

    // Train a small VSM so the supervector product benchmark is realistic.
    let raw: Vec<_> = ds
        .train
        .iter()
        .take(92)
        .map(|u| fe.supervector(u, &ds, &inv))
        .collect();
    let train = fe.fit_scaler(&raw);
    let labels: Vec<usize> = ds
        .train
        .iter()
        .take(92)
        .map(|u| u.language.target_index().unwrap())
        .collect();
    let vsm = OneVsRest::train(
        &train,
        &labels,
        23,
        fe.builder.dim(),
        &SvmTrainConfig::default(),
    );
    let sv = fe
        .scaler
        .as_ref()
        .unwrap()
        .transformed(&fe.builder.build(&out.network));

    Setup {
        fe,
        fe_seed,
        feats,
        network: out.network,
        sv,
        vsm,
    }
}

fn bench_stages(c: &mut Criterion) {
    let s = setup();

    let mut g = c.benchmark_group("table5_rt_factors");
    g.sample_size(10);
    g.bench_function("decode_30s_utterance", |b| {
        b.iter(|| black_box(decode(&s.fe.am, &s.feats, &s.fe.decoder)))
    });
    g.bench_function("supervector_generation", |b| {
        b.iter(|| black_box(s.fe.builder.build(&s.network)))
    });
    g.bench_function("supervector_product_23_models", |b| {
        b.iter(|| black_box(s.vsm.scores(&s.sv)))
    });
    g.finish();
}

/// Historical hot path vs the batched one, on one 30 s utterance:
/// per-frame scoring against `score_block`, and the full seed decode
/// (per-frame scoring + fresh allocations) against the batched,
/// scratch-reusing decode. The ≥2× speedup the
/// perf-regression harness (`perfbaseline`) enforces shows up here too.
fn bench_hot_path_comparison(c: &mut Criterion) {
    let s = setup();
    let dim = s.feats.dim();
    let num_states = s.fe.am.scorer.num_states();
    let t_max = s.feats.num_frames();
    let mut scores = vec![0.0f32; t_max * num_states];

    let mut g = c.benchmark_group("decode_hot_path");
    g.sample_size(10);
    g.bench_function("emission_scoring_per_frame", |b| {
        b.iter(|| {
            for (t, frame) in s.feats.iter().enumerate() {
                s.fe.am
                    .scorer
                    .score_frame(frame, &mut scores[t * num_states..(t + 1) * num_states]);
            }
            black_box(&mut scores);
        })
    });
    g.bench_function("emission_scoring_batched", |b| {
        b.iter(|| {
            s.fe.am
                .scorer
                .score_block(s.feats.as_slice(), dim, &mut scores);
            black_box(&mut scores);
        })
    });
    g.bench_function("decode_seed_path", |b| {
        b.iter(|| black_box(decode(&s.fe_seed.am, &s.feats, &s.fe_seed.decoder)))
    });
    let mut scratch = DecodeScratch::new();
    g.bench_function("decode_batched_scratch", |b| {
        b.iter(|| {
            black_box(decode_with_scratch(
                &s.fe.am,
                &s.feats,
                &s.fe.decoder,
                &mut scratch,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stages, bench_hot_path_comparison);
criterion_main!(benches);
