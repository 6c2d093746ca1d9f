//! Perf-regression harness for the decoding hot path.
//!
//! Times the pipeline stages the paper's §5.4 cost analysis cares about —
//! emission scoring, phone-loop Viterbi, supervector generation and the
//! supervector product — for one NN-family and one GMM-family front-end,
//! comparing the historical per-frame path against the batched one.
//! Results (stage seconds, speedups, real-time factors)
//! go to stdout and to `BENCH_decoder.json` so successive runs can be
//! diffed for regressions:
//!
//! ```text
//! cargo run -p lre-bench --release --bin perfbaseline -- --scale smoke
//! ```
//!
//! The fast-math scoring mode is benchmarked and validated in the same
//! run: batched block scoring is re-timed under [`ScoringMode::FastMath`]
//! (`scoring_fastmath_s`), and the full fast-math pipeline — decode,
//! confusion network, supervector, SVM scores — is diffed against the
//! exact one per utterance. `fastmath_max_abs_delta` is the worst
//! per-language SVM-score deviation and `fastmath_decision_flips` counts
//! utterances whose arg-max language changed. With
//! `--require-fastmath-speedup` the run exits non-zero unless every
//! front-end has zero flips and fast-math block scoring is not slower
//! than exact on the best front-end — the CI regression gate. (The exact
//! GMM tail skips the mixture terms that cannot change a bit, so the two
//! modes are within a few percent: the gate protects the fast-math
//! contract, not a margin.)

use lre_am::{AcousticModel, DiagGmm, FrameScorer, GmmStateScorer, ScoringMode};
use lre_bench::HarnessArgs;
use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, UttSpec};
use lre_dba::{standard_subsystems, Frontend};
use lre_dsp::FrameMatrix;
use lre_lattice::{
    decode, decode_with_scratch, score_all_frames_into, score_all_frames_into_mode, DecodeScratch,
    DecoderConfig,
};
use lre_phone::UniversalInventory;
use lre_svm::{OneVsRest, SvmTrainConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Frame hop of the feature front-end (80 samples at 8 kHz = 10 ms).
const FRAME_SECONDS: f64 = 0.01;

/// At most this many test utterances per front-end keep demo-scale runs
/// in seconds, not minutes.
const MAX_UTTS: usize = 16;

/// `--require-fastmath-speedup`: minimum acceptable fast-math over exact
/// block-scoring ratio on the best front-end — fast-math must not cost
/// time. Both modes are bound by the same arithmetic (Mahalanobis fill,
/// GEMM), so neither front-end clears more than a few percent and single
/// ratios sit inside timing noise; hence the best, not each.
const FASTMATH_SPEEDUP_GATE: f64 = 1.0;

/// Wall-time of `f`, best of `reps` runs (seconds).
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The historical per-frame scoring loop, kept as the timing reference for
/// the batched `score_block` path.
fn score_per_frame(am: &AcousticModel, feats: &FrameMatrix, scores: &mut Vec<f32>) {
    let s = am.scorer.num_states();
    scores.clear();
    scores.resize(feats.num_frames() * s, 0.0);
    for (t, frame) in feats.iter().enumerate() {
        am.scorer
            .score_frame(frame, &mut scores[t * s..(t + 1) * s]);
    }
}

/// Scorer wrapper that hides the batched `score_block` override, leaving the
/// trait's default per-frame loop — used to time the full historical decode
/// path (per-frame scoring + dense Viterbi + fresh allocations) through the
/// real `decode` entry point.
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

struct FrontendReport {
    name: String,
    utterances: usize,
    frames: usize,
    audio_seconds: f64,
    scoring_per_frame_s: f64,
    scoring_batched_s: f64,
    /// Batched block scoring under [`ScoringMode::FastMath`].
    scoring_fastmath_s: f64,
    /// Full historical path: per-frame scoring + dense Viterbi + fresh
    /// allocations per utterance, via the plain `decode` entry point.
    decode_seed_s: f64,
    decode_exact_s: f64,
    supervector_s: f64,
    svm_score_s: f64,
    /// Worst |fast − exact| over every per-utterance, per-language SVM
    /// score when the whole pipeline runs under fast-math.
    fastmath_max_abs_delta: f64,
    /// Utterances whose arg-max language differs between the exact and
    /// fast-math pipelines. The fast-math contract requires zero.
    fastmath_decision_flips: usize,
}

impl FrontendReport {
    fn scoring_speedup(&self) -> f64 {
        self.scoring_per_frame_s / self.scoring_batched_s.max(1e-12)
    }
    /// Exact block scoring vs the bounded-error fast-math kernels.
    fn fastmath_speedup(&self) -> f64 {
        self.scoring_batched_s / self.scoring_fastmath_s.max(1e-12)
    }
    /// Seed decode path (per-frame scoring, dense Viterbi, fresh
    /// allocations) vs the batched exact decode with scratch reuse.
    fn decode_speedup(&self) -> f64 {
        self.decode_seed_s / self.decode_exact_s.max(1e-12)
    }
    fn rt_exact(&self) -> f64 {
        self.decode_exact_s / self.audio_seconds.max(1e-12)
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            concat!(
                "{{\"name\":\"{}\",\"utterances\":{},\"frames\":{},",
                "\"audio_seconds\":{:.4},\"stages\":{{",
                "\"scoring_per_frame_s\":{:.6},\"scoring_batched_s\":{:.6},",
                "\"scoring_fastmath_s\":{:.6},",
                "\"decode_seed_s\":{:.6},",
                "\"decode_exact_s\":{:.6},",
                "\"supervector_s\":{:.6},\"svm_score_s\":{:.6}}},",
                "\"speedups\":{{\"scoring\":{:.3},\"fastmath\":{:.3},",
                "\"decode\":{:.3},\"total\":{:.3}}},",
                "\"rt_factors\":{{\"decode_exact\":{:.5}}},",
                "\"fastmath_max_abs_delta\":{:.6e},",
                "\"fastmath_decision_flips\":{}}}"
            ),
            self.name,
            self.utterances,
            self.frames,
            self.audio_seconds,
            self.scoring_per_frame_s,
            self.scoring_batched_s,
            self.scoring_fastmath_s,
            self.decode_seed_s,
            self.decode_exact_s,
            self.supervector_s,
            self.svm_score_s,
            self.scoring_speedup(),
            self.fastmath_speedup(),
            self.decode_speedup(),
            self.decode_speedup(),
            self.rt_exact(),
            self.fastmath_max_abs_delta,
            self.fastmath_decision_flips,
        );
        s
    }
}

fn bench_frontend(fe: &mut Frontend, ds: &Dataset, inv: &UniversalInventory) -> FrontendReport {
    // Features are precomputed so the stage timings isolate scoring/decoding
    // from synthesis and feature extraction.
    let utts: Vec<UttSpec> = ds
        .test_set(Duration::S30)
        .iter()
        .take(MAX_UTTS)
        .copied()
        .collect();
    let feats: Vec<FrameMatrix> = utts
        .iter()
        .map(|u| {
            let r = render_utterance(u, ds.language(u.language), inv);
            let mut f = lre_am::extract_features(&r.samples, fe.am.feature);
            fe.am.feature_transform.apply(&mut f);
            f
        })
        .collect();
    let frames: usize = feats.iter().map(|f| f.num_frames()).sum();
    let audio_seconds = frames as f64 * FRAME_SECONDS;

    let mut scores = Vec::new();
    let scoring_per_frame_s = time_best(4, || {
        for f in &feats {
            score_per_frame(&fe.am, f, &mut scores);
        }
    });
    let scoring_batched_s = time_best(4, || {
        for f in &feats {
            score_all_frames_into(&fe.am, f, &mut scores);
        }
    });
    let scoring_fastmath_s = time_best(4, || {
        for f in &feats {
            score_all_frames_into_mode(&fe.am, f, ScoringMode::FastMath, &mut scores);
        }
    });

    let mut scratch = DecodeScratch::new();
    let cfg = fe.decoder;
    let decode_exact_s = time_best(4, || {
        for f in &feats {
            std::hint::black_box(decode_with_scratch(&fe.am, f, &cfg, &mut scratch));
        }
    });

    // Decoded networks for the downstream stages.
    let networks: Vec<_> = feats
        .iter()
        .map(|f| decode_with_scratch(&fe.am, f, &cfg, &mut scratch).network)
        .collect();

    let supervector_s = time_best(4, || {
        for n in &networks {
            std::hint::black_box(fe.builder.build(n));
        }
    });

    // Small VSM so the supervector-product stage matches Table 5's setup.
    let raw: Vec<_> = ds
        .train
        .iter()
        .take(92)
        .map(|u| fe.supervector(u, ds, inv))
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
    let scaler = fe.scaler.as_ref().expect("scaler fitted above");
    let svs: Vec<_> = networks
        .iter()
        .map(|n| scaler.transformed(&fe.builder.build(n)))
        .collect();
    let svm_score_s = time_best(4, || {
        for sv in &svs {
            std::hint::black_box(vsm.scores(sv));
        }
    });

    // Fast-math validation: run the whole front-end pipeline — decode,
    // confusion network, supervector, scaling, SVM — under fast-math and
    // diff the per-language scores against the exact pipeline's. The SVM
    // and fusion layers are linear, so a bounded score delta here bounds
    // the fused-LLR delta downstream.
    let argmax = |v: &[f32]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let exact_scores: Vec<Vec<f32>> = svs.iter().map(|sv| vsm.scores(sv)).collect();
    let fast_cfg = DecoderConfig {
        scoring: ScoringMode::FastMath,
        ..fe.decoder
    };
    let mut fastmath_max_abs_delta = 0.0f64;
    let mut fastmath_decision_flips = 0usize;
    for (f, exact) in feats.iter().zip(&exact_scores) {
        let out = decode_with_scratch(&fe.am, f, &fast_cfg, &mut scratch);
        let sv = scaler.transformed(&fe.builder.build(&out.network));
        let fast = vsm.scores(&sv);
        for (a, b) in fast.iter().zip(exact) {
            fastmath_max_abs_delta = fastmath_max_abs_delta.max((a - b).abs() as f64);
        }
        if argmax(&fast) != argmax(exact) {
            fastmath_decision_flips += 1;
        }
    }

    // Seed-path decode reference, timed last: hiding the batched kernel
    // consumes the front-end's scorer, so nothing below may score frames.
    let placeholder: Box<dyn FrameScorer> =
        Box::new(GmmStateScorer::new(vec![DiagGmm::from_params(
            vec![0.0],
            vec![1.0],
            vec![1.0],
            1,
        )]));
    let batched = std::mem::replace(&mut fe.am.scorer, placeholder);
    fe.am.scorer = Box::new(NoBatch(batched));
    let decode_seed_s = time_best(4, || {
        for f in &feats {
            std::hint::black_box(decode(&fe.am, f, &cfg));
        }
    });

    FrontendReport {
        name: fe.spec.name.to_string(),
        utterances: utts.len(),
        frames,
        audio_seconds,
        scoring_per_frame_s,
        scoring_batched_s,
        scoring_fastmath_s,
        decode_seed_s,
        decode_exact_s,
        supervector_s,
        svm_score_s,
        fastmath_max_abs_delta,
        fastmath_decision_flips,
    }
}

fn main() {
    // `--require-fastmath-speedup` is perfbaseline-specific; peel it off
    // before the shared harness parser (which rejects unknown flags).
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let require_gate = argv.iter().any(|a| a == "--require-fastmath-speedup");
    argv.retain(|a| a != "--require-fastmath-speedup");
    let args = HarnessArgs::parse_from(&argv);
    if let Some(n) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    let inv = UniversalInventory::new();
    eprintln!(
        "[perfbaseline] generating dataset: scale={}, seed={}",
        args.scale.name(),
        args.seed
    );
    let ds = Dataset::generate(DatasetConfig::new(args.scale, args.seed));

    let subs = standard_subsystems();
    // One NN-family and one GMM-family front-end cover both batched kernels.
    let picks = [subs[0], subs[5]];
    let mut reports = Vec::new();
    for spec in picks {
        eprintln!("[perfbaseline] training {}", spec.name);
        let mut fe = Frontend::train(spec, &ds, &inv, 2, DecoderConfig::default(), 7);
        let t0 = Instant::now();
        let rep = bench_frontend(&mut fe, &ds, &inv);
        eprintln!(
            "[perfbaseline] {}: {} utts / {} frames in {:.1}s",
            rep.name,
            rep.utterances,
            rep.frames,
            t0.elapsed().as_secs_f64()
        );
        reports.push(rep);
    }

    println!(
        "{:<12} | {:>9} | {:>9} | {:>9} | {:>7} | {:>9} | {:>9} | {:>7} | {:>8}",
        "Front-end",
        "score/fr",
        "score/blk",
        "score/fm",
        "fm-up",
        "dec-seed",
        "dec-exact",
        "total",
        "RT exact"
    );
    for r in &reports {
        println!(
            "{:<12} | {:>8.3}s | {:>8.3}s | {:>8.3}s | {:>6.2}x | {:>8.3}s | {:>8.3}s | {:>6.2}x | {:>8.4}",
            r.name,
            r.scoring_per_frame_s,
            r.scoring_batched_s,
            r.scoring_fastmath_s,
            r.fastmath_speedup(),
            r.decode_seed_s,
            r.decode_exact_s,
            r.decode_speedup(),
            r.rt_exact(),
        );
        println!(
            "  fast-math: max |dSVM| = {:.2e}, decision flips = {}/{}",
            r.fastmath_max_abs_delta, r.fastmath_decision_flips, r.utterances
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"scale\":\"{}\",\"seed\":{},\"threads\":{},\"frontends\":[",
        args.scale.name(),
        args.seed,
        rayon::current_num_threads(),
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&r.to_json());
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_decoder.json", &json).expect("write BENCH_decoder.json");
    eprintln!("[perfbaseline] wrote BENCH_decoder.json");

    if require_gate {
        let mut failed = false;
        for r in &reports {
            if r.fastmath_decision_flips > 0 {
                eprintln!(
                    "[perfbaseline] GATE FAIL: {} fast-math flipped {} decisions (must be 0)",
                    r.name, r.fastmath_decision_flips
                );
                failed = true;
            }
        }
        let ratios: Vec<String> = reports
            .iter()
            .map(|r| format!("{} {:.2}x", r.name, r.fastmath_speedup()))
            .collect();
        let ratios = ratios.join(", ");
        let best = reports
            .iter()
            .map(|r| r.fastmath_speedup())
            .fold(0.0f64, f64::max);
        if best < FASTMATH_SPEEDUP_GATE {
            eprintln!(
                "[perfbaseline] GATE FAIL: fast-math scoring is slower than exact on every front-end ({ratios})"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "[perfbaseline] fast-math gate passed: 0 flips, fast-math over exact scoring: {ratios}"
        );
    }
}
