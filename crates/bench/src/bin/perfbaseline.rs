//! Perf-regression harness for the decoding hot path.
//!
//! Times the pipeline stages the paper's §5.4 cost analysis cares about —
//! feature extraction, emission scoring, the phone-loop search (Viterbi, traceback and slot
//! posteriors over precomputed scores, timed on its own), supervector
//! generation and the supervector product — for one NN-family and one
//! GMM-family front-end,
//! comparing the historical per-frame path against the batched one.
//! Results (stage seconds, speedups, real-time factors)
//! go to stdout and to `BENCH_decoder.json` so successive runs can be
//! diffed for regressions:
//!
//! ```text
//! cargo run -p lre-bench --release --bin perfbaseline -- --scale smoke
//! ```

use lre_am::{AcousticModel, DiagGmm, FrameScorer, GmmStateScorer};
use lre_bench::HarnessArgs;
use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, UttSpec};
use lre_dba::{standard_subsystems, Frontend};
use lre_dsp::FrameMatrix;
use lre_lattice::{
    decode, decode_scores, decode_with_scratch, score_all_frames, score_all_frames_into,
    DecodeScratch, DecoderConfig,
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
    /// `extract_features` of the front-end's kind (analysis, Δ/ΔΔ, CMS).
    features_s: f64,
    scoring_per_frame_s: f64,
    scoring_batched_s: f64,
    /// Full historical path: per-frame scoring + dense Viterbi + fresh
    /// allocations per utterance, via the plain `decode` entry point.
    decode_seed_s: f64,
    decode_exact_s: f64,
    /// `decode_exact_s` without emission: the search over scores computed
    /// beforehand.
    search_s: f64,
    supervector_s: f64,
    svm_score_s: f64,
}

impl FrontendReport {
    fn scoring_speedup(&self) -> f64 {
        self.scoring_per_frame_s / self.scoring_batched_s.max(1e-12)
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
                "\"audio_seconds\":{:.4},\"stages\":{{\"features_s\":{:.6},",
                "\"scoring_per_frame_s\":{:.6},\"scoring_batched_s\":{:.6},",
                "\"decode_seed_s\":{:.6},",
                "\"decode_exact_s\":{:.6},\"search_s\":{:.6},",
                "\"supervector_s\":{:.6},\"svm_score_s\":{:.6}}},",
                "\"speedups\":{{\"scoring\":{:.3},\"decode\":{:.3},\"total\":{:.3}}},",
                "\"rt_factors\":{{\"decode_exact\":{:.5}}}}}"
            ),
            self.name,
            self.utterances,
            self.frames,
            self.audio_seconds,
            self.features_s,
            self.scoring_per_frame_s,
            self.scoring_batched_s,
            self.decode_seed_s,
            self.decode_exact_s,
            self.search_s,
            self.supervector_s,
            self.svm_score_s,
            self.scoring_speedup(),
            self.decode_speedup(),
            self.decode_speedup(),
            self.rt_exact(),
        );
        s
    }
}

fn bench_frontend(fe: &mut Frontend, ds: &Dataset, inv: &UniversalInventory) -> FrontendReport {
    // Audio and features are precomputed so the stage timings isolate
    // feature extraction, scoring and decoding from synthesis and from each
    // other.
    let utts: Vec<UttSpec> = ds
        .test_set(Duration::S30)
        .iter()
        .take(MAX_UTTS)
        .copied()
        .collect();
    let audio: Vec<Vec<f32>> = utts
        .iter()
        .map(|u| render_utterance(u, ds.language(u.language), inv).samples)
        .collect();
    let features_s = time_best(4, || {
        for samples in &audio {
            std::hint::black_box(lre_am::extract_features(samples, fe.am.feature));
        }
    });
    let feats: Vec<FrameMatrix> = audio
        .iter()
        .map(|samples| {
            let mut f = lre_am::extract_features(samples, fe.am.feature);
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

    let mut scratch = DecodeScratch::new();
    let cfg = fe.decoder;
    let decode_exact_s = time_best(4, || {
        for f in &feats {
            std::hint::black_box(decode_with_scratch(&fe.am, f, &cfg, &mut scratch));
        }
    });

    let emissions: Vec<Vec<f32>> = feats.iter().map(|f| score_all_frames(&fe.am, f)).collect();
    let search_s = time_best(4, || {
        for scores in &emissions {
            let (inv, topo) = (&fe.am.inventory, &fe.am.topology);
            std::hint::black_box(decode_scores(inv, topo, scores, &cfg, &mut scratch));
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
        .map(|u| {
            let r = render_utterance(u, ds.language(u.language), inv);
            let f = lre_am::extract_features(&r.samples, fe.am.feature);
            fe.supervector_from_features(&f, &mut FrameMatrix::new(f.dim()), &mut scratch)
        })
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
        features_s,
        scoring_per_frame_s,
        scoring_batched_s,
        decode_seed_s,
        decode_exact_s,
        search_s,
        supervector_s,
        svm_score_s,
    }
}

fn main() {
    let args = HarnessArgs::parse();
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
        "{:<12} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7} | {:>8}",
        "Front-end",
        "features",
        "score/fr",
        "score/blk",
        "dec-seed",
        "dec-exact",
        "search",
        "total",
        "RT exact"
    );
    for r in &reports {
        println!(
            "{:<12} | {:>8.3}s | {:>8.3}s | {:>8.3}s | {:>8.3}s | {:>8.3}s | {:>8.3}s | {:>6.2}x | {:>8.4}",
            r.name,
            r.features_s,
            r.scoring_per_frame_s,
            r.scoring_batched_s,
            r.decode_seed_s,
            r.decode_exact_s,
            r.search_s,
            r.decode_speedup(),
            r.rt_exact(),
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
}
