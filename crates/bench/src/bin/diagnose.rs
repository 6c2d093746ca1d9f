//! Stage-by-stage diagnostic of the front-end pipeline. Not part of the
//! paper's tables; used to verify each link of the chain carries signal:
//! 1. acoustic-model frame accuracy on held-out data of the AM language,
//! 2. decoder phone accuracy against the reference alignment,
//! 3. supervector separability across languages (nearest-centroid).

use lre_am::extract_features;
use lre_bench::HarnessArgs;
use lre_corpus::{render_utterance, Dataset, DatasetConfig, LanguageId, UttSpec};
use lre_dba::standard_subsystems;
use lre_dba::Frontend;
use lre_dsp::FrameMatrix;
use lre_lattice::{decode, DecodeScratch, DecoderConfig};
use lre_phone::UniversalInventory;

fn main() {
    let args = HarnessArgs::parse();
    let inv = UniversalInventory::new();
    let ds = Dataset::generate(DatasetConfig::new(args.scale, args.seed));

    for spec in standard_subsystems().into_iter().take(6) {
        let fe = Frontend::train(spec, &ds, &inv, 2, DecoderConfig::default(), 99);
        eprintln!(
            "== {} (phones={}, nn_acc={:?})",
            spec.name,
            fe.phone_set.len(),
            fe.am.train_diagnostic
        );

        // Decoder phone accuracy on fresh utterances of the AM language.
        let mut correct = 0usize;
        let mut total = 0usize;
        for i in 0..4u64 {
            let utt = UttSpec {
                language: spec.am_language,
                speaker_seed: 7_000 + i,
                channel: lre_corpus::Channel::telephone(22.0),
                num_frames: 200,
                seed: 5_000_000 + i,
            };
            let r = render_utterance(&utt, ds.language(spec.am_language), &inv);
            let feats = extract_features(&r.samples, fe.am.feature);
            let out = decode(&fe.am, &feats, &fe.decoder);
            // Frame-level accuracy of the Viterbi path vs projected truth.
            let mut frame_phone = vec![0u16; feats.num_frames()];
            for seg in &out.segments {
                frame_phone[seg.start..seg.end].fill(seg.phone);
            }
            for (t, &truth_u) in r.alignment.iter().enumerate().take(frame_phone.len()) {
                let truth_set = fe.phone_set.project(truth_u as usize) as u16;
                if frame_phone[t] == truth_set {
                    correct += 1;
                }
                total += 1;
            }
            if i == 0 {
                eprintln!(
                    "   segments: {} over {} frames",
                    out.segments.len(),
                    out.num_frames
                );
            }
        }
        eprintln!(
            "   decoder frame accuracy: {:.1}%",
            100.0 * correct as f64 / total as f64
        );

        // Supervector separability on 3 contrasting languages.
        let langs = [
            LanguageId::Russian,
            LanguageId::Korean,
            LanguageId::Mandarin,
        ];
        let mut svs = Vec::new();
        let mut scratch = DecodeScratch::new();
        for (li, &lang) in langs.iter().enumerate() {
            for i in 0..6u64 {
                let utt = UttSpec {
                    language: lang,
                    speaker_seed: 9_000 + i,
                    channel: lre_corpus::Channel::telephone(22.0),
                    num_frames: 250,
                    seed: 6_000_000 + li as u64 * 100 + i,
                };
                let r = render_utterance(&utt, ds.language(lang), &inv);
                let feats = extract_features(&r.samples, fe.am.feature);
                let mut normalized = FrameMatrix::new(feats.dim());
                let sv = fe.supervector_from_features(&feats, &mut normalized, &mut scratch);
                svs.push((li, sv));
            }
        }
        // Leave-one-out nearest-centroid accuracy in raw probability space.
        let dim = fe.builder.dim();
        let mut ok = 0usize;
        for (i, (li, sv)) in svs.iter().enumerate() {
            let mut best = (f32::NEG_INFINITY, 9usize);
            for lj in 0..langs.len() {
                let mut centroid = vec![0.0f32; dim];
                let mut cnt = 0.0f32;
                for (j, (lc, svc)) in svs.iter().enumerate() {
                    if j != i && *lc == lj {
                        svc.axpy_into(1.0, &mut centroid);
                        cnt += 1.0;
                    }
                }
                for c in centroid.iter_mut() {
                    *c /= cnt;
                }
                // Cosine similarity.
                let dot = sv.dot_dense(&centroid);
                let nc = centroid.iter().map(|v| v * v).sum::<f32>().sqrt();
                let sim = dot / (sv.norm_sq().sqrt() * nc + 1e-12);
                if sim > best.0 {
                    best = (sim, lj);
                }
            }
            if best.1 == *li {
                ok += 1;
            }
        }
        eprintln!(
            "   supervector LOO centroid accuracy (3 langs): {}/{}",
            ok,
            svs.len()
        );
    }
}
