//! The layer walk: the scoring pipeline replayed in this process through
//! the layers' public functions, one span around each call.
//!
//! Spans are recorded from outside the program under test, so they time
//! the layers as the benchmark calls them, single-threaded; spans inside
//! the servers are a later change. The walk's fused row must equal
//! `ScoringSystem::try_score`'s bit for bit, which proves it replays the
//! pipeline the servers run.

use crate::json::Json;
use crate::stats::median;
use crate::{metric, Metrics};
use lre_am::extract_features;
use lre_eval::ScoreMatrix;
use lre_lattice::{decode_with_scratch, score_all_frames_into_mode, DecodeScratch};
use lre_serve::system::duration_index_for;
use lre_serve::{ScoringSystem, SystemBundle};
use std::time::Instant;

/// Metric-name suffix of each entry of `lre_dba::standard_subsystems`.
pub const SUBSYSTEM_TAGS: [&str; 6] = ["hu_ann", "ru_ann", "cz_ann", "en_dnn", "ma_gmm", "en_gmm"];

pub struct Span {
    pub name: String,
    /// Utterance index in the workload's stream; spans of one request
    /// share it.
    pub utt: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &str, utt: usize, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            utt,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in µs.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    fn time<T>(
        &mut self,
        name: &str,
        utt: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, utt, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// Every span with its self time: duration minus the part its child
    /// spans cover.
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .zip(child_ns)
                .enumerate()
                .map(|(id, (s, children))| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("utt", Json::Num(s.utt as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "self_ns",
                            Json::Num((s.end_ns - s.start_ns).saturating_sub(children) as f64),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// One utterance's layer times in µs, and its counts.
#[derive(Default, Clone)]
struct UttLayers {
    whole: f64,
    features: f64,
    transform: f64,
    emission: [f64; 6],
    search: [f64; 6],
    supervector: f64,
    tfllr: f64,
    svm: f64,
    fusion: f64,
    frames: f64,
    segments: f64,
    nnz: f64,
}

impl UttLayers {
    fn leaves(&self) -> f64 {
        self.features
            + self.transform
            + self.emission.iter().sum::<f64>()
            + self.search.iter().sum::<f64>()
            + self.supervector
            + self.tfllr
            + self.svm
            + self.fusion
    }
}

/// The walk's result: `scorer.whole_us` per utterance (probes pair with
/// it) and the per-layer metrics.
pub struct Walked {
    pub whole_us: Vec<f64>,
    /// `try_score`'s row per utterance: what a server must reply.
    pub reference: Vec<Vec<f32>>,
    pub metrics: Metrics,
}

/// Walk `utts` through `bundle`'s layers, and through `system` (the same
/// bundle, assembled) for the whole-request time.
pub fn walk(
    bundle: &SystemBundle,
    system: &ScoringSystem,
    utts: &[Vec<f32>],
    log: &mut SpanLog,
) -> Result<Walked, String> {
    let mut scratch = DecodeScratch::new();
    let mut emission_buf = Vec::new();
    let mut per_utt: Vec<UttLayers> = Vec::with_capacity(utts.len());
    let mut references = Vec::with_capacity(utts.len());
    for (utt, samples) in utts.iter().enumerate() {
        let mut t = UttLayers::default();
        let request = log.open("request", utt, None);
        let (reference, whole) = log.time("scorer.whole", utt, request, || {
            system.try_score(samples, &mut scratch)
        });
        let reference = reference.map_err(|e| format!("reference score: {e}"))?;
        t.whole = whole;
        let mut rows: Vec<ScoreMatrix> = Vec::with_capacity(bundle.subsystems.len());
        for sub in &bundle.subsystems {
            let q = sub.spec_index as usize;
            let tag = SUBSYSTEM_TAGS[q];
            let parent = log.open(&format!("subsystem.{tag}"), utt, Some(request));
            let (mut feats, us) = log.time("dsp.features", utt, parent, || {
                extract_features(samples, sub.am.feature)
            });
            t.features += us;
            t.transform += log
                .time("am.transform", utt, parent, || {
                    sub.am.feature_transform.apply(&mut feats)
                })
                .1;
            t.frames = feats.num_frames() as f64;
            // Timed alone, then subtracted from the decode span below
            // (which scores the same block again inside).
            let ((), emission) = log.time(&format!("am.emission.{tag}"), utt, parent, || {
                score_all_frames_into_mode(&sub.am, &feats, sub.decoder.scoring, &mut emission_buf)
            });
            t.emission[q] = emission;
            let (out, decode) = log.time(&format!("lattice.decode.{tag}"), utt, parent, || {
                decode_with_scratch(&sub.am, &feats, &sub.decoder, &mut scratch)
            });
            t.search[q] = decode - emission;
            t.segments += out.segments.len() as f64;
            let (sv, us) = log.time("vsm.supervector", utt, parent, || {
                sub.builder.build(&out.network)
            });
            t.supervector += us;
            let (scaled, us) = log.time("vsm.tfllr", utt, parent, || sub.scaler.transformed(&sv));
            t.tfllr += us;
            t.nnz += scaled.nnz() as f64;
            let (row, us) = log.time("svm.score", utt, parent, || sub.vsm.scores(&scaled));
            t.svm += us;
            let mut m = ScoreMatrix::new(row.len());
            m.push_row(&row);
            rows.push(m);
            log.close(parent);
        }
        let fusion = &bundle.fusions[duration_index_for(t.frames as usize)];
        let refs: Vec<&ScoreMatrix> = rows.iter().collect();
        let (fused, us) = log.time("backend.fusion", utt, request, || {
            fusion.apply(&refs).row(0).to_vec()
        });
        t.fusion = us;
        log.close(request);
        let same = fused.len() == reference.len()
            && fused
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "layer walk of utterance {utt} does not reproduce try_score"
            ));
        }
        per_utt.push(t);
        references.push(reference);
    }

    let med = |f: &dyn Fn(&UttLayers) -> f64| median(&per_utt.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        metric("scorer.whole_us", med(&|t| t.whole)),
        metric(
            "scorer.unaccounted_share",
            med(&|t| (t.whole - t.leaves()) / t.whole),
        ),
        metric("dsp.features_us", med(&|t| t.features)),
        metric("dsp.feature_passes", bundle.subsystems.len() as f64),
        metric("am.transform_us", med(&|t| t.transform)),
        metric("am.emission_us", med(&|t| t.emission.iter().sum())),
        metric("am.frames", med(&|t| t.frames)),
        metric("lattice.search_us", med(&|t| t.search.iter().sum())),
        metric("lattice.segments", per_utt.iter().map(|t| t.segments).sum()),
        metric("vsm.supervector_us", med(&|t| t.supervector)),
        metric("vsm.tfllr_us", med(&|t| t.tfllr)),
        metric("vsm.supervector_nnz", per_utt.iter().map(|t| t.nnz).sum()),
        metric("svm.score_us", med(&|t| t.svm)),
        metric("backend.fusion_us", med(&|t| t.fusion)),
    ];
    for (q, tag) in SUBSYSTEM_TAGS.iter().enumerate() {
        metrics.push(metric(
            &format!("am.emission_us.{tag}"),
            med(&|t| t.emission[q]),
        ));
        metrics.push(metric(
            &format!("lattice.search_us.{tag}"),
            med(&|t| t.search[q]),
        ));
    }
    Ok(Walked {
        whole_us: per_utt.iter().map(|t| t.whole).collect(),
        reference: references,
        metrics,
    })
}
