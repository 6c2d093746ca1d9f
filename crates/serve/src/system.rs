//! A [`ScoringSystem`]: raw audio samples in, detection LLRs out.

use crate::bundle::{SubsystemBundle, SystemBundle};
use lre_am::frontend::{FeatureExtractor, FEATURE_DIM};
use lre_am::FeatureKind;
use lre_artifact::ArtifactError;
use lre_corpus::Duration;
use lre_dba::{standard_subsystems, Frontend, ScoringMode};
use lre_dsp::FrameMatrix;
use lre_eval::ScoreMatrix;
use lre_lattice::DecodeScratch;
use lre_obs::StageTimes;
use lre_phone::{PhoneSet, UniversalInventory};
use lre_vsm::SparseVec;
use std::time::Instant;

/// Everything one scored utterance exposes to a [`ScoreTap`]: the fused
/// row the client sees plus the per-subsystem intermediates the online
/// DBA adaptation loop needs (vote inputs and retraining features).
#[derive(Clone, Debug)]
pub struct ScoreDetail {
    /// Content digest of the raw samples (see [`sample_digest`]) — the
    /// vote log's dedup key for replayed utterances.
    pub digest: u64,
    /// Frame count of the utterance (duration routing provenance).
    pub num_frames: u32,
    /// Index into `Duration::all()` of the fusion backend that scored it.
    pub duration_index: usize,
    /// Model generation that produced this row; filled in by the engine
    /// (a raw [`Scorer`] does not know its generation).
    pub generation: u64,
    /// Fused per-language LLRs — exactly the reply row.
    pub fused: Vec<f32>,
    /// Per-subsystem OvR score rows (Eq. 13 vote inputs), `[subsystem][class]`.
    pub subsystem_scores: Vec<Vec<f32>>,
    /// Per-subsystem TFLLR-scaled supervectors (retraining features).
    pub supervectors: Vec<SparseVec>,
    /// Wall-clock split of the scoring stages (decode, supervector build,
    /// SVM + fusion), summed across subsystems. All zeros when the scorer
    /// cannot split; the engine then bills the whole call to `score_us`.
    pub stage_us: StageTimes,
}

impl ScoreDetail {
    /// The detail of a scorer that has only a fused row to report: no
    /// per-subsystem intermediates, no stage split.
    pub fn from_fused(samples: &[f32], fused: Vec<f32>) -> ScoreDetail {
        ScoreDetail {
            digest: sample_digest(samples),
            num_frames: 0,
            duration_index: 0,
            generation: 0,
            fused,
            subsystem_scores: Vec::new(),
            supervectors: Vec::new(),
            stage_us: StageTimes::default(),
        }
    }
}

/// A sink for per-utterance score details, called by engine workers after
/// each successful score. Implementations must be cheap and non-blocking
/// (the vote log appends under a short mutex); scoring latency is on the
/// line.
pub trait ScoreTap: Send + Sync + 'static {
    fn record(&self, detail: ScoreDetail);
}

/// Order-independent 64-bit FNV-1a over the sample bit patterns. Stable
/// across runs and platforms (operates on the IEEE-754 bits, not float
/// values), so a replayed utterance always collides with itself.
pub fn sample_digest(samples: &[f32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h ^= samples.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Anything the serving engine can score against. The engine and server
/// are generic over this, so tests can drive the full pipelined protocol
/// with a mock scorer instead of minutes of acoustic-model training.
pub trait Scorer: Send + Sync + 'static {
    /// Score one utterance: the fused per-language detection LLRs plus
    /// whatever intermediates and stage split the scorer has (a mock
    /// wraps its row with [`ScoreDetail::from_fused`]).
    ///
    /// An `Err` is an internal scorer failure (e.g. a lazily mapped bundle
    /// section that fails to decode) — the server reports it to the client
    /// as `STATUS_INTERNAL` and keeps the connection alive.
    fn score_utt(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError>;
}

/// One materialized subsystem: a ready-to-decode front-end plus its VSM.
struct LoadedSub {
    frontend: Frontend,
    /// Which of the shared extractor's matrices this front-end consumes.
    feature_index: usize,
    vsm: lre_svm::OneVsRest,
}

/// A reconstructed, ready-to-score PPRVSM system.
///
/// Scoring one utterance runs the full paper pipeline: one feature
/// analysis of the audio for all subsystems (each distinct
/// [`lre_am::FeatureKind`] extracted once); then per subsystem, its
/// acoustic model's feature transform → phone-loop Viterbi decode →
/// expected-count supervector → TFLLR scaling → one-vs-rest SVM scores;
/// then z-norm + Eq. 15 combination + LDA/MMI backend via the fusion
/// trained for the utterance's nearest nominal duration. Every stage is
/// row-independent, so scoring utterances one at a time (as the serving
/// engine does) produces bit-identical LLRs to the offline batch pipeline,
/// and a shared extraction is bit-identical to a per-subsystem one.
pub struct ScoringSystem {
    /// The subsystems' shared feature front-end.
    features: FeatureExtractor,
    subs: Vec<LoadedSub>,
    /// Indexed like [`Duration::all`].
    fusions: Vec<lre_backend::LdaMmiFusion>,
    num_classes: usize,
    /// Scoring arithmetic applied to every front-end's decoder (set once
    /// at construction via [`ScoringSystem::set_scoring_mode`], before any
    /// scoring). `Exact` by default.
    mode: ScoringMode,
}

fn load_sub(
    s: SubsystemBundle,
    num_classes: usize,
    features: &FeatureExtractor,
) -> Result<LoadedSub, ArtifactError> {
    let inv = UniversalInventory::new();
    let specs = standard_subsystems();
    let spec = specs[s.spec_index as usize];
    let phone_set = PhoneSet::standard(spec.set_id, &inv);
    if s.builder.num_phones() != phone_set.len() {
        return Err(ArtifactError::Corrupt("builder phone count disagrees"));
    }
    if s.vsm.num_classes() != num_classes {
        return Err(ArtifactError::Corrupt("VSM class counts disagree"));
    }
    Ok(LoadedSub {
        feature_index: features
            .index_of(s.am.feature)
            .expect("the extractor was built from these subsystems"),
        frontend: Frontend {
            spec,
            phone_set,
            am: s.am,
            builder: s.builder,
            scaler: Some(s.scaler),
            decoder: s.decoder,
        },
        vsm: s.vsm,
    })
}

impl ScoringSystem {
    /// Reconstruct the scoring pipeline from a decoded bundle.
    pub fn from_bundle(bundle: SystemBundle) -> Result<ScoringSystem, ArtifactError> {
        let num_classes = bundle
            .fusions
            .first()
            .ok_or(ArtifactError::Corrupt("bundle has no fusion backends"))?
            .num_classes();
        if bundle.subsystems.is_empty() {
            return Err(ArtifactError::Corrupt("bundle has no subsystems"));
        }
        let features = FeatureExtractor::new(bundle.subsystems.iter().map(|s| s.am.feature));
        let subs = bundle
            .subsystems
            .into_iter()
            .map(|s| load_sub(s, num_classes, &features))
            .collect::<Result<_, _>>()?;
        Ok(ScoringSystem {
            features,
            subs,
            fusions: bundle.fusions,
            num_classes,
            mode: ScoringMode::Exact,
        })
    }

    /// Switch the scoring arithmetic for every subsystem. Call once at
    /// startup, before scoring: the serving binary does this after
    /// verifying the bundle's
    /// [`crate::bundle::SystemBundle::fastmath_opt_in`] flag.
    pub fn set_scoring_mode(&mut self, mode: ScoringMode) {
        self.mode = mode;
        for sub in &mut self.subs {
            sub.frontend.decoder.scoring = mode;
        }
    }

    /// The scoring arithmetic this system applies (serving stats surface).
    pub fn scoring_mode(&self) -> ScoringMode {
        self.mode
    }

    /// Number of target languages (LLR vector length).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    pub fn num_subsystems(&self) -> usize {
        self.subs.len()
    }

    /// The distinct feature kinds among the subsystems: what one request
    /// extracts, each once, however many subsystems consume it.
    pub fn feature_kinds(&self) -> &[FeatureKind] {
        self.features.kinds()
    }

    /// Score one utterance of raw 8 kHz samples into calibrated
    /// per-language detection LLRs, reusing caller-owned decoder scratch.
    /// Never fails today; the `Result` is the [`Scorer`] seam's, which
    /// other scorers do fail through.
    pub fn try_score(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<f32>, ArtifactError> {
        Ok(self.try_score_detailed(samples, scratch)?.fused)
    }

    /// [`ScoringSystem::try_score`] plus the per-subsystem intermediates
    /// (OvR rows, scaled supervectors) the adaptation tap records. The
    /// fused row is computed by the identical code path, so it is
    /// bit-identical to [`ScoringSystem::try_score`]'s.
    pub fn try_score_detailed(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        // One pass over the audio for every subsystem; its time is the
        // first part of "everything before the supervector".
        let extract_started = Instant::now();
        let feats = self.features.extract(samples);
        let mut stage_us = StageTimes {
            decode_us: extract_started.elapsed().as_micros() as u64,
            ..StageTimes::default()
        };
        let num_frames = feats[0].num_frames();
        let di = duration_index_for(num_frames);
        let mut normalized = FrameMatrix::new(FEATURE_DIM);
        let mut supervectors = Vec::with_capacity(self.subs.len());
        let mats: Vec<ScoreMatrix> = self
            .subs
            .iter()
            .map(|sub| {
                let fe = &sub.frontend;
                let (sv, decode_us, build_us) = fe.supervector_from_features_timed(
                    &feats[sub.feature_index],
                    &mut normalized,
                    scratch,
                );
                stage_us.decode_us += decode_us;
                // TFLLR scaling operates on the supervector, so it bills
                // to the supervector stage alongside the build.
                let scale_started = Instant::now();
                let scaled = fe
                    .scaler
                    .as_ref()
                    .expect("bundled front-ends carry fitted scalers")
                    .transformed(&sv);
                stage_us.supervector_us += build_us + scale_started.elapsed().as_micros() as u64;
                let score_started = Instant::now();
                let mut m = ScoreMatrix::new(self.num_classes);
                m.push_row(&sub.vsm.scores(&scaled));
                stage_us.score_us += score_started.elapsed().as_micros() as u64;
                supervectors.push(scaled);
                m
            })
            .collect();
        let fuse_started = Instant::now();
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let fused = self.fusions[di].apply(&refs).row(0).to_vec();
        stage_us.score_us += fuse_started.elapsed().as_micros() as u64;
        Ok(ScoreDetail {
            digest: sample_digest(samples),
            num_frames: num_frames as u32,
            duration_index: di,
            generation: 0,
            fused,
            subsystem_scores: mats.into_iter().map(|m| m.row(0).to_vec()).collect(),
            supervectors,
            stage_us,
        })
    }

    /// [`ScoringSystem::try_score`] without the `Result` (the offline
    /// verify path).
    pub fn score(&self, samples: &[f32], scratch: &mut DecodeScratch) -> Vec<f32> {
        self.try_score(samples, scratch)
            .expect("ScoringSystem scoring is infallible")
    }
}

impl Scorer for ScoringSystem {
    fn score_utt(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        self.try_score_detailed(samples, scratch)
    }
}

/// Index into [`Duration::all`] of the nominal duration nearest to an
/// utterance's frame count; fusion backends are duration-matched, as the
/// per-duration LRE backends are.
pub fn duration_index_for(num_frames: usize) -> usize {
    Duration::all()
        .iter()
        .enumerate()
        .min_by_key(|(_, d)| d.frames().abs_diff(num_frames))
        .map(|(i, _)| i)
        .expect("Duration::all is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_pick_is_nearest() {
        // Nominal frame budgets map to themselves…
        assert_eq!(duration_index_for(750), 0);
        assert_eq!(duration_index_for(250), 1);
        assert_eq!(duration_index_for(75), 2);
        // …and off-nominal utterances snap to the nearest backend.
        assert_eq!(duration_index_for(600), 0);
        assert_eq!(duration_index_for(400), 1);
        assert_eq!(duration_index_for(40), 2);
        assert_eq!(duration_index_for(0), 2);
    }
}
