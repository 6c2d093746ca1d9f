//! A [`ScoringSystem`]: raw audio samples in, detection LLRs out.

use crate::bundle::{SubsystemBundle, SystemBundle};
use lre_am::frontend::{FeatureExtractor, FEATURE_DIM};
use lre_am::FeatureKind;
use lre_artifact::ArtifactError;
use lre_corpus::Duration;
use lre_dba::{standard_subsystems, Frontend};
use lre_dsp::FrameMatrix;
use lre_eval::ScoreMatrix;
use lre_lattice::DecodeScratch;
use lre_obs::StageTimes;
use lre_phone::{PhoneSet, UniversalInventory};
use lre_vsm::SparseVec;
use std::cmp::Reverse;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything one scored utterance exposes to a [`ScoreTap`]: the fused
/// row the client sees plus the per-subsystem intermediates the online
/// DBA adaptation loop needs (vote inputs and retraining features).
#[derive(Clone, Debug)]
pub struct ScoreDetail {
    /// Content digest of the raw samples (see [`sample_digest`]) — the
    /// vote log's dedup key for replayed utterances. Computed where it is
    /// read: by the engine as it tees a reply into a [`ScoreTap`], and by
    /// [`ScoringSystem::try_score_detailed`]; a bare [`FanOut::finish`]
    /// leaves it zero.
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
    /// Busy time of the scoring stages (decode, supervector build, SVM +
    /// fusion), summed across subsystems — so with several threads on one
    /// request it exceeds the wall clock. All zeros when the scorer cannot
    /// split; the engine then bills the whole call to `score_us`.
    pub stage_us: StageTimes,
    /// When each stage was over for the whole utterance; `None` when the
    /// scorer cannot split.
    pub stage_done: Option<StageDone>,
}

/// The instants a reply's span marks: real points on the
/// request's timeline, the same definition for any number of threads
/// (busy-time sums are [`ScoreDetail::stage_us`]). Non-decreasing in field
/// order by construction.
#[derive(Clone, Copy, Debug)]
pub struct StageDone {
    /// The last subsystem finished its decode.
    pub decode: Instant,
    /// The last subsystem finished its TFLLR-scaled supervector.
    pub supervector: Instant,
    /// Fusion produced the reply row.
    pub score: Instant,
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
            stage_done: None,
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

    /// Split one utterance into independent tasks, so that idle engine
    /// workers can help the one that owns the request: do the serial part
    /// (whatever every task needs) here, on the caller, and return the
    /// rest. The result must be the bits of [`Scorer::score_utt`] whoever
    /// runs which task. `None` (the default) = this scorer does not split;
    /// the engine calls `score_utt`.
    fn fan_out(&self, samples: &[f32]) -> Option<Arc<dyn FanOut>> {
        let _ = samples;
        None
    }
}

/// One utterance's scoring as [`FanOut::num_tasks`] independent tasks plus
/// a gather. It owns (or `Arc`-shares) everything the tasks read, so a
/// model swap after [`Scorer::fan_out`] does not reach it. The engine runs
/// every task exactly once — handing the indices out in increasing order,
/// each to whichever of its threads asks next — and then calls
/// [`FanOut::finish`] once, on the thread that owns the request.
pub trait FanOut: Send + Sync {
    /// How many tasks; list the costliest first.
    fn num_tasks(&self) -> usize;
    /// Run task `task` on the calling thread's working set and keep its
    /// result for [`FanOut::finish`].
    fn run_task(&self, task: usize, ws: &mut WorkingSet);
    /// Gather the task results, in an order that does not depend on who
    /// ran what, into the utterance's detail.
    fn finish(&self) -> Result<ScoreDetail, ArtifactError>;
}

/// The scoring memory one thread reuses from task to task: the decoder's
/// scratch and the buffer an acoustic model's feature transform writes
/// into. An engine worker makes one when it starts and uses it for its own
/// requests and for tasks it helps with alike.
pub struct WorkingSet {
    pub(crate) scratch: DecodeScratch,
    normalized: FrameMatrix,
}

impl WorkingSet {
    pub(crate) fn new() -> WorkingSet {
        WorkingSet {
            scratch: DecodeScratch::new(),
            normalized: FrameMatrix::new(FEATURE_DIM),
        }
    }
}

/// One materialized subsystem: a ready-to-decode front-end plus its VSM.
struct LoadedSub {
    frontend: Frontend,
    /// Which of the shared extractor's matrices this front-end consumes.
    feature_index: usize,
    vsm: lre_svm::OneVsRest,
}

/// What a request's tasks and its fusion read: immutable once serving, and
/// shared by `Arc` with every fan-out in flight.
struct Model {
    subs: Vec<LoadedSub>,
    /// Subsystem indices, costliest decode first — the order tasks are
    /// claimed in, so that the long ones start first and the short ones
    /// fill in behind them. The cost is the emission model's parameter
    /// count: every subsystem scores the same number of frames.
    task_order: Vec<usize>,
    /// Indexed like [`Duration::all`].
    fusions: Vec<lre_backend::LdaMmiFusion>,
    num_classes: usize,
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
    model: Arc<Model>,
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
        let subs: Vec<LoadedSub> = bundle
            .subsystems
            .into_iter()
            .map(|s| load_sub(s, num_classes, &features))
            .collect::<Result<_, _>>()?;
        let mut task_order: Vec<usize> = (0..subs.len()).collect();
        // Stable: subsystems of equal cost keep their bundle order.
        task_order.sort_by_key(|&q| Reverse(subs[q].frontend.am.scorer.num_params()));
        Ok(ScoringSystem {
            features,
            model: Arc::new(Model {
                subs,
                task_order,
                fusions: bundle.fusions,
                num_classes,
            }),
        })
    }

    /// Number of target languages (LLR vector length).
    pub fn num_classes(&self) -> usize {
        self.model.num_classes
    }

    pub fn num_subsystems(&self) -> usize {
        self.model.subs.len()
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
    /// (OvR rows, scaled supervectors) the adaptation tap records. This is
    /// the engine's fan-out ([`Scorer::fan_out`]) with every task run by
    /// the calling thread: there is one scoring code path, so what a
    /// server replies is bit-identical to this whoever ran which task.
    pub fn try_score_detailed(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        let tasks = self.split(samples);
        let mut normalized = FrameMatrix::new(FEATURE_DIM);
        for task in 0..tasks.slots.len() {
            tasks.run(task, scratch, &mut normalized);
        }
        let mut detail = tasks.finish()?;
        detail.digest = sample_digest(samples);
        Ok(detail)
    }

    /// The serial head of a request — one pass over the audio for every
    /// subsystem — and the per-subsystem tasks that remain.
    fn split(&self, samples: &[f32]) -> UttTasks {
        let extract_started = Instant::now();
        let feats = self.features.extract(samples);
        let extract_us = extract_started.elapsed().as_micros() as u64;
        UttTasks {
            model: Arc::clone(&self.model),
            feats,
            extract_us,
            slots: self.model.subs.iter().map(|_| Mutex::new(None)).collect(),
        }
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

    fn fan_out(&self, samples: &[f32]) -> Option<Arc<dyn FanOut>> {
        Some(Arc::new(self.split(samples)))
    }
}

/// One utterance after the shared feature pass: a task per subsystem
/// (transform → decode → supervector → TFLLR → OvR SVM), each writing its
/// own slot, then fusion over the slots in subsystem order.
struct UttTasks {
    model: Arc<Model>,
    /// One matrix per distinct feature kind, read by every task.
    feats: Vec<FrameMatrix>,
    /// The shared pass: the first part of "everything before the
    /// supervector", billed once.
    extract_us: u64,
    /// Indexed by subsystem, whatever order the tasks ran in.
    slots: Vec<Mutex<Option<SubScore>>>,
}

/// What one subsystem's task leaves behind.
struct SubScore {
    /// TFLLR-scaled.
    supervector: SparseVec,
    /// One-vs-rest SVM scores, one per class.
    row: Vec<f32>,
    busy_us: StageTimes,
    decoded: Instant,
    scaled: Instant,
}

impl UttTasks {
    fn run(&self, task: usize, scratch: &mut DecodeScratch, normalized: &mut FrameMatrix) {
        let q = self.model.task_order[task];
        let sub = &self.model.subs[q];
        let fe = &sub.frontend;
        let started = Instant::now();
        let (sv, decoded) =
            fe.supervector_from_features_timed(&self.feats[sub.feature_index], normalized, scratch);
        // TFLLR scaling operates on the supervector, so it bills to the
        // supervector stage alongside the build.
        let supervector = fe
            .scaler
            .as_ref()
            .expect("bundled front-ends carry fitted scalers")
            .transformed(&sv);
        let scaled = Instant::now();
        let row = sub.vsm.scores(&supervector);
        let busy_us = StageTimes {
            decode_us: (decoded - started).as_micros() as u64,
            supervector_us: (scaled - decoded).as_micros() as u64,
            score_us: scaled.elapsed().as_micros() as u64,
        };
        *self.slots[q].lock().expect("a slot is locked only to move") = Some(SubScore {
            supervector,
            row,
            busy_us,
            decoded,
            scaled,
        });
    }
}

impl FanOut for UttTasks {
    fn num_tasks(&self) -> usize {
        self.slots.len()
    }

    fn run_task(&self, task: usize, ws: &mut WorkingSet) {
        self.run(task, &mut ws.scratch, &mut ws.normalized);
    }

    fn finish(&self) -> Result<ScoreDetail, ArtifactError> {
        let subs: Vec<SubScore> = self
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("a slot is locked only to move")
                    .take()
                    .expect("finish runs once, after every task")
            })
            .collect();
        let mut stage_us = StageTimes {
            decode_us: self.extract_us,
            ..StageTimes::default()
        };
        // A bundle without subsystems does not load.
        let (mut decode, mut supervector) = (subs[0].decoded, subs[0].scaled);
        for sub in &subs {
            stage_us.decode_us += sub.busy_us.decode_us;
            stage_us.supervector_us += sub.busy_us.supervector_us;
            stage_us.score_us += sub.busy_us.score_us;
            decode = decode.max(sub.decoded);
            supervector = supervector.max(sub.scaled);
        }

        let fuse_started = Instant::now();
        let num_frames = self.feats[0].num_frames();
        let di = duration_index_for(num_frames);
        let mats: Vec<ScoreMatrix> = subs
            .iter()
            .map(|sub| {
                let mut m = ScoreMatrix::new(self.model.num_classes);
                m.push_row(&sub.row);
                m
            })
            .collect();
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let fused = self.model.fusions[di].apply(&refs).row(0).to_vec();
        let score = Instant::now();
        stage_us.score_us += (score - fuse_started).as_micros() as u64;
        let (subsystem_scores, supervectors) =
            subs.into_iter().map(|s| (s.row, s.supervector)).unzip();
        Ok(ScoreDetail {
            digest: 0,
            num_frames: num_frames as u32,
            duration_index: di,
            generation: 0,
            fused,
            subsystem_scores,
            supervectors,
            stage_us,
            stage_done: Some(StageDone {
                decode,
                supervector,
                score,
            }),
        })
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
