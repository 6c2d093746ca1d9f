//! The boosting worker: drain the vote log, select pseudo-labels with the
//! Eq. 13 vote rule, retrain, guard, and hot-swap.
//!
//! One adaptation cycle ([`AdaptController::run_cycle`]) is the online
//! mirror of one offline `lre_dba::run_dba` round, sharing its exact
//! selection and assembly code so the two are bit-identical over the same
//! utterances:
//!
//! 1. **Drain** the [`VoteLog`] (all-or-nothing, arrival order) and group
//!    the records by routed duration — the log's duration-major view *is*
//!    the offline test pool when utterances arrive duration-major.
//! 2. **Select** with [`lre_dba::dba_round_selection`] — the same Eq. 13
//!    vote rule `run_dba` uses, applied to the served OvR rows.
//! 3. **Retrain** each subsystem's one-vs-rest VSM on the pseudo-labelled
//!    supervectors assembled by [`lre_dba::build_tr_dba`] (M1: served
//!    utterances only), with the SVM recipe frozen in the bundle.
//! 4. **Guard**: shadow-score parent and candidate VSMs on the held-back
//!    [`GuardSet`]; a candidate that regresses pooled EER or min-Cavg past
//!    the configured slack is rejected — no swap, generation and live
//!    scores untouched.
//! 5. **Promote**: seal the candidate bundle with its [`Lineage`] (parent
//!    checksum, generation, selection stats) and atomically swap it into
//!    the serving [`ScorerHandle`]; the displaced model is retained so
//!    [`AdaptController::rollback`] can restore it bit-identically.

use lre_artifact::{crc32, ArtifactError, ArtifactRead, ArtifactWrite};
use lre_corpus::Duration;
use lre_dba::{build_tr_dba, dba_round_selection, DbaVariant, GuardSet};
use lre_eval::ScoreMatrix;
use lre_obs::{FlightRecorder, EV_GUARD_ACCEPT, EV_GUARD_REJECT, EV_ROLLBACK, EV_SWAP, EV_WAL_GC};
use lre_serve::args::Args;
use lre_serve::protocol::{RollbackToAck, STATUS_CONFLICT, STATUS_INTERNAL, STATUS_UNSUPPORTED};
use lre_serve::{
    wal_status_info, AdaptControl, AdaptReport, DurabilityControl, ScorerHandle, ScoringSystem,
    SystemBundle, VersionedScorer, VoteLog, VoteRecord, WalStatusInfo, ADAPT_FAILED,
    ADAPT_INSUFFICIENT_DATA, ADAPT_PROMOTED, ADAPT_REJECTED_GUARD,
};
use lre_svm::OneVsRest;
use lre_wal::{LineageError, LineageStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration as StdDuration;

/// Checksum identifying a sealed bundle, as carried by [`Lineage`] and the
/// serving [`ScorerHandle`]: CRC-32 over the full sealed byte stream.
pub fn bundle_checksum(sealed: &[u8]) -> u32 {
    crc32(sealed)
}

/// Adaptation-cycle tuning.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Eq. 13 vote threshold `V` for pseudo-label selection.
    pub v_threshold: u8,
    /// Fewest buffered utterances a cycle will act on; below it the log is
    /// left untouched and the cycle reports `ADAPT_INSUFFICIENT_DATA`.
    pub min_utts: usize,
    /// Most the candidate's guard EER may exceed the parent's before
    /// rejection. Negative values force every candidate to be rejected
    /// (the CI rollback drill).
    pub max_eer_regress: f64,
    /// Same slack for guard min-Cavg.
    pub max_cavg_regress: f64,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            v_threshold: 3,
            min_utts: 8,
            max_eer_regress: 0.02,
            max_cavg_regress: 0.02,
        }
    }
}

/// The adaptation-guard flags `lre-adaptd` and `lre-router` share:
/// `--guard --min-utts --v-threshold --guard-max-eer-regress
/// --guard-max-cavg-regress`.
#[derive(Default)]
pub struct GuardArgs {
    /// Path of the held-back guard set.
    pub guard: Option<PathBuf>,
    pub adapt: AdaptConfig,
}

impl GuardArgs {
    /// Take `flag`'s value if the flag is one of this group's; `false`
    /// leaves the flag to the caller.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--guard" => self.guard = Some(args.value(flag)),
            "--min-utts" => self.adapt.min_utts = args.value(flag),
            "--v-threshold" => self.adapt.v_threshold = args.value(flag),
            "--guard-max-eer-regress" => self.adapt.max_eer_regress = args.value(flag),
            "--guard-max-cavg-regress" => self.adapt.max_cavg_regress = args.value(flag),
            _ => return false,
        }
        true
    }
}

/// Outcome counters (observability; mirrors the per-report outcomes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptCounters {
    pub promoted: u64,
    pub rejected_guard: u64,
    pub insufficient_data: u64,
    pub failed: u64,
}

/// A guard-approved candidate from one boosting round: the sealed bundle
/// ready to install (or to stage fleet-wide), plus the round's selection
/// stats.
pub struct CandidateBundle {
    /// Sealed bundle bytes, lineage already stamped
    /// (`parent lineage generation + 1`, parent checksum, selection
    /// stats).
    pub bytes: Vec<u8>,
    /// `bundle_checksum(&bytes)`.
    pub checksum: u32,
    /// Lineage generation stamped into the candidate.
    pub lineage_generation: u64,
    /// Utterances the Eq. 13 vote selected.
    pub selected: u32,
    /// Records consumed by the round.
    pub drained: u32,
    /// Guard EER delta, candidate minus parent (negative = improvement).
    pub eer_delta: f64,
    /// Guard min-Cavg delta, candidate minus parent.
    pub cavg_delta: f64,
}

/// How one boosting round over an already-drained record set ended.
pub enum RoundOutcome {
    /// The vote selected nothing (or the pool was empty); no candidate was
    /// trained.
    Insufficient { drained: u32 },
    /// The candidate regressed the guard metrics past the configured
    /// slack. Deltas are candidate minus parent on the guard set.
    RejectedGuard {
        selected: u32,
        drained: u32,
        eer_delta: f64,
        cavg_delta: f64,
    },
    /// The candidate cleared the guard and is ready to install.
    Candidate(CandidateBundle),
}

impl RoundOutcome {
    /// What either coordinator does with a round's verdict: the candidate
    /// to promote, or the report that ends the cycle (`generation` is what
    /// the reporter serves). The guard's verdict — selected, drained, EER
    /// and min-Cavg deltas — goes to `flight` under the label `who`.
    pub fn judged(
        self,
        who: &str,
        generation: u64,
        flight: &FlightRecorder,
    ) -> Result<CandidateBundle, AdaptReport> {
        let verdict = |kind, selected: u32, drained: u32, eer_delta, cavg_delta| {
            let (selected, drained) = (u64::from(selected), u64::from(drained));
            flight.record(kind, who, selected, drained, eer_delta, cavg_delta);
        };
        match self {
            RoundOutcome::Insufficient { drained } => Err(AdaptReport {
                outcome: ADAPT_INSUFFICIENT_DATA,
                generation,
                selected: 0,
                drained,
            }),
            RoundOutcome::RejectedGuard {
                selected,
                drained,
                eer_delta,
                cavg_delta,
            } => {
                verdict(EV_GUARD_REJECT, selected, drained, eer_delta, cavg_delta);
                Err(AdaptReport {
                    outcome: ADAPT_REJECTED_GUARD,
                    generation,
                    selected,
                    drained,
                })
            }
            RoundOutcome::Candidate(c) => {
                verdict(
                    EV_GUARD_ACCEPT,
                    c.selected,
                    c.drained,
                    c.eer_delta,
                    c.cavg_delta,
                );
                Ok(c)
            }
        }
    }
}

/// One DBA boosting round as a pure function: records in, sealed
/// guard-approved candidate (or a typed refusal) out. Shared by the
/// single-process [`AdaptController`] and the fleet router's adaptation
/// cycle, so a fleet-staged candidate is bit-identical to what the local
/// controller would have promoted from the same records.
///
/// `parent_bytes` is the sealed bundle currently serving; the candidate's
/// lineage is stamped from its decoded lineage generation and checksum.
pub fn boost_round(
    parent_bytes: &[u8],
    records: &[VoteRecord],
    guard: &GuardSet,
    cfg: &AdaptConfig,
) -> Result<RoundOutcome, ArtifactError> {
    let drained = records.len() as u32;
    let mut bundle = SystemBundle::from_artifact_bytes(parent_bytes)?;
    if bundle.subsystems.len() != guard.num_subsystems() {
        return Err(ArtifactError::Corrupt("guard/bundle subsystem counts"));
    }

    let num_subsystems = bundle.subsystems.len();
    let pool = DurationPool::build(records, num_subsystems)?;
    let sel = dba_round_selection(&pool.score_refs(), cfg.v_threshold);
    let selected = sel.num_selected() as u32;
    if selected == 0 {
        return Ok(RoundOutcome::Insufficient { drained });
    }

    // Retrain every subsystem's VSM on the pseudo-labelled pool (M1:
    // served utterances only — online adaptation has no original train
    // set at hand), with the recipe frozen in the bundle.
    let num_classes = bundle
        .fusions
        .first()
        .ok_or(ArtifactError::Corrupt("bundle has no fusion backends"))?
        .num_classes();
    let cand_vsms: Vec<OneVsRest> = (0..num_subsystems)
        .map(|q| {
            let (xs, labels) = build_tr_dba(DbaVariant::M1, &sel.selected, &pool.svs[q], &[], &[]);
            OneVsRest::train(
                &xs,
                &labels,
                num_classes,
                bundle.subsystems[q].builder.dim(),
                &bundle.svm,
            )
        })
        .collect();

    // The eval guard: candidate vs parent on the held-back trial set.
    let parent_vsms: Vec<OneVsRest> = bundle.subsystems.iter().map(|s| s.vsm.clone()).collect();
    let parent_report = guard.evaluate(&parent_vsms, &bundle.fusions);
    let cand_report = guard.evaluate(&cand_vsms, &bundle.fusions);
    let eer_delta = cand_report.eer - parent_report.eer;
    let cavg_delta = cand_report.min_cavg - parent_report.min_cavg;
    let regressed = cand_report.eer > parent_report.eer + cfg.max_eer_regress
        || cand_report.min_cavg > parent_report.min_cavg + cfg.max_cavg_regress;
    if regressed {
        return Ok(RoundOutcome::RejectedGuard {
            selected,
            drained,
            eer_delta,
            cavg_delta,
        });
    }

    // Seal the candidate with its lineage.
    let lineage_generation = bundle.lineage.generation + 1;
    for (sub, vsm) in bundle.subsystems.iter_mut().zip(cand_vsms) {
        sub.vsm = vsm;
    }
    bundle.lineage = lre_serve::Lineage {
        generation: lineage_generation,
        parent_checksum: bundle_checksum(parent_bytes),
        selected_utts: selected,
        v_threshold: cfg.v_threshold,
    };
    let bytes = bundle.to_artifact_bytes();
    let checksum = bundle_checksum(&bytes);
    Ok(RoundOutcome::Candidate(CandidateBundle {
        bytes,
        checksum,
        lineage_generation,
        selected,
        drained,
        eer_delta,
        cavg_delta,
    }))
}

struct CtlState {
    /// Sealed bytes of the bundle currently installed in the handle.
    current_bytes: Arc<Vec<u8>>,
    /// Lineage generation of the current bundle (not the serving
    /// generation — rollbacks advance the latter but not the former).
    lineage_generation: u64,
    /// The displaced model retained for rollback: the exact
    /// [`VersionedScorer`] (and its sealed bytes and lineage generation)
    /// that was serving before the last promotion.
    previous: Option<(Arc<VersionedScorer>, Arc<Vec<u8>>, u64)>,
}

/// The generation-lineage chain of a durable controller, and its
/// retention policy.
struct CtlLineage {
    /// The controller's state mutex serializes promotes and deep
    /// rollbacks; this inner lock only guards status reads racing them.
    store: Mutex<LineageStore>,
    /// Retained generations after each promote's GC; 0 = unlimited.
    keep_generations: usize,
}

/// Lineage failures surfaced through the cycle's artifact-error channel.
fn lineage_err(e: LineageError) -> ArtifactError {
    match e {
        LineageError::Artifact(e) => e,
        LineageError::UnknownGeneration(_) => ArtifactError::Corrupt("unknown lineage generation"),
        LineageError::Pruned(_) => ArtifactError::Corrupt("lineage generation pruned"),
        LineageError::BrokenChain(_) => ArtifactError::Corrupt("lineage chain violation"),
    }
}

/// The adaptation controller: owns the cycle logic and the rollback
/// history for one serving handle.
pub struct AdaptController {
    handle: Arc<ScorerHandle>,
    log: Arc<VoteLog>,
    lineage: Option<CtlLineage>,
    guard: GuardSet,
    cfg: AdaptConfig,
    state: Mutex<CtlState>,
    promoted: AtomicU64,
    rejected_guard: AtomicU64,
    insufficient_data: AtomicU64,
    failed: AtomicU64,
    /// Guard verdicts (with EER/min-Cavg deltas), promotions, rollbacks
    /// and lineage GC become structured events here.
    flight: Arc<FlightRecorder>,
}

impl AdaptController {
    /// Wire a controller to the serving handle it adapts, the vote log the
    /// engine taps into (over a WAL or not), the held-back guard set, and
    /// the sealed bytes of the bundle currently installed in `handle`
    /// (validated by decode).
    ///
    /// With `lineage` — the chain and how many generations to retain — the
    /// controller is durable: every promoted generation is sealed into the
    /// chain *before* it swaps into serving, so
    /// [`AdaptController::rollback_to`] can restore any retained
    /// generation bit-identically. An empty chain is rooted with
    /// `bundle_bytes`; otherwise the serving bundle must be the chain head
    /// (start from [`LineageStore::head`]'s bytes after a restart). After
    /// each promote the oldest generations beyond the newest
    /// `keep_generations` are pruned (0 = keep everything).
    ///
    /// Guard verdicts, promotions, rollbacks and lineage GC are recorded
    /// into `flight`.
    pub fn new(
        handle: Arc<ScorerHandle>,
        log: Arc<VoteLog>,
        lineage: Option<(LineageStore, usize)>,
        guard: GuardSet,
        bundle_bytes: Vec<u8>,
        cfg: AdaptConfig,
        flight: Arc<FlightRecorder>,
    ) -> Result<AdaptController, ArtifactError> {
        let bundle = SystemBundle::from_artifact_bytes(&bundle_bytes)?;
        if bundle.subsystems.len() != guard.num_subsystems() {
            return Err(ArtifactError::Corrupt("guard/bundle subsystem counts"));
        }
        let lineage_generation = bundle.lineage.generation;
        let lineage = lineage
            .map(|(mut store, keep_generations)| {
                match store.head() {
                    None => store
                        .record_root(&bundle_bytes, lineage_generation)
                        .map_err(lineage_err)?,
                    Some(head) if head.checksum != bundle_checksum(&bundle_bytes) => {
                        return Err(ArtifactError::Corrupt(
                            "serving bundle is not the lineage chain head",
                        ));
                    }
                    Some(_) => {}
                }
                Ok(CtlLineage {
                    store: Mutex::new(store),
                    keep_generations,
                })
            })
            .transpose()?;
        Ok(AdaptController {
            handle,
            log,
            lineage,
            guard,
            cfg,
            state: Mutex::new(CtlState {
                current_bytes: Arc::new(bundle_bytes),
                lineage_generation,
                previous: None,
            }),
            promoted: AtomicU64::new(0),
            rejected_guard: AtomicU64::new(0),
            insufficient_data: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            flight,
        })
    }

    pub fn counters(&self) -> AdaptCounters {
        AdaptCounters {
            promoted: self.promoted.load(Ordering::Relaxed),
            rejected_guard: self.rejected_guard.load(Ordering::Relaxed),
            insufficient_data: self.insufficient_data.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Sealed bytes of the currently installed bundle (what a rollback of
    /// the *next* promotion would restore).
    pub fn current_bundle_bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(
            &self
                .state
                .lock()
                .expect("adapt state poisoned")
                .current_bytes,
        )
    }

    /// Run one adaptation cycle synchronously. Never panics on bad data —
    /// internal failures come back as `ADAPT_FAILED` reports.
    pub fn run_cycle(&self) -> AdaptReport {
        let report = self.try_cycle().unwrap_or_else(|_| AdaptReport {
            outcome: ADAPT_FAILED,
            generation: self.handle.generation(),
            selected: 0,
            drained: 0,
        });
        let counter = match report.outcome {
            ADAPT_PROMOTED => &self.promoted,
            ADAPT_REJECTED_GUARD => &self.rejected_guard,
            ADAPT_INSUFFICIENT_DATA => &self.insufficient_data,
            _ => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        report
    }

    fn try_cycle(&self) -> Result<AdaptReport, ArtifactError> {
        let Ok(records) = self.log.drain_at_least(self.cfg.min_utts) else {
            return Ok(AdaptReport {
                outcome: ADAPT_INSUFFICIENT_DATA,
                generation: self.handle.generation(),
                selected: 0,
                drained: 0,
            });
        };

        // Serialize cycles (and rollbacks) end to end: selection, retrain
        // and swap must all act on one consistent parent.
        let mut state = self.state.lock().expect("adapt state poisoned");
        let parent_bytes = Arc::clone(&state.current_bytes);
        let round = boost_round(&parent_bytes, &records, &self.guard, &self.cfg)?;
        let mut candidate =
            match round.judged("adapt guard", self.handle.generation(), &self.flight) {
                Ok(candidate) => candidate,
                Err(report) => return Ok(report),
            };

        // Make the promote durable before it is visible. Generations are
        // contiguous serve events: if a deep rollback moved serving off
        // the chain head, the candidate is renumbered to extend the head
        // (its parent pointer still names the rolled-back generation).
        // The append lands on disk before the swap, so a bundle is never
        // served that the chain cannot restore.
        if let Some(l) = &self.lineage {
            let mut lineage = l.store.lock().expect("lineage store poisoned");
            if let Some(head) = lineage.head() {
                let next = head.generation + 1;
                if candidate.lineage_generation != next {
                    let mut bundle = SystemBundle::from_artifact_bytes(&candidate.bytes)?;
                    bundle.lineage.generation = next;
                    candidate.bytes = bundle.to_artifact_bytes();
                    candidate.checksum = bundle_checksum(&candidate.bytes);
                    candidate.lineage_generation = next;
                }
            }
            lineage
                .append(
                    &candidate.bytes,
                    candidate.lineage_generation,
                    bundle_checksum(&parent_bytes),
                    candidate.selected,
                )
                .map_err(lineage_err)?;
            if l.keep_generations > 0 {
                match lineage.gc(l.keep_generations) {
                    Ok((pruned, reclaimed)) if pruned > 0 => {
                        self.flight
                            .record(EV_WAL_GC, "lineage gc", pruned, reclaimed, 0.0, 0.0)
                    }
                    // A failed GC only leaves more generations on disk.
                    _ => {}
                }
            }
        }

        // Promote atomically: build the scorer from the sealed candidate
        // bytes — the exact decode a fleet replica runs at stage time.
        let system =
            ScoringSystem::from_bundle(SystemBundle::from_artifact_bytes(&candidate.bytes)?)?;
        let displaced = self.handle.current();
        let generation = self.handle.swap(Arc::new(system), candidate.checksum);
        state.previous = Some((displaced, parent_bytes, state.lineage_generation));
        state.current_bytes = Arc::new(candidate.bytes);
        state.lineage_generation = candidate.lineage_generation;
        self.flight.record(
            EV_SWAP,
            "adapt promote",
            generation,
            u64::from(candidate.checksum),
            candidate.eer_delta,
            candidate.cavg_delta,
        );
        Ok(AdaptReport {
            outcome: ADAPT_PROMOTED,
            generation,
            selected: candidate.selected,
            drained: candidate.drained,
        })
    }

    /// Restore the model displaced by the last promotion — the exact
    /// retained object, so the handle's checksum returns to the parent's
    /// bit-identically — under a fresh (still monotonic) generation.
    /// Returns the new generation, or `None` if there is nothing to roll
    /// back to (no promotion since startup or since the last rollback).
    pub fn rollback(&self) -> Option<u64> {
        let mut state = self.state.lock().expect("adapt state poisoned");
        let (scorer, bytes, lineage_generation) = state.previous.take()?;
        let generation = self.handle.rollback_to(&scorer);
        state.current_bytes = Arc::clone(&bytes);
        state.lineage_generation = lineage_generation;
        self.flight
            .record(EV_ROLLBACK, "adapt rollback", generation, 0, 0.0, 0.0);
        Some(generation)
    }

    /// Point-in-time WAL + lineage summary. A controller running without
    /// either reports the zeroed status (with `chain_ok` vacuously true).
    pub fn wal_status(&self) -> WalStatusInfo {
        let wal = self.log.wal_status().unwrap_or_default();
        let lineage = self
            .lineage
            .as_ref()
            .map(|l| l.store.lock().expect("lineage store poisoned"));
        wal_status_info(&wal, lineage.as_deref())
    }

    /// Deep rollback: load generation `generation`'s pristine sealed
    /// bytes from the lineage chain, rebuild the scorer from them, and
    /// swap it into serving under a fresh (still monotonic) serving
    /// generation — scores return `f32::to_bits`-identical to when that
    /// generation first served. The one-deep [`AdaptController::rollback`]
    /// history is cleared: it described a promote that is no longer the
    /// serving model's parent. Unknown or pruned generations are refused
    /// with `STATUS_CONFLICT`.
    pub fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8> {
        let Some(l) = &self.lineage else {
            return Err(STATUS_UNSUPPORTED);
        };
        let mut state = self.state.lock().expect("adapt state poisoned");
        let bytes = {
            let lineage = l.store.lock().expect("lineage store poisoned");
            lineage.load(generation).map_err(|e| match e {
                LineageError::UnknownGeneration(_) | LineageError::Pruned(_) => STATUS_CONFLICT,
                LineageError::Artifact(_) | LineageError::BrokenChain(_) => STATUS_INTERNAL,
            })?
        };
        let system = SystemBundle::from_artifact_bytes(&bytes)
            .and_then(ScoringSystem::from_bundle)
            .map_err(|_| STATUS_INTERNAL)?;
        let checksum = bundle_checksum(&bytes);
        let serving = self.handle.swap(Arc::new(system), checksum);
        state.previous = None;
        state.current_bytes = Arc::new(bytes);
        state.lineage_generation = generation;
        self.flight.record(
            EV_ROLLBACK,
            "deep rollback",
            serving,
            u64::from(checksum),
            0.0,
            0.0,
        );
        Ok(RollbackToAck {
            restored: generation,
            serving,
            checksum,
        })
    }
}

impl DurabilityControl for AdaptController {
    fn wal_status(&self) -> WalStatusInfo {
        AdaptController::wal_status(self)
    }

    fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8> {
        AdaptController::rollback_to(self, generation)
    }
}

impl AdaptControl for AdaptController {
    fn adapt_now(&self) -> AdaptReport {
        self.run_cycle()
    }
}

/// The drained log regrouped the way the offline DBA round sees its test
/// pool: scores and supervectors per duration, arrival order within each.
struct DurationPool {
    /// `[duration][subsystem]`: one OvR row per record, arrival order.
    scores: Vec<Vec<ScoreMatrix>>,
    /// `[subsystem][duration][utt]`, aligned with `scores` row order —
    /// exactly the `test_svs` shape [`build_tr_dba`] consumes.
    svs: Vec<Vec<Vec<lre_vsm::SparseVec>>>,
}

impl DurationPool {
    fn build(records: &[VoteRecord], num_subsystems: usize) -> Result<DurationPool, ArtifactError> {
        let num_durations = Duration::all().len();
        let num_classes = records
            .first()
            .map(|r| r.fused.len())
            .ok_or(ArtifactError::Corrupt("empty adaptation pool"))?;
        let mut scores: Vec<Vec<ScoreMatrix>> = (0..num_durations)
            .map(|_| {
                (0..num_subsystems)
                    .map(|_| ScoreMatrix::new(num_classes))
                    .collect()
            })
            .collect();
        let mut svs: Vec<Vec<Vec<lre_vsm::SparseVec>>> = (0..num_subsystems)
            .map(|_| (0..num_durations).map(|_| Vec::new()).collect())
            .collect();
        for rec in records {
            if rec.subsystem_scores.len() != num_subsystems
                || rec.supervectors.len() != num_subsystems
            {
                return Err(ArtifactError::Corrupt("vote record subsystem count"));
            }
            let di = rec.duration_index;
            if di >= num_durations {
                return Err(ArtifactError::Corrupt("vote record duration index"));
            }
            for q in 0..num_subsystems {
                scores[di][q].push_row(&rec.subsystem_scores[q]);
                svs[q][di].push(rec.supervectors[q].clone());
            }
        }
        Ok(DurationPool { scores, svs })
    }

    fn score_refs(&self) -> Vec<Vec<&ScoreMatrix>> {
        self.scores
            .iter()
            .map(|per_dur| per_dur.iter().collect())
            .collect()
    }
}

/// A background thread running [`AdaptController::run_cycle`] on a fixed
/// cadence, with prompt shutdown.
pub struct AdaptWorker {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl AdaptWorker {
    /// Run a cycle every `interval`, reporting each outcome to `on_cycle`.
    pub fn spawn<F>(ctl: Arc<AdaptController>, interval: StdDuration, on_cycle: F) -> AdaptWorker
    where
        F: Fn(AdaptReport) + Send + 'static,
    {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (flag, cv) = &*stop;
                let mut stopped = flag.lock().expect("worker stop flag poisoned");
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, interval)
                        .expect("worker stop flag poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        drop(stopped);
                        on_cycle(ctl.run_cycle());
                        stopped = flag.lock().expect("worker stop flag poisoned");
                    }
                }
            })
        };
        AdaptWorker {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the cadence and join the thread (idempotent; also runs on
    /// drop).
    pub fn stop(&mut self) {
        let (flag, cv) = &*self.stop;
        *flag.lock().expect("worker stop flag poisoned") = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdaptWorker {
    fn drop(&mut self) {
        self.stop();
    }
}
