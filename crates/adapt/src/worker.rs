//! The adaptation coordinator: drain the replicas' vote logs, select
//! pseudo-labels with the Eq. 13 vote rule, retrain, guard, and promote
//! through a two-phase rollout.
//!
//! One adaptation cycle ([`AdaptController::run_cycle`]) is the online
//! mirror of one offline `lre_dba::run_dba` round, sharing its exact
//! selection and assembly code so the two are bit-identical over the same
//! utterances:
//!
//! 1. **Drain** every healthy replica's vote log (peek the total first, so
//!    a pool below the floor leaves every log untouched), merge the
//!    records by content digest, and group them by routed duration — the
//!    duration-major view *is* the offline test pool when utterances
//!    arrive duration-major.
//! 2. **Select** with [`lre_dba::dba_round_selection`] — the same Eq. 13
//!    vote rule `run_dba` uses, applied to the served OvR rows.
//! 3. **Retrain** each subsystem's one-vs-rest VSM on the pseudo-labelled
//!    supervectors assembled by [`lre_dba::build_tr_dba`] (M1: served
//!    utterances only), with the SVM recipe frozen in the bundle.
//! 4. **Guard**: shadow-score parent and candidate VSMs on the held-back
//!    guard set, streamed from its file ([`GuardFile`]) in one pass; a
//!    candidate that regresses pooled EER or min-Cavg past the configured
//!    slack is rejected — nothing staged, generations and live scores
//!    untouched. A guard file that is gone, damaged or not the one
//!    validated at start-up fails the cycle with no verdict.
//! 5. **Promote**: splice the candidate bundle from the parent's file
//!    with the new VSMs and its lineage (parent checksum, generation,
//!    selection stats), append it to the chain, and flip every replica
//!    with [`two_phase_promote`]. Each replica keeps the model it
//!    displaced, so [`AdaptController::rollback`] restores it
//!    bit-identically.
//!
//! The controller holds no bundle bytes: every bundle it installs is a
//! file of its chain — the durable lineage, or a private scratch chain
//! when it has none — named by path and [`lre_artifact::SealedId`]. A
//! round streams its parent from that file a section at a time
//! ([`BundleParent`]); a parent file that is no longer the container
//! installed fails the cycle.
//!
//! The replicas are [`FleetControl`]s: `lre-adaptd` passes the one
//! in-process [`lre_serve::FleetReplica`] it serves from, `lre-router` its
//! TCP `Backend`s. The controller never touches a serving handle itself.

use lre_artifact::{ArtifactError, SealedFile};
use lre_corpus::Duration;
use lre_dba::{build_tr_dba, dba_round_selection, vote_matrix, DbaVariant, GuardFile, GuardReport};
use lre_eval::ScoreMatrix;
use lre_obs::{
    Counter, FlightRecorder, Histogram, Registry, Sketch, EV_BUNDLE_FAILED, EV_GUARD_ACCEPT,
    EV_GUARD_FAILED, EV_GUARD_REJECT, EV_PROMOTE, EV_ROLLBACK, EV_WAL_GC,
};
use lre_serve::args::Args;
use lre_serve::protocol::{
    CommitAck, RollbackAck, RollbackToAck, StageAck, STATUS_CONFLICT, STATUS_INTERNAL,
    STATUS_UNSUPPORTED,
};
use lre_serve::{
    AdaptControl, AdaptReport, BundleParent, FleetControl, Lineage, SystemBundle, VoteRecord,
    ADAPT_FAILED, ADAPT_INSUFFICIENT_DATA, ADAPT_PROMOTED, ADAPT_REJECTED_GUARD,
};
use lre_svm::OneVsRest;
use lre_wal::{LineageError, LineageStore};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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

/// The guard's two readings of one round: parent and candidate VSMs on the
/// held-back set.
#[derive(Clone, Copy, Debug)]
pub struct GuardVerdict {
    pub parent: GuardReport,
    pub candidate: GuardReport,
}

impl GuardVerdict {
    /// Guard EER delta, candidate minus parent (negative = improvement).
    pub fn eer_delta(&self) -> f64 {
        self.candidate.eer - self.parent.eer
    }

    /// Guard min-Cavg delta, candidate minus parent.
    pub fn cavg_delta(&self) -> f64 {
        self.candidate.min_cavg - self.parent.min_cavg
    }
}

/// A guard-approved candidate from one boosting round: the sealed bundle's
/// file, ready to stage, plus the round's selection stats.
pub struct CandidateBundle {
    /// The sealed bundle, lineage already stamped (generation, parent
    /// checksum, selection stats), and its identity.
    pub file: SealedFile,
    /// Lineage generation stamped into the candidate.
    pub lineage_generation: u64,
    /// Utterances the Eq. 13 vote selected.
    pub selected: u32,
    /// Records consumed by the round.
    pub drained: u32,
    pub guard: GuardVerdict,
}

/// How one boosting round over an already-drained record set ended.
pub enum RoundOutcome {
    /// The vote selected nothing (or the pool was empty); no candidate was
    /// trained.
    Insufficient { drained: u32 },
    /// The candidate regressed the guard metrics past the configured
    /// slack.
    RejectedGuard {
        selected: u32,
        drained: u32,
        guard: GuardVerdict,
    },
    /// The candidate cleared the guard and is ready to install.
    Candidate(CandidateBundle),
}

/// Why a boosting round ended without an outcome.
#[derive(Debug)]
pub enum RoundError {
    /// The drained records would not decode, or do not fit the bundle.
    Artifact(ArtifactError),
    /// The guard file could not be read back as it was validated.
    Guard(ArtifactError),
    /// The parent bundle's file could not be read back as the container
    /// it was installed as (gone, damaged or replaced), or the candidate
    /// could not be spliced from it.
    Parent(ArtifactError),
}

impl From<ArtifactError> for RoundError {
    fn from(e: ArtifactError) -> RoundError {
        RoundError::Artifact(e)
    }
}

/// One DBA boosting round as a pure function: records in, sealed
/// guard-approved candidate (or a typed refusal) out — the round
/// [`AdaptController::run_cycle`] runs over the merged pool, and the one
/// `tests/online_adaptation.rs` holds to offline `run_dba`.
///
/// `parent` is the file of the sealed bundle currently serving, read a
/// section at a time; a guard-approved candidate is written to a new file
/// at `out`, its lineage stamped `parent + 1` and with the parent's
/// checksum. The round consumes `records`: their supervectors move into
/// the pool instead of being copied, so the drained records keep no
/// second copy. Each subsystem's training set still clones the selected
/// ones of that subsystem while it trains.
pub fn boost_round(
    parent: &SealedFile,
    records: Vec<VoteRecord>,
    guard: &GuardFile,
    cfg: &AdaptConfig,
    out: &Path,
) -> Result<RoundOutcome, RoundError> {
    let pool = DurationPool::build(records, guard.num_subsystems())?;
    boost_pool(parent, pool, guard, cfg, None, out)
}

/// [`boost_round`] over records already regrouped into a pool. The
/// candidate is stamped lineage generation `generation`, or `parent + 1`
/// when `None`.
fn boost_pool(
    parent: &SealedFile,
    pool: DurationPool,
    guard: &GuardFile,
    cfg: &AdaptConfig,
    generation: Option<u64>,
    out: &Path,
) -> Result<RoundOutcome, RoundError> {
    let drained = pool.len as u32;
    let parent = BundleParent::read(parent.clone()).map_err(RoundError::Parent)?;
    let num_subsystems = parent.vsms().len();
    if num_subsystems != guard.num_subsystems() {
        return Err(ArtifactError::Corrupt("guard/bundle subsystem counts").into());
    }

    let sel = dba_round_selection(&pool.score_refs(), cfg.v_threshold);
    let selected = sel.num_selected() as u32;
    if selected == 0 {
        return Ok(RoundOutcome::Insufficient { drained });
    }

    // Retrain every subsystem's VSM on the pseudo-labelled pool (M1:
    // served utterances only — online adaptation has no original train
    // set at hand), with the recipe frozen in the bundle.
    let num_classes = parent
        .fusions()
        .first()
        .ok_or(ArtifactError::Corrupt("bundle has no fusion backends"))?
        .num_classes();
    let cand_vsms: Vec<OneVsRest> = (0..num_subsystems)
        .map(|q| {
            let (xs, labels) = build_tr_dba(DbaVariant::M1, &sel.selected, &pool.svs[q], &[], &[]);
            OneVsRest::train(&xs, &labels, num_classes, parent.dim(q), parent.svm())
        })
        .collect();

    // The eval guard: candidate vs parent on the held-back trial set, both
    // scored in one pass over the file.
    let scores = guard
        .score(&[parent.vsms(), cand_vsms.iter().collect()])
        .map_err(RoundError::Guard)?;
    let verdict = GuardVerdict {
        parent: scores.report(0, parent.fusions()),
        candidate: scores.report(1, parent.fusions()),
    };
    let (was, cand) = (verdict.parent, verdict.candidate);
    let regressed = cand.eer > was.eer + cfg.max_eer_regress
        || cand.min_cavg > was.min_cavg + cfg.max_cavg_regress;
    if regressed {
        return Ok(RoundOutcome::RejectedGuard {
            selected,
            drained,
            guard: verdict,
        });
    }

    // Splice the candidate from the parent's file: its sections with the
    // new VSMs, and its lineage.
    let lineage_generation = generation.unwrap_or(parent.lineage().generation + 1);
    let lineage = Lineage {
        generation: lineage_generation,
        parent_checksum: parent.file().id.crc,
        selected_utts: selected,
        v_threshold: cfg.v_threshold,
    };
    let id = (parent.splice(&cand_vsms, lineage, out)).map_err(RoundError::Parent)?;
    Ok(RoundOutcome::Candidate(CandidateBundle {
        file: SealedFile {
            path: out.to_path_buf(),
            id,
        },
        lineage_generation,
        selected,
        drained,
        guard: verdict,
    }))
}

struct CtlState {
    /// The file of the bundle the replicas serve, in the chain: the next
    /// round's parent.
    current: SealedFile,
    /// The bundle the last install displaced, for one-deep rollback (each
    /// replica holds its scorer; this is the parent a round trains from
    /// after that rollback).
    previous: Option<SealedFile>,
}

impl CtlState {
    /// Flip `fleet` to the bundle in `file` — the one install path, a
    /// promote's and a deep rollback's. The file is read whole for the
    /// stage (refused unless it is the container `file` names) and let go;
    /// it becomes the next round's parent, and the bundle it displaces is
    /// what a one-deep rollback restores.
    fn install(&mut self, fleet: &[Arc<dyn FleetControl>], file: SealedFile) -> Option<u64> {
        let sealed = file.read().ok()?;
        let generation = two_phase_promote(fleet, &sealed, file.id.crc)?;
        self.previous = Some(std::mem::replace(&mut self.current, file));
        Some(generation)
    }

    /// The checksums of the bundles the controller names: GC keeps them.
    fn pinned(&self) -> Vec<u32> {
        let previous = self.previous.iter().map(|p| p.id.crc);
        std::iter::once(self.current.id.crc)
            .chain(previous)
            .collect()
    }
}

/// The chain every bundle the controller installs is a file of — a
/// durable lineage, or a scratch chain — and its retention policy.
struct CtlChain {
    /// Locked by promotes and deep rollbacks (under the controller's state
    /// mutex, after any retrain) and by the `lineage.*` readers.
    store: Arc<Mutex<LineageStore>>,
    /// Retained generations after each promote's GC; 0 = unlimited.
    keep_generations: usize,
}

/// Where a cycle writes its candidate, in the chain's directory; the
/// promote copies it into the chain and every cycle removes it.
const CANDIDATE_FILE: &str = "candidate.bndl";

/// Lineage failures surfaced through the cycle's artifact-error channel.
fn lineage_err(e: LineageError) -> ArtifactError {
    match e {
        LineageError::Artifact(e) => e,
        LineageError::UnknownGeneration(_) => ArtifactError::Corrupt("unknown lineage generation"),
        LineageError::Pruned(_) => ArtifactError::Corrupt("lineage generation pruned"),
        LineageError::BrokenChain(_) => ArtifactError::Corrupt("lineage chain violation"),
    }
}

/// The series the controller registers: one per decision it makes, so a
/// cycle's verdict can be read from the stats-v3 dump.
struct CycleObs {
    /// Wall time of each [`AdaptController::run_cycle`], in ms.
    cycle_ms: Arc<Histogram>,
    /// Cycles per outcome, indexed by the `ADAPT_*` code.
    cycles: [Arc<Counter>; 4],
    drained: Arc<Counter>,
    selected: Arc<Counter>,
    /// Guard EER and min-Cavg of the parent and of the candidate, one
    /// sample per guarded round.
    parent_eer: Arc<Sketch>,
    candidate_eer: Arc<Sketch>,
    parent_min_cavg: Arc<Sketch>,
    candidate_min_cavg: Arc<Sketch>,
    /// Eq. 12's `c_jk` at each drained utterance's winning language: Table
    /// 1's selection frontier, live.
    winning_votes: Arc<Histogram>,
}

impl CycleObs {
    fn new(registry: &Registry, v_threshold: u8) -> CycleObs {
        registry
            .gauge("adapt.v_threshold")
            .set(u64::from(v_threshold));
        let outcome = |name: &str| registry.counter(&format!("adapt.cycles.{name}"));
        CycleObs {
            cycle_ms: registry.histogram("adapt.cycle_ms"),
            // In `ADAPT_*` code order.
            cycles: ["promoted", "rejected_guard", "insufficient", "failed"].map(outcome),
            drained: registry.counter("adapt.drained"),
            selected: registry.counter("adapt.selected"),
            parent_eer: registry.sketch("adapt.guard.parent_eer"),
            candidate_eer: registry.sketch("adapt.guard.candidate_eer"),
            parent_min_cavg: registry.sketch("adapt.guard.parent_min_cavg"),
            candidate_min_cavg: registry.sketch("adapt.guard.candidate_min_cavg"),
            winning_votes: registry.histogram("adapt.c_jk"),
        }
    }

    fn guard(&self, verdict: &GuardVerdict) {
        self.parent_eer.record(verdict.parent.eer);
        self.candidate_eer.record(verdict.candidate.eer);
        self.parent_min_cavg.record(verdict.parent.min_cavg);
        self.candidate_min_cavg.record(verdict.candidate.min_cavg);
    }

    fn report(&self, report: &AdaptReport, started: Instant) {
        self.cycle_ms.record(started.elapsed().as_millis() as u64);
        if let Some(c) = self.cycles.get(usize::from(report.outcome)) {
            c.incr();
        }
        self.drained.add(u64::from(report.drained));
        self.selected.add(u64::from(report.selected));
    }
}

/// The adaptation coordinator: runs the cycle over a set of replicas and
/// names the parent bundle the next round trains from.
pub struct AdaptController {
    replicas: Vec<Arc<dyn FleetControl>>,
    chain: CtlChain,
    /// Read by every cycle, never held.
    guard: GuardFile,
    cfg: AdaptConfig,
    /// Serializes cycles and rollbacks end to end: selection, retrain and
    /// promote must all act on one consistent parent.
    state: Mutex<CtlState>,
    /// Guard verdicts (with EER/min-Cavg deltas), promotions, rollbacks
    /// and lineage GC become structured events here; each replica records
    /// its own installs.
    flight: Arc<FlightRecorder>,
    obs: CycleObs,
}

impl AdaptController {
    /// Wire a coordinator to the replicas it adapts (an unhealthy one sits
    /// a cycle out), the held-back guard set's file as validated at
    /// start-up (every cycle reads it again, so it must stay in place
    /// while the controller runs), and the file of the bundle every
    /// replica serves with the identity its loader proved. A guard whose
    /// subsystem count disagrees with the bundle is refused here. The
    /// controller reads the bundle's lineage and keeps only file names and
    /// identities: no bundle bytes, decoded or sealed.
    ///
    /// Every bundle the controller installs is a file of a chain. With
    /// `lineage` — the chain and how many generations to retain — the
    /// controller is durable: every promoted generation is sealed into the
    /// chain *before* any replica stages it, so
    /// [`AdaptControl::rollback_to`] can restore any retained generation
    /// bit-identically, and the chain is read into the `lineage.head` /
    /// `.entries` / `.retained` / `.bytes` gauges of `registry`. An empty
    /// chain is rooted with a copy of `bundle`; otherwise the serving
    /// bundle must be the chain head (start from [`LineageStore::file`] of
    /// the head after a restart). After each promote the oldest
    /// generations beyond the newest `keep_generations` are pruned (0 =
    /// keep everything), never the one serving nor the one a one-deep
    /// rollback restores. Without `lineage` the chain is a
    /// [`LineageStore::scratch`] one, removed with the controller, that
    /// keeps only those two.
    ///
    /// Every cycle's outcome, counts, time, guard readings and winning
    /// vote counts are recorded into `adapt.*` series of `registry`; guard
    /// verdicts, promotions, rollbacks and lineage GC into `flight`.
    pub fn new(
        replicas: Vec<Arc<dyn FleetControl>>,
        lineage: Option<(LineageStore, usize)>,
        registry: &Registry,
        guard: GuardFile,
        bundle: SealedFile,
        cfg: AdaptConfig,
        flight: Arc<FlightRecorder>,
    ) -> Result<AdaptController, ArtifactError> {
        let (root, subsystems) = SystemBundle::read_lineage(&bundle)?;
        if subsystems != guard.num_subsystems() {
            return Err(ArtifactError::Corrupt("guard/bundle subsystem counts"));
        }
        let durable = lineage.is_some();
        let (mut store, keep_generations) = match lineage {
            Some(lineage) => lineage,
            None => (LineageStore::scratch().map_err(lineage_err)?, 1),
        };
        if store.head().is_none() {
            (store.record_root(&bundle.path, root.generation)).map_err(lineage_err)?;
        }
        let head = *store.head().expect("the chain is rooted");
        if (head.bytes_len, head.checksum) != (bundle.id.len, bundle.id.crc) {
            return Err(ArtifactError::Corrupt(
                "serving bundle is not the lineage chain head",
            ));
        }
        let current = store.file(head.generation).map_err(lineage_err)?;
        // A durable chain's summary is read from the store at every
        // snapshot; a scratch chain publishes nothing.
        let store = Arc::new(Mutex::new(store));
        if durable {
            let bind = |name, read: fn(&LineageStore) -> u64| {
                let store = Arc::clone(&store);
                registry.gauge_fn(name, move || read(&store.lock().expect("lineage poisoned")));
            };
            bind("lineage.head", |s| s.head().map_or(0, |e| e.generation));
            bind("lineage.entries", |s| s.entries().len() as u64);
            bind("lineage.retained", |s| s.retained() as u64);
            bind("lineage.bytes", LineageStore::retained_bytes);
        }
        Ok(AdaptController {
            replicas,
            chain: CtlChain {
                store,
                keep_generations,
            },
            guard,
            cfg,
            state: Mutex::new(CtlState {
                current,
                previous: None,
            }),
            flight,
            obs: CycleObs::new(registry, cfg.v_threshold),
        })
    }

    /// The file of the bundle the replicas serve (what a rollback of the
    /// *next* promotion would restore).
    pub fn current_file(&self) -> SealedFile {
        self.state
            .lock()
            .expect("adapt state poisoned")
            .current
            .clone()
    }

    fn store(&self) -> std::sync::MutexGuard<'_, LineageStore> {
        self.chain.store.lock().expect("lineage store poisoned")
    }

    /// Make a promote durable before it is visible: the candidate is
    /// copied into the chain as the head's successor (generations are
    /// contiguous serve events, so after a deep rollback moved serving off
    /// the head the candidate still extends the head; its parent pointer
    /// names the rolled-back generation). The copy lands on disk before
    /// any replica stages, so a bundle is never served that the chain
    /// cannot restore. Returns the chain's file of it.
    fn seal(
        &self,
        candidate: &CandidateBundle,
        parent: &SealedFile,
    ) -> Result<SealedFile, ArtifactError> {
        let mut store = self.store();
        let generation = candidate.lineage_generation;
        (store.append(
            &candidate.file.path,
            generation,
            parent.id.crc,
            candidate.selected,
        ))
        .map_err(lineage_err)?;
        let file = store.file(generation).map_err(lineage_err)?;
        candidate.file.check(file.id)?;
        Ok(file)
    }

    /// Prune the chain down to its budget, keeping what `state` names.
    fn gc(&self, state: &CtlState) {
        if self.chain.keep_generations == 0 {
            return;
        }
        let mut store = self.store();
        match store.gc(self.chain.keep_generations, &state.pinned()) {
            Ok((pruned, reclaimed)) if pruned > 0 && !store.is_scratch() => {
                self.flight
                    .record(EV_WAL_GC, "lineage gc", pruned, reclaimed, 0.0, 0.0)
            }
            // A failed GC only leaves more generations on disk.
            _ => {}
        }
    }

    fn healthy(&self) -> Vec<Arc<dyn FleetControl>> {
        self.replicas
            .iter()
            .filter(|r| r.is_healthy())
            .cloned()
            .collect()
    }

    /// Run one adaptation cycle synchronously: peek → drain → merge →
    /// boost → guard → splice → chain → two-phase promote. Never panics
    /// on bad data — internal failures come back as `ADAPT_FAILED`
    /// reports. Every report's `generation` is the lowest the healthy
    /// replicas serve when the cycle ends; `drained` counts the records
    /// handed to the round after digest dedup (0 below the floor).
    pub fn run_cycle(&self) -> AdaptReport {
        let started = Instant::now();
        let report = self.cycle();
        self.obs.report(&report, started);
        report
    }

    fn cycle(&self) -> AdaptReport {
        let state = &mut *self.state.lock().expect("adapt state poisoned");
        let fleet = self.healthy();
        let floor = || fleet.iter().map(|r| r.generation()).min().unwrap_or(0);
        let ended = |outcome, drained| AdaptReport {
            outcome,
            generation: floor(),
            selected: 0,
            drained,
        };
        if fleet.is_empty() {
            return ended(ADAPT_FAILED, 0);
        }

        // Peek first: if the total is below the floor, no log is touched
        // (the all-or-nothing contract of one log's drain, lifted to the
        // fleet).
        let buffered: usize = fleet
            .iter()
            .map(|r| r.drain_votes(true, 0).err().unwrap_or(0) as usize)
            .sum();
        if buffered < self.cfg.min_utts {
            return ended(ADAPT_INSUFFICIENT_DATA, 0);
        }

        // Drain and merge. Replicas may have scored the same utterance
        // (client retries across backends), so records are deduplicated
        // by content digest exactly like one vote log would.
        let mut seen = HashSet::new();
        let records: Vec<VoteRecord> = fleet
            .iter()
            .filter_map(|r| r.drain_votes(false, 1).ok())
            .flatten()
            .filter(|rec| seen.insert(rec.digest))
            .collect();
        let drained = records.len() as u32;
        if records.is_empty() {
            return ended(ADAPT_INSUFFICIENT_DATA, 0);
        }

        let (out, generation) = {
            let store = self.store();
            let head = store.head().expect("the chain is rooted").generation;
            (store.dir().join(CANDIDATE_FILE), head + 1)
        };
        let round = DurationPool::build(records, self.guard.num_subsystems())
            .map_err(RoundError::from)
            .and_then(|pool| {
                for votes in pool.winning_votes() {
                    self.obs.winning_votes.record(u64::from(votes));
                }
                boost_pool(
                    &state.current,
                    pool,
                    &self.guard,
                    &self.cfg,
                    Some(generation),
                    &out,
                )
            });
        let sealed = match round.map(|round| self.judge(round, floor())) {
            Ok(Ok(candidate)) => self
                .seal(&candidate, &state.current)
                .map(|file| (candidate, file)),
            Ok(Err(report)) => return report,
            Err(RoundError::Guard(e)) => {
                let detail = format!("{}: {e}", self.guard.path().display());
                self.flight
                    .record(EV_GUARD_FAILED, &detail, u64::from(drained), 0, 0.0, 0.0);
                return ended(ADAPT_FAILED, drained);
            }
            Err(RoundError::Parent(e)) => {
                let detail = format!("{}: {e}", state.current.path.display());
                self.flight
                    .record(EV_BUNDLE_FAILED, &detail, u64::from(drained), 0, 0.0, 0.0);
                let _ = std::fs::remove_file(&out);
                return ended(ADAPT_FAILED, drained);
            }
            Err(RoundError::Artifact(_)) => return ended(ADAPT_FAILED, drained),
        };
        let _ = std::fs::remove_file(&out);
        let promoted = sealed
            .ok()
            .and_then(|(candidate, file)| Some((state.install(&fleet, file)?, candidate)));
        self.gc(state);
        let Some((generation, candidate)) = promoted else {
            return ended(ADAPT_FAILED, drained);
        };
        self.flight.record(
            EV_PROMOTE,
            "adapt promote",
            generation,
            u64::from(candidate.file.id.crc),
            candidate.guard.eer_delta(),
            candidate.guard.cavg_delta(),
        );
        AdaptReport {
            outcome: ADAPT_PROMOTED,
            generation,
            selected: candidate.selected,
            drained,
        }
    }

    /// What the controller does with a round's verdict: the candidate to
    /// promote, or the report that ends the cycle (`generation` is what
    /// the replicas serve). The guard's verdict — selected, drained, EER
    /// and min-Cavg deltas — goes to the flight recorder, its two readings
    /// to the `adapt.guard.*` sketches.
    fn judge(&self, round: RoundOutcome, generation: u64) -> Result<CandidateBundle, AdaptReport> {
        let verdict = |kind, selected: u32, drained: u32, guard: &GuardVerdict| {
            let (selected, drained) = (u64::from(selected), u64::from(drained));
            let (eer, cavg) = (guard.eer_delta(), guard.cavg_delta());
            self.flight
                .record(kind, "guard", selected, drained, eer, cavg);
            self.obs.guard(guard);
        };
        match round {
            RoundOutcome::Insufficient { drained } => Err(AdaptReport {
                outcome: ADAPT_INSUFFICIENT_DATA,
                generation,
                selected: 0,
                drained,
            }),
            RoundOutcome::RejectedGuard {
                selected,
                drained,
                guard,
            } => {
                verdict(EV_GUARD_REJECT, selected, drained, &guard);
                Err(AdaptReport {
                    outcome: ADAPT_REJECTED_GUARD,
                    generation,
                    selected,
                    drained,
                })
            }
            RoundOutcome::Candidate(c) => {
                verdict(EV_GUARD_ACCEPT, c.selected, c.drained, &c.guard);
                Ok(c)
            }
        }
    }

    /// One-deep rollback: every healthy replica reinstalls the exact model
    /// its last install displaced — a promote's parent, or what a deep
    /// rollback replaced — under a fresh (still monotonic) generation.
    /// `rolled` only when every one did; the parent the next round trains
    /// from rewinds with them.
    pub fn rollback(&self) -> RollbackAck {
        let state = &mut *self.state.lock().expect("adapt state poisoned");
        let ack = rollback_backends(&self.healthy());
        if ack.rolled {
            self.flight
                .record(EV_ROLLBACK, "adapt rollback", ack.generation, 0, 0.0, 0.0);
            if let Some(previous) = state.previous.take() {
                state.current = previous;
            }
        }
        ack
    }
}

impl AdaptControl for AdaptController {
    fn adapt_now(&self) -> AdaptReport {
        self.run_cycle()
    }

    /// Deep rollback: stage + commit generation `generation`'s pristine
    /// sealed file from the lineage chain on every healthy replica under a
    /// fresh (still monotonic) serving generation — scores return
    /// `f32::to_bits`-identical to when that generation first served. It
    /// is an install like a promote, so a one-deep
    /// [`AdaptController::rollback`] undoes it. Unknown or pruned
    /// generations are refused with `STATUS_CONFLICT`, and every
    /// generation `STATUS_UNSUPPORTED` by a controller without a durable
    /// lineage.
    fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8> {
        let state = &mut *self.state.lock().expect("adapt state poisoned");
        let file = {
            let store = self.store();
            if store.is_scratch() {
                return Err(STATUS_UNSUPPORTED);
            }
            store.file(generation).map_err(|e| match e {
                LineageError::UnknownGeneration(_) | LineageError::Pruned(_) => STATUS_CONFLICT,
                LineageError::Artifact(_) | LineageError::BrokenChain(_) => STATUS_INTERNAL,
            })?
        };
        let checksum = file.id.crc;
        let serving = state
            .install(&self.healthy(), file)
            .ok_or(STATUS_INTERNAL)?;
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

/// The two-phase flip over any replica set: the controller's promote and
/// deep rollback, and the fault-injection tests, share this exact path.
/// Staging is the expensive, fallible half (decode, build the scorer), and
/// a replica that stages OK has promised its commit cannot fail on decode;
/// a commit is a pointer swap. So every replica stages before any flips.
/// `Some(min committed generation)` when every replica committed; `None`
/// after any failure, with staged copies aborted and committed replicas
/// rolled back so the set is left uniformly on what it served.
pub fn two_phase_promote(
    fleet: &[Arc<dyn FleetControl>],
    sealed: &[u8],
    checksum: u32,
) -> Option<u64> {
    if fleet.is_empty() {
        return None;
    }
    for (i, replica) in fleet.iter().enumerate() {
        if replica.stage(sealed) != Ok(StageAck { checksum }) {
            // Replica `i` too: an ack that names other bytes still staged
            // them (abort is idempotent).
            for prev in &fleet[..=i] {
                prev.abort();
            }
            return None;
        }
    }
    // A failed commit means a replica died between the phases: undo the
    // flip everywhere it landed and discard the stage everywhere it did
    // not.
    let mut generations: Vec<u64> = Vec::with_capacity(fleet.len());
    for (i, replica) in fleet.iter().enumerate() {
        match replica.commit() {
            Ok(CommitAck {
                generation,
                checksum: ck,
            }) if ck == checksum => generations.push(generation),
            _ => {
                for prev in &fleet[..i] {
                    prev.rollback();
                }
                for rest in &fleet[i + 1..] {
                    rest.abort();
                }
                return None;
            }
        }
    }
    generations.into_iter().min()
}

/// Roll every replica in `fleet` back one install. `rolled` only when
/// every one reported a successful rollback; `generation` is the lowest
/// serving generation among those that did.
pub fn rollback_backends(fleet: &[Arc<dyn FleetControl>]) -> RollbackAck {
    let acks: Vec<RollbackAck> = fleet.iter().map(|r| r.rollback()).collect();
    RollbackAck {
        rolled: !acks.is_empty() && acks.iter().all(|a| a.rolled),
        generation: acks
            .iter()
            .filter(|a| a.rolled)
            .map(|a| a.generation)
            .min()
            .unwrap_or(0),
    }
}

/// The drained log regrouped the way the offline DBA round sees its test
/// pool: scores and supervectors per duration, arrival order within each.
/// A record the vote log trimmed contributes its score rows and empty
/// supervectors, which no selection reads.
struct DurationPool {
    /// Records regrouped.
    len: usize,
    /// `[duration][subsystem]`: one OvR row per record, arrival order.
    scores: Vec<Vec<ScoreMatrix>>,
    /// `[subsystem][duration][utt]`, aligned with `scores` row order —
    /// exactly the `test_svs` shape [`build_tr_dba`] consumes.
    svs: Vec<Vec<Vec<lre_vsm::SparseVec>>>,
}

impl DurationPool {
    /// Regroup `records`, moving their supervectors. Records that disagree
    /// with the bundle's subsystem count, or with the first record's class
    /// count, are refused: they come off the wire.
    fn build(
        records: Vec<VoteRecord>,
        num_subsystems: usize,
    ) -> Result<DurationPool, ArtifactError> {
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
        let len = records.len();
        for rec in records {
            if rec.subsystem_scores.len() != num_subsystems
                || rec.supervectors.len() != num_subsystems
            {
                return Err(ArtifactError::Corrupt("vote record subsystem count"));
            }
            if rec
                .subsystem_scores
                .iter()
                .any(|row| row.len() != num_classes)
            {
                return Err(ArtifactError::Corrupt("vote record class count"));
            }
            let di = rec.duration_index;
            if di >= num_durations {
                return Err(ArtifactError::Corrupt("vote record duration index"));
            }
            let per_subsystem = rec.subsystem_scores.iter().zip(rec.supervectors);
            for (q, (row, sv)) in per_subsystem.enumerate() {
                scores[di][q].push_row(row);
                svs[q][di].push(sv);
            }
        }
        Ok(DurationPool { len, scores, svs })
    }

    /// Each record's winning vote count `c_jk` (Eq. 12), duration-major.
    fn winning_votes(&self) -> Vec<u8> {
        self.score_refs()
            .iter()
            .flat_map(|refs| {
                let votes = vote_matrix(refs);
                (0..votes.num_utts()).map(move |j| votes.winner(j).1)
            })
            .collect()
    }

    fn score_refs(&self) -> Vec<Vec<&ScoreMatrix>> {
        self.scores
            .iter()
            .map(|per_dur| per_dur.iter().collect())
            .collect()
    }
}
