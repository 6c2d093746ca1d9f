//! The replica half of a two-phase rollout, and the seam every adaptation
//! coordinator drives.
//!
//! One replica promotes a candidate with one atomic [`ScorerHandle::swap`].
//! A fleet cannot: N independent swaps leave a window where clients see
//! scores from two model generations depending on which replica their
//! request lands on. The coordinator (`lre_adapt::AdaptController`) closes
//! that window with a two-phase protocol, and [`FleetControl`] is the
//! replica's side of it — in process ([`FleetReplica`]) or over TCP (the
//! router's `Backend`):
//!
//! 1. **Stage** ([`FleetControl::stage`]): decode and fully validate the
//!    sealed candidate bundle, build the scorer, hold it *unserved*.
//!    Replying OK is a promise that a later commit cannot fail on decode —
//!    every failure mode that can be checked has been; bytes that do not
//!    decode (an older bundle format included) are refused
//!    [`STATUS_CONFLICT`] with the serving scorer untouched.
//! 2. **Commit** ([`FleetControl::commit`]): one atomic swap of the staged
//!    scorer into the serving handle. Refused [`STATUS_CONFLICT`] when
//!    nothing is staged — a commit can only follow its stage.
//! 3. **Abort** ([`FleetControl::abort`]): discard the staged candidate
//!    without serving it. Idempotent; this is the coordinator's path when
//!    *another* replica failed to stage.
//! 4. **Rollback** ([`FleetControl::rollback`]): reinstall the exact
//!    [`VersionedScorer`] displaced by the last commit (one-deep, under a
//!    fresh generation) — the coordinator's path when a *later* replica
//!    failed to commit, restoring the fleet to one generation again.
//!
//! The vote-log drain ([`FleetControl::drain_votes`]) rides the same
//! trait: the coordinator peeks every replica's buffered count, and only
//! when the sum clears the adaptation floor drains them all — keeping the
//! all-or-nothing property of [`VoteLog::drain_at_least`] meaningful at
//! fleet scope. The seam hands over [`VoteRecord`]s; only the wire seals
//! them ([`DrainReply::seal`] in the server, [`DrainReply::unseal`] in
//! the router).

use crate::bundle::SystemBundle;
use crate::protocol::{AbortAck, CommitAck, DrainReply, RollbackAck, StageAck, STATUS_CONFLICT};
use crate::swap::{ScorerHandle, VersionedScorer};
use crate::system::{Scorer, ScoringSystem};
use crate::votelog::{VoteLog, VoteLogSnapshot, VoteRecord};
use lre_artifact::{bundle_checksum, ArtifactRead, ArtifactWrite};
use lre_obs::{FlightRecorder, EV_ROLLBACK, EV_SWAP};
use std::sync::{Arc, Mutex};

/// One replica as an adaptation coordinator drives it, and the server's
/// hook for the fleet-rollout request tags
/// ([`crate::protocol::REQ_DRAIN_VOTES`] through
/// [`crate::protocol::REQ_ROLLBACK`]). Refusals are protocol status bytes
/// so the connection handler can encode them directly. Implemented by
/// [`FleetReplica`] and by the router's `Backend`; servers started
/// without a fleet hook refuse all five tags `STATUS_UNSUPPORTED`.
pub trait FleetControl: Send + Sync + 'static {
    /// Peek at (or all-or-nothing drain) the replica's vote log: `Ok` with
    /// the records taken, or `Err(buffered)` when nothing was taken —
    /// always on a peek, and on a drain below the `min` floor.
    fn drain_votes(&self, peek: bool, min: u32) -> Result<Vec<VoteRecord>, u32>;
    /// Validate and hold a sealed candidate bundle.
    fn stage(&self, sealed: &[u8]) -> Result<StageAck, u8>;
    /// Atomically swap the staged bundle into serving.
    fn commit(&self) -> Result<CommitAck, u8>;
    /// Discard the staged bundle; reports whether one existed.
    fn abort(&self) -> AbortAck;
    /// Reinstall the model displaced by the last commit, if there is one.
    fn rollback(&self) -> RollbackAck;
    /// The generation the replica serves.
    fn generation(&self) -> u64;
    /// Whether a coordinator should include the replica in a round.
    fn is_healthy(&self) -> bool {
        true
    }
}

impl DrainReply {
    /// A [`FleetControl::drain_votes`] result in its wire form: the records
    /// taken travel as one sealed `VLOG` snapshot (whose `dropped` count is
    /// 0 — a drain hands over records, not the log's counters).
    pub fn seal(drain: Result<Vec<VoteRecord>, u32>) -> DrainReply {
        match drain {
            Ok(records) => DrainReply {
                buffered: records.len() as u32,
                sealed: Some(
                    VoteLogSnapshot {
                        records,
                        dropped: 0,
                    }
                    .to_artifact_bytes(),
                ),
            },
            Err(buffered) => DrainReply {
                buffered,
                sealed: None,
            },
        }
    }

    /// [`DrainReply::seal`] reversed. A snapshot that does not unseal
    /// reads as nothing taken.
    pub fn unseal(self) -> Result<Vec<VoteRecord>, u32> {
        match self.sealed {
            Some(bytes) => VoteLogSnapshot::from_artifact_bytes(&bytes)
                .map(|snap| snap.records)
                .map_err(|_| 0),
            None => Err(self.buffered),
        }
    }
}

/// A fully validated candidate, held between stage and commit.
struct Staged {
    checksum: u32,
    scorer: Arc<dyn Scorer>,
}

struct ReplicaState {
    staged: Option<Staged>,
    /// The model displaced by the last commit, retained for one-deep
    /// rollback. Cleared by a rollback (one-deep means exactly one).
    previous: Option<Arc<VersionedScorer>>,
}

/// The stage-time validation seam: sealed bytes to a ready scorer, or a
/// refusal status. Boxed so the state machine is testable without building
/// a real trained bundle.
type StageValidator = dyn Fn(&[u8]) -> Result<Arc<dyn Scorer>, u8> + Send + Sync;

/// The production validator: full seal + decode + scorer construction.
fn decode_stage(sealed: &[u8]) -> Result<Arc<dyn Scorer>, u8> {
    let bundle = SystemBundle::from_artifact_bytes(sealed).map_err(|_| STATUS_CONFLICT)?;
    let system = ScoringSystem::from_bundle(bundle).map_err(|_| STATUS_CONFLICT)?;
    Ok(Arc::new(system))
}

/// The standard [`FleetControl`] implementation: a staged two-phase state
/// machine over the serving [`ScorerHandle`] and the engine's [`VoteLog`].
pub struct FleetReplica {
    handle: Arc<ScorerHandle>,
    log: Arc<VoteLog>,
    validate: Box<StageValidator>,
    state: Mutex<ReplicaState>,
    /// Commits and rollbacks leave events here (`a` = resulting
    /// generation, `b` = bundle checksum).
    flight: Arc<FlightRecorder>,
}

impl FleetReplica {
    /// Wire a replica controller to the handle it swaps, the vote log it
    /// drains (durable or scratch: a drain clears the log's WAL either
    /// way) and the flight recorder its commits and rollbacks go to.
    pub fn new(
        handle: Arc<ScorerHandle>,
        log: Arc<VoteLog>,
        flight: Arc<FlightRecorder>,
    ) -> FleetReplica {
        FleetReplica {
            handle,
            log,
            validate: Box::new(decode_stage),
            state: Mutex::new(ReplicaState {
                staged: None,
                previous: None,
            }),
            flight,
        }
    }

    /// Replace the stage-time validator. Testing seam: integration tests
    /// stand up whole fleets around sealed candidates cheap enough to
    /// build in-process, while production replicas keep the full
    /// decode-and-construct validator installed by [`FleetReplica::new`].
    pub fn set_validator(
        &mut self,
        validate: impl Fn(&[u8]) -> Result<Arc<dyn Scorer>, u8> + Send + Sync + 'static,
    ) {
        self.validate = Box::new(validate);
    }
}

impl FleetControl for FleetReplica {
    fn drain_votes(&self, peek: bool, min: u32) -> Result<Vec<VoteRecord>, u32> {
        if peek {
            return Err(self.log.len() as u32);
        }
        self.log
            .drain_at_least(min as usize)
            .map_err(|buffered| buffered as u32)
    }

    fn stage(&self, sealed: &[u8]) -> Result<StageAck, u8> {
        // Validate everything a commit would need *now*: seal integrity,
        // full decode, scorer construction. After `Ok`, commit is a pure
        // pointer swap that cannot fail.
        let scorer = (self.validate)(sealed)?;
        let checksum = bundle_checksum(sealed);
        let mut state = self.state.lock().expect("rollout state poisoned");
        // Re-staging replaces a pending candidate; the coordinator aborts
        // explicitly, but a crashed coordinator must not wedge the replica.
        state.staged = Some(Staged { checksum, scorer });
        Ok(StageAck { checksum })
    }

    fn commit(&self) -> Result<CommitAck, u8> {
        let mut state = self.state.lock().expect("rollout state poisoned");
        let staged = state.staged.take().ok_or(STATUS_CONFLICT)?;
        let displaced = self.handle.current();
        let generation = self.handle.swap(staged.scorer, staged.checksum);
        state.previous = Some(displaced);
        self.flight.record(
            EV_SWAP,
            "fleet commit",
            generation,
            u64::from(staged.checksum),
            0.0,
            0.0,
        );
        Ok(CommitAck {
            generation,
            checksum: staged.checksum,
        })
    }

    fn abort(&self) -> AbortAck {
        let mut state = self.state.lock().expect("rollout state poisoned");
        AbortAck {
            had_staged: state.staged.take().is_some(),
        }
    }

    fn rollback(&self) -> RollbackAck {
        let mut state = self.state.lock().expect("rollout state poisoned");
        match state.previous.take() {
            Some(parent) => {
                let generation = self.handle.rollback_to(&parent);
                self.flight
                    .record(EV_ROLLBACK, "fleet rollback", generation, 0, 0.0, 0.0);
                RollbackAck {
                    rolled: true,
                    generation,
                }
            }
            None => RollbackAck {
                rolled: false,
                generation: self.handle.generation(),
            },
        }
    }

    fn generation(&self) -> u64 {
        self.handle.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ScoreDetail, ScoreTap};
    use crate::votelog::{vote_wal_options, DrainPath};
    use lre_artifact::{ArtifactError, ArtifactRead};
    use lre_lattice::DecodeScratch;
    use lre_obs::Registry;
    use lre_vsm::SparseVec;

    struct Marker(f32);
    impl Scorer for Marker {
        fn score_utt(&self, samples: &[f32], _scratch: &mut DecodeScratch) -> ScoreDetail {
            ScoreDetail::from_fused(samples, vec![self.0])
        }
    }

    /// Sealed candidates a real trained bundle is too expensive to build
    /// for unit tests; the mock validator accepts exactly the bytes
    /// [`candidate`] produces (real decode is covered by the CI fleet
    /// smoke and the `--ignored` integration tests).
    fn mock_validate(sealed: &[u8]) -> Result<Arc<dyn Scorer>, u8> {
        match lre_artifact::open(sealed, *b"MOCK", 1) {
            Ok([v]) => Ok(Arc::new(Marker(f32::from(*v)))),
            _ => Err(STATUS_CONFLICT),
        }
    }

    /// A one-byte sealed container: candidates differ in their payload
    /// byte, so their checksums differ too.
    fn candidate(v: u8) -> Vec<u8> {
        lre_artifact::seal(*b"MOCK", 1, &[v])
    }

    fn scratch_log() -> Arc<VoteLog> {
        let log = VoteLog::new(
            8,
            DrainPath::InProcess,
            vote_wal_options(),
            &Registry::new(),
        );
        Arc::new(log.expect("scratch vote WAL opens"))
    }

    fn replica() -> FleetReplica {
        let mut rep = FleetReplica::new(
            Arc::new(ScorerHandle::new(Arc::new(Marker(0.0)), 0xAAAA)),
            scratch_log(),
            Arc::new(FlightRecorder::new(8)),
        );
        rep.validate = Box::new(mock_validate);
        rep
    }

    #[test]
    fn stage_commit_swaps_exactly_once() {
        let rep = replica();
        let sealed = candidate(7);
        let ck = rep.stage(&sealed).expect("stage validates").checksum;
        assert_eq!(ck, bundle_checksum(&sealed));
        assert_ne!(
            ck,
            bundle_checksum(&candidate(6)),
            "the ack names the bytes"
        );
        // Nothing served yet: staging must not disturb the handle.
        assert_eq!(rep.handle.generation(), 0);
        assert_eq!(rep.handle.checksum(), 0xAAAA);
        let committed = rep.commit().expect("commit succeeds");
        assert_eq!(committed.generation, 1);
        assert_eq!(committed.checksum, ck);
        assert_eq!(rep.handle.checksum(), ck);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            rep.handle
                .current()
                .scorer
                .score_utt(&[], &mut scratch)
                .fused,
            vec![7.0]
        );
        // The staged slot is consumed: a second commit is a conflict.
        assert_eq!(rep.commit(), Err(STATUS_CONFLICT));
    }

    #[test]
    fn commit_without_stage_is_a_conflict() {
        let rep = replica();
        assert_eq!(rep.commit(), Err(STATUS_CONFLICT));
        assert_eq!(rep.handle.generation(), 0);
    }

    #[test]
    fn stage_of_garbage_is_refused_and_holds_nothing() {
        let rep = replica();
        assert_eq!(rep.stage(b"not a bundle"), Err(STATUS_CONFLICT));
        assert!(!rep.abort().had_staged); // nothing was held
        assert_eq!(rep.commit(), Err(STATUS_CONFLICT));
        assert_eq!(rep.handle.generation(), 0);
    }

    #[test]
    fn real_validator_refuses_garbage() {
        // The production decode path on undecodable bytes: a typed
        // refusal, not a panic. (Valid-bundle staging is exercised by the
        // CI fleet smoke against real trained bundles.)
        assert_eq!(
            decode_stage(b"definitely not a sealed bundle").err(),
            Some(STATUS_CONFLICT)
        );
        assert_eq!(decode_stage(&[]).err(), Some(STATUS_CONFLICT));
    }

    /// A sealed bundle in the previous container format (v5: one more byte
    /// after the lineage) is refused by its version, typed, not parsed at
    /// shifted offsets; staging it through the production validator leaves
    /// the replica holding nothing and serving what it served.
    #[test]
    fn previous_format_bundle_is_refused_typed_and_never_staged() {
        let mut w = lre_artifact::ArtifactWriter::new();
        w.put_u64(7); // seed
        w.put_str("smoke");
        w.put_u32(2); // max_order
        lre_svm::SvmTrainConfig::default().write_payload(&mut w);
        w.put_bytes(&[0; 17]); // root lineage: u64 · u32 · u32 · u8
        w.put_u8(0); // the byte version 6 dropped
        w.put_u32(0); // fusions
        w.put_u32(0); // subsystems
        w.put_u64_slice(&[0]);
        let v5 = lre_artifact::seal(SystemBundle::KIND, 5, &w.into_bytes());
        assert!(matches!(
            SystemBundle::from_artifact_bytes(&v5),
            Err(ArtifactError::UnsupportedVersion {
                expected: 6,
                found: 5
            })
        ));

        let rep = FleetReplica::new(
            Arc::new(ScorerHandle::new(Arc::new(Marker(0.0)), 0xAAAA)),
            scratch_log(),
            Arc::new(FlightRecorder::new(8)),
        );
        assert_eq!(rep.stage(&v5), Err(STATUS_CONFLICT));
        assert!(!rep.abort().had_staged);
        assert_eq!(rep.handle.generation(), 0);
        assert_eq!(rep.handle.checksum(), 0xAAAA);
    }

    #[test]
    fn abort_discards_and_is_idempotent() {
        let rep = replica();
        rep.stage(&candidate(1)).unwrap();
        assert!(rep.abort().had_staged);
        assert!(!rep.abort().had_staged);
        assert_eq!(rep.commit(), Err(STATUS_CONFLICT));
        assert_eq!(rep.handle.generation(), 0);
    }

    #[test]
    fn restage_replaces_the_pending_candidate() {
        let rep = replica();
        let first = rep.stage(&candidate(1)).unwrap();
        let staged = rep.stage(&candidate(2)).unwrap();
        assert_ne!(first.checksum, staged.checksum);
        assert_eq!(rep.commit().unwrap().checksum, staged.checksum);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            rep.handle
                .current()
                .scorer
                .score_utt(&[], &mut scratch)
                .fused,
            vec![2.0]
        );
    }

    #[test]
    fn rollback_restores_the_displaced_model_bit_identically() {
        let rep = replica();
        let parent = rep.handle.current();
        rep.stage(&candidate(1)).unwrap();
        rep.commit().unwrap();
        let ack = rep.rollback();
        assert!(ack.rolled);
        assert_eq!(ack.generation, 2); // monotonic, never back to 0
        assert_eq!(rep.handle.checksum(), 0xAAAA);
        assert!(Arc::ptr_eq(&rep.handle.current().scorer, &parent.scorer));
        // One-deep: a second rollback has nothing to restore.
        let ack = rep.rollback();
        assert!(!ack.rolled);
        assert_eq!(ack.generation, 2);
    }

    #[test]
    fn drain_peek_leaves_the_log_and_floor_is_all_or_nothing() {
        let rep = replica();
        let detail = |digest: u64| ScoreDetail {
            digest,
            num_frames: 75,
            duration_index: 0,
            generation: 0,
            fused: vec![1.0, -1.0],
            subsystem_scores: vec![vec![1.0, -1.0]],
            supervectors: vec![SparseVec::from_pairs(vec![(0, 1.0)])],
            stage_us: Default::default(),
            stage_done: None,
        };
        rep.log.record(detail(1));
        rep.log.record(detail(2));

        assert_eq!(rep.drain_votes(true, 0).err(), Some(2));
        assert_eq!(rep.log.len(), 2);

        // Below the floor: untouched, on the seam and on the wire.
        assert_eq!(rep.drain_votes(false, 5).err(), Some(2));
        let refused = DrainReply::seal(rep.drain_votes(false, 5));
        assert_eq!((refused.buffered, refused.sealed.is_some()), (2, false));
        assert_eq!(rep.log.len(), 2);

        // At the floor: everything comes out, and survives the wire's
        // seal / unseal round trip record for record.
        let drained = DrainReply::seal(rep.drain_votes(false, 2));
        assert_eq!(drained.buffered, 2);
        let records = drained.unseal().expect("drained");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].digest, 1);
        assert!(rep.log.is_empty());
    }

    #[test]
    fn durable_drain_truncates_the_wal_with_the_buffer() {
        use std::time::Duration;

        let d = std::env::temp_dir().join(format!("lre_rollout_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let mut opts = vote_wal_options();
        opts.fsync_interval = Duration::ZERO;
        let flight = Arc::new(FlightRecorder::new(8));
        let (log, _) = VoteLog::open(
            &d,
            8,
            DrainPath::InProcess,
            opts,
            &Registry::new(),
            Arc::clone(&flight),
        )
        .unwrap();
        let log = Arc::new(log);
        let mut rep = FleetReplica::new(
            Arc::new(ScorerHandle::new(Arc::new(Marker(0.0)), 0xAAAA)),
            Arc::clone(&log),
            flight,
        );
        rep.validate = Box::new(mock_validate);

        let detail = |digest: u64| ScoreDetail {
            digest,
            num_frames: 75,
            duration_index: 0,
            generation: 0,
            fused: vec![1.0, -1.0],
            subsystem_scores: vec![vec![1.0, -1.0]],
            supervectors: vec![SparseVec::from_pairs(vec![(0, 1.0)])],
            stage_us: Default::default(),
            stage_done: None,
        };
        log.record(detail(1));
        log.record(detail(2));
        assert_eq!(log.wal_status().unwrap().buffered, 2);

        assert_eq!(rep.drain_votes(false, 2).map(|r| r.len()), Ok(2));
        assert!(rep.log.is_empty());
        assert_eq!(log.wal_status().unwrap().buffered, 0);
        std::fs::remove_dir_all(&d).ok();
    }
}
