//! Durable vote-log tee and the serving-side durability control seam.
//!
//! [`DurableVoteLog`] wraps the in-memory [`VoteLog`] with a
//! [`lre_wal::Wal`] so the buffered adaptation window survives a
//! crash: every record the buffer *admits* (and only those — dedup
//! rejects and overflow drops never touch disk) is teed into the WAL as
//! its own sealed `VREC` container, and a drain clears the WAL at the
//! same instant it empties the buffer. Both composite steps
//! hold one gate mutex, so WAL content and buffer content can never
//! disagree about which records are in the current window — which is
//! exactly the invariant that makes [`DurableVoteLog::open`]'s replay
//! rebuild the buffer to an identical drain result.
//!
//! [`DurabilityControl`] is the hook the TCP server dispatches the
//! `wal-status` and deep-rollback requests through. The full
//! implementation (with a generation-lineage store) lives in the
//! adaptation controller; [`WalOnlyDurability`] is the degenerate form a
//! fleet replica mounts — status yes, deep rollback refused.

use crate::protocol::{RollbackToAck, WalStatusInfo, STATUS_UNSUPPORTED};
use crate::system::{ScoreDetail, ScoreTap};
use crate::votelog::{VoteLog, VoteRecord};
use lre_artifact::{ArtifactError, ArtifactRead, ArtifactWrite};
use lre_wal::{LineageStore, Wal, WalObs, WalOptions, WalStatus};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// WAL options for a vote log: `VREC` v1 records, default fsync batching.
pub fn vote_wal_options() -> WalOptions {
    WalOptions::new(
        <VoteRecord as ArtifactWrite>::KIND,
        <VoteRecord as ArtifactWrite>::VERSION,
    )
}

/// What [`DurableVoteLog::open`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteRecovery {
    /// Records replayed from the WAL into the buffer.
    pub replayed: u64,
    /// Torn tail records the WAL skipped (0 or 1).
    pub torn: u64,
}

/// A [`VoteLog`] whose window is write-ahead logged.
pub struct DurableVoteLog {
    log: VoteLog,
    wal: Wal,
    /// Serializes the two composite operations (admit+append,
    /// drain+clear) so the WAL always holds exactly the buffered
    /// window.
    gate: Mutex<()>,
    /// WAL writes that failed after the buffer had already changed: an
    /// append of an admitted record, or the clear after a drain —
    /// durability degraded, not corrupted (the in-memory window is still
    /// right; a crash would lose those records like unsynced ones, or
    /// replay a window that was already drained).
    tee_errors: AtomicU64,
}

impl DurableVoteLog {
    /// Open the WAL at `dir` and rebuild the vote buffer from whatever
    /// survived, exactly as the original admissions built it (dedup
    /// state included).
    pub fn open(
        dir: &Path,
        capacity: usize,
        opts: WalOptions,
        obs: Option<WalObs>,
    ) -> Result<(DurableVoteLog, VoteRecovery), ArtifactError> {
        let (wal, replay) = Wal::open(dir, opts, obs)?;
        let log = VoteLog::new(capacity);
        let mut replayed = 0u64;
        for bytes in &replay.records {
            let rec = VoteRecord::from_artifact_bytes(bytes)?;
            if log.replay(rec) {
                replayed += 1;
            }
        }
        Ok((
            DurableVoteLog {
                log,
                wal,
                gate: Mutex::new(()),
                tee_errors: AtomicU64::new(0),
            },
            VoteRecovery {
                replayed,
                torn: replay.torn_tail_records,
            },
        ))
    }

    /// Drain the buffer (all-or-nothing, like [`VoteLog::drain_at_least`])
    /// and clear the WAL to match: the drained records are now the
    /// adaptation cycle's problem, not the crash-recovery window's.
    pub fn drain_at_least(&self, min: usize) -> Result<Vec<VoteRecord>, usize> {
        let _gate = self.gate.lock().expect("durability gate poisoned");
        let drained = self.log.drain_at_least(min)?;
        // Everything buffered was drained; everything in the WAL was
        // buffered (the gate's invariant) — so the whole log is spent.
        if self.wal.clear().is_err() {
            self.tee_errors.fetch_add(1, Ordering::Relaxed);
        }
        Ok(drained)
    }

    /// The in-memory buffer (reads only — admissions must go through the
    /// tap so they hit the WAL).
    pub fn log(&self) -> &VoteLog {
        &self.log
    }

    /// The underlying WAL (status, sync).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Admitted appends that never reached the WAL, plus drains whose
    /// clear failed.
    pub fn tee_errors(&self) -> u64 {
        self.tee_errors.load(Ordering::Relaxed)
    }
}

impl ScoreTap for DurableVoteLog {
    fn record(&self, detail: ScoreDetail) {
        let _gate = self.gate.lock().expect("durability gate poisoned");
        if let Some(rec) = self.log.admit(detail) {
            if self.wal.append(&rec.to_artifact_bytes()).is_err() {
                self.tee_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Build the status-RPC view from a WAL summary plus (optionally) the
/// lineage chain. A present `LineageStore` validated its chain on open
/// and on every append, so `chain_ok` is true whenever one is mounted;
/// a wal-only replica reports it vacuously true.
pub fn wal_status_info(wal: &WalStatus, lineage: Option<&LineageStore>) -> WalStatusInfo {
    let mut info = WalStatusInfo {
        appended: wal.next_seq,
        low_water: wal.low_water,
        buffered: wal.buffered,
        // One file, present in this count while it holds records.
        segments: u64::from(wal.buffered > 0),
        replayed: wal.replayed,
        torn: wal.torn,
        fsyncs: wal.fsyncs,
        chain_ok: true,
        ..WalStatusInfo::default()
    };
    if let Some(store) = lineage {
        info.lineage_head = store.head().map(|e| e.generation).unwrap_or(0);
        info.lineage_entries = store.entries().len() as u32;
        info.lineage_retained = store.retained() as u32;
        info.lineage_bytes = store.retained_bytes();
    }
    info
}

/// The server's durability hook: answers `wal-status`, executes (or
/// refuses) a deep rollback. Implemented by the adaptation controller
/// (full form) and by [`WalOnlyDurability`] (fleet replicas).
pub trait DurabilityControl: Send + Sync {
    /// Point-in-time WAL + lineage summary.
    fn wal_status(&self) -> WalStatusInfo;

    /// Restore generation `generation` from the lineage store and swap it
    /// into serving, or refuse with a protocol status byte.
    fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8>;
}

/// Status-only durability for replicas that tee votes to a WAL but hold
/// no generation lineage (the router's store decides fleet rollbacks).
pub struct WalOnlyDurability {
    log: Arc<DurableVoteLog>,
}

impl WalOnlyDurability {
    pub fn new(log: Arc<DurableVoteLog>) -> WalOnlyDurability {
        WalOnlyDurability { log }
    }
}

impl DurabilityControl for WalOnlyDurability {
    fn wal_status(&self) -> WalStatusInfo {
        wal_status_info(&self.log.wal().status(), None)
    }

    fn rollback_to(&self, _generation: u64) -> Result<RollbackToAck, u8> {
        Err(STATUS_UNSUPPORTED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_vsm::SparseVec;
    use std::path::PathBuf;
    use std::time::Duration;

    fn detail(digest: u64, v: f32) -> ScoreDetail {
        ScoreDetail {
            digest,
            num_frames: 75,
            duration_index: 1,
            generation: 1,
            fused: vec![v, -v, 0.5 * v],
            subsystem_scores: vec![vec![v, -v, 0.0], vec![-v, v, 0.25]],
            supervectors: vec![
                SparseVec::from_pairs(vec![(0, v)]),
                SparseVec::from_pairs(vec![(1, -v), (7, 2.0 * v)]),
            ],
            stage_us: Default::default(),
            stage_done: None,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lre_durability_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn opts() -> WalOptions {
        let mut o = vote_wal_options();
        o.fsync_interval = Duration::ZERO; // deterministic tests
        o
    }

    #[test]
    fn tee_then_reopen_rebuilds_an_identical_window() {
        let d = tmpdir("tee");
        {
            let (log, rec) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
            assert_eq!(rec, VoteRecovery::default());
            log.record(detail(1, 1.0));
            log.record(detail(1, 1.0)); // dup: buffer refuses, WAL untouched
            log.record(detail(2, 2.0));
            assert_eq!(log.log().len(), 2);
            assert_eq!(log.wal().status().buffered, 2);
            assert_eq!(log.tee_errors(), 0);
        }
        let (log, rec) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.torn, 0);
        // Dedup state came back: the digests are still hot.
        log.record(detail(2, 2.0));
        assert_eq!(log.log().deduped(), 1);
        let drained = log.drain_at_least(2).unwrap();
        assert_eq!(drained.len(), 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&drained[0].fused), bits(&detail(1, 1.0).fused));
        assert_eq!(bits(&drained[1].fused), bits(&detail(2, 2.0).fused));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn drain_clears_the_wal_so_restart_starts_empty() {
        let d = tmpdir("drain");
        {
            let (log, _) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
            log.record(detail(1, 1.0));
            log.record(detail(2, 2.0));
            assert!(matches!(log.drain_at_least(3), Err(2))); // refused: WAL untouched
            assert_eq!(log.wal().status().buffered, 2);
            let drained = log.drain_at_least(2).unwrap();
            assert_eq!(drained.len(), 2);
            assert_eq!(log.wal().status().buffered, 0);
            // Post-drain records land above the new low-water mark.
            log.record(detail(3, 3.0));
        }
        let (log, rec) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(log.drain_at_least(1).unwrap()[0].digest, 3);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_failed_clear_is_counted_not_dropped() {
        let d = tmpdir("clearfail");
        let (log, _) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
        log.record(detail(1, 1.0));
        // The log directory turns into a plain file: the drain's
        // write-and-rename has nowhere to land.
        std::fs::remove_dir_all(&d).unwrap();
        std::fs::write(&d, b"").unwrap();
        assert_eq!(log.drain_at_least(1).unwrap().len(), 1);
        assert_eq!(log.tee_errors(), 1);
        // The WAL still says what is on disk: the window was not cleared.
        assert_eq!(log.wal().status().buffered, 1);
        std::fs::remove_file(&d).ok();
    }

    #[test]
    fn wal_only_durability_reports_status_and_refuses_deep_rollback() {
        let d = tmpdir("walonly");
        let (log, _) = DurableVoteLog::open(&d, 8, opts(), None).unwrap();
        log.record(detail(1, 1.0));
        let ctl = WalOnlyDurability::new(Arc::new(log));
        let info = ctl.wal_status();
        assert_eq!(info.appended, 1);
        assert_eq!(info.buffered, 1);
        assert!(info.chain_ok);
        assert_eq!(info.lineage_entries, 0);
        assert_eq!(ctl.rollback_to(0), Err(STATUS_UNSUPPORTED));
        std::fs::remove_dir_all(&d).ok();
    }
}
