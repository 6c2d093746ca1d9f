//! The serving-side durability control seam.
//!
//! [`DurabilityControl`] is the hook the TCP server dispatches the
//! `wal-status` and deep-rollback requests through. The full
//! implementation (with a generation-lineage store) lives in the
//! adaptation controller; a [`VoteLog`] opened on a WAL is itself the
//! degenerate form a fleet replica mounts — status yes, deep rollback
//! refused (the router's store decides fleet rollbacks).

use crate::protocol::{RollbackToAck, WalStatusInfo, STATUS_UNSUPPORTED};
use crate::votelog::VoteLog;
use lre_wal::{LineageStore, WalStatus};

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
/// (full form) and by [`VoteLog`] (fleet replicas).
pub trait DurabilityControl: Send + Sync {
    /// Point-in-time WAL + lineage summary.
    fn wal_status(&self) -> WalStatusInfo;

    /// Restore generation `generation` from the lineage store and swap it
    /// into serving, or refuse with a protocol status byte.
    fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8>;
}

/// Status-only durability for replicas that tee votes to a WAL but hold
/// no generation lineage. (An in-memory log reports the zeroed status;
/// the serving binary mounts this hook only over a WAL.)
impl DurabilityControl for VoteLog {
    fn wal_status(&self) -> WalStatusInfo {
        wal_status_info(&VoteLog::wal_status(self).unwrap_or_default(), None)
    }

    fn rollback_to(&self, _generation: u64) -> Result<RollbackToAck, u8> {
        Err(STATUS_UNSUPPORTED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ScoreDetail, ScoreTap};
    use crate::votelog::vote_wal_options;
    use lre_vsm::SparseVec;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wal_only_durability_reports_status_and_refuses_deep_rollback() {
        let d = std::env::temp_dir().join(format!("lre_durability_walonly_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let mut opts = vote_wal_options();
        opts.fsync_interval = Duration::ZERO; // deterministic tests
        let (log, _) = VoteLog::open(&d, 8, opts, None).unwrap();
        log.record(ScoreDetail {
            digest: 1,
            num_frames: 75,
            duration_index: 1,
            generation: 1,
            fused: vec![1.0, -1.0, 0.5],
            subsystem_scores: vec![vec![1.0, -1.0, 0.0]],
            supervectors: vec![SparseVec::from_pairs(vec![(0, 1.0)])],
            stage_us: Default::default(),
            stage_done: None,
        });
        let ctl: Arc<dyn DurabilityControl> = Arc::new(log);
        let info = ctl.wal_status();
        assert_eq!(info.appended, 1);
        assert_eq!(info.buffered, 1);
        assert!(info.chain_ok);
        assert_eq!(info.lineage_entries, 0);
        assert_eq!(ctl.rollback_to(0), Err(STATUS_UNSUPPORTED));
        std::fs::remove_dir_all(&d).ok();
    }
}
