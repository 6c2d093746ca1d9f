//! The vote log: a bounded, deduplicating buffer of everything the online
//! DBA loop needs from each served utterance — the *vote window* one
//! adaptation cycle drains.
//!
//! The serving engine tees one [`VoteRecord`] per successfully scored
//! utterance into a [`VoteLog`] (via the [`ScoreTap`] seam), holding the
//! per-subsystem OvR score rows — the Eq. 13 vote inputs — and the
//! TFLLR-scaled supervectors the boosting retrain consumes. The buffer is
//! bounded (overflow drops the newest record and counts it) and keyed by
//! the utterance content digest, so a replayed utterance never inflates
//! the pseudo-label pool within one adaptation window.
//!
//! A log opened on a directory ([`VoteLog::open`]) keeps its window in a
//! [`lre_wal::Wal`] as well, so it survives a crash: every record the
//! buffer *admits* (and only those — dedup rejects and overflow drops never
//! touch disk) is appended as its own sealed `VREC` container, and a drain
//! clears the WAL as it empties the buffer. Both happen under the log's one
//! mutex, so the WAL holds exactly the buffered window — which is what
//! lets a restart's replay rebuild the buffer, dedup state included, to an
//! identical drain result. A WAL write that fails degrades durability
//! (counted in [`lre_wal::WalStatus::write_errors`]), never the window.
//!
//! A drained (or in-flight) log can be frozen as a [`VoteLogSnapshot`] —
//! a sealed, CRC-framed `lre-artifact` container (kind `VLOG`, records as
//! nested `VREC` artifacts) — for audit or offline replay of an
//! adaptation decision.

use crate::system::{ScoreDetail, ScoreTap};
use lre_artifact::{ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter};
use lre_vsm::SparseVec;
use lre_wal::{Wal, WalObs, WalOptions, WalStatus};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

/// Everything one served utterance contributes to an adaptation cycle.
#[derive(Clone, Debug)]
pub struct VoteRecord {
    /// Content digest of the raw samples (see `lre_serve::sample_digest`).
    pub digest: u64,
    /// Frame count (duration-routing provenance).
    pub num_frames: u32,
    /// Index into `Duration::all()` the fusion routing picked.
    pub duration_index: usize,
    /// Model generation that scored the utterance.
    pub generation: u64,
    /// Fused per-language LLRs, exactly as replied to the client.
    pub fused: Vec<f32>,
    /// Per-subsystem OvR score rows (`[subsystem][class]`) — Eq. 13 inputs.
    pub subsystem_scores: Vec<Vec<f32>>,
    /// Per-subsystem TFLLR-scaled supervectors — retraining features.
    pub supervectors: Vec<SparseVec>,
}

impl From<ScoreDetail> for VoteRecord {
    fn from(d: ScoreDetail) -> VoteRecord {
        VoteRecord {
            digest: d.digest,
            num_frames: d.num_frames,
            duration_index: d.duration_index,
            generation: d.generation,
            fused: d.fused,
            subsystem_scores: d.subsystem_scores,
            supervectors: d.supervectors,
        }
    }
}

impl ArtifactWrite for VoteRecord {
    const KIND: [u8; 4] = *b"VREC";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_u64(self.digest);
        w.put_u32(self.num_frames);
        w.put_u8(self.duration_index as u8);
        w.put_u64(self.generation);
        w.put_f32_slice(&self.fused);
        w.put_u32(self.subsystem_scores.len() as u32);
        for row in &self.subsystem_scores {
            w.put_f32_slice(row);
        }
        for sv in &self.supervectors {
            sv.write_nested(w);
        }
    }
}

impl ArtifactRead for VoteRecord {
    fn read_payload(r: &mut ArtifactReader) -> Result<VoteRecord, ArtifactError> {
        let digest = r.get_u64()?;
        let num_frames = r.get_u32()?;
        let duration_index = r.get_u8()? as usize;
        let generation = r.get_u64()?;
        let fused = r.get_f32_slice()?;
        let nq = r.get_u32()? as usize;
        let subsystem_scores: Vec<Vec<f32>> = (0..nq)
            .map(|_| r.get_f32_slice())
            .collect::<Result<_, _>>()?;
        let supervectors: Vec<SparseVec> = (0..nq)
            .map(|_| SparseVec::read_nested(r))
            .collect::<Result<_, _>>()?;
        if subsystem_scores.iter().any(|row| row.len() != fused.len()) {
            return Err(ArtifactError::Corrupt("vote record class counts disagree"));
        }
        Ok(VoteRecord {
            digest,
            num_frames,
            duration_index,
            generation,
            fused,
            subsystem_scores,
            supervectors,
        })
    }
}

struct LogState {
    records: Vec<VoteRecord>,
    /// Digests currently buffered — the within-window dedup key. Cleared on
    /// drain: an utterance replayed *after* a cycle consumed it is new
    /// evidence (possibly under a new model) and is recorded again.
    seen: HashSet<u64>,
    dropped: u64,
    deduped: u64,
}

/// WAL options for a vote log: `VREC` v1 records, default fsync batching.
pub fn vote_wal_options() -> WalOptions {
    WalOptions::new(
        <VoteRecord as ArtifactWrite>::KIND,
        <VoteRecord as ArtifactWrite>::VERSION,
    )
}

/// What [`VoteLog::open`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteRecovery {
    /// Records replayed from the WAL into the buffer.
    pub replayed: u64,
    /// Torn tail records the WAL skipped (0 or 1).
    pub torn: u64,
}

/// The bounded, deduplicating vote-record buffer the engine taps into.
pub struct VoteLog {
    state: Mutex<LogState>,
    capacity: usize,
    /// Written only with `state` held, so it always holds exactly
    /// `state.records`.
    wal: Option<Wal>,
}

impl VoteLog {
    /// An empty in-memory log admitting at most `capacity` buffered
    /// records (overflow drops the newest record and counts it in
    /// [`VoteLog::dropped`]).
    pub fn new(capacity: usize) -> VoteLog {
        VoteLog {
            state: Mutex::new(LogState {
                records: Vec::new(),
                seen: HashSet::new(),
                dropped: 0,
                deduped: 0,
            }),
            capacity: capacity.max(1),
            wal: None,
        }
    }

    /// [`VoteLog::new`] over the WAL in directory `dir`: the buffer is
    /// rebuilt from whatever survived there, exactly as the original
    /// admissions built it (dedup state included), and from then on every
    /// admission and drain is written through.
    pub fn open(
        dir: &Path,
        capacity: usize,
        opts: WalOptions,
        obs: WalObs,
    ) -> Result<(VoteLog, VoteRecovery), ArtifactError> {
        let (wal, replay) = Wal::open(dir, opts, obs)?;
        let mut log = VoteLog::new(capacity);
        let mut replayed = 0u64;
        for bytes in &replay.records {
            if log.admit(VoteRecord::from_artifact_bytes(bytes)?) {
                replayed += 1;
            }
        }
        log.wal = Some(wal);
        Ok((
            log,
            VoteRecovery {
                replayed,
                torn: replay.torn_tail_records,
            },
        ))
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().expect("vote log poisoned").records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("vote log poisoned").dropped
    }

    /// Records skipped as within-window duplicates.
    pub fn deduped(&self) -> u64 {
        self.state.lock().expect("vote log poisoned").deduped
    }

    /// The WAL's point-in-time summary; `None` for an in-memory log.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.wal.as_ref().map(Wal::status)
    }

    /// Take every buffered record (arrival order) if at least `min` are
    /// buffered; otherwise leave the log untouched and report how many are.
    /// The check and the take are one critical section, so a cycle can
    /// never half-drain a log that a concurrent scorer is appending to —
    /// and the WAL is cleared inside it: the drained records are now the
    /// adaptation cycle's problem, not the crash-recovery window's.
    pub fn drain_at_least(&self, min: usize) -> Result<Vec<VoteRecord>, usize> {
        let mut s = self.state.lock().expect("vote log poisoned");
        if s.records.len() < min.max(1) {
            return Err(s.records.len());
        }
        s.seen.clear();
        if let Some(wal) = &self.wal {
            // A failed clear leaves a window on disk that a restart would
            // replay; the WAL counts it.
            let _ = wal.clear();
        }
        Ok(std::mem::take(&mut s.records))
    }

    /// Admit one record — a fresh score or a replayed one — and report
    /// whether it entered the buffer. Records without subsystem
    /// intermediates (mock scorers, [`ScoreDetail::from_fused`]) carry
    /// nothing to vote on or retrain from and never do; nor do
    /// within-window duplicates and overflow, which are counted.
    fn admit(&self, rec: VoteRecord) -> bool {
        if rec.supervectors.is_empty() {
            return false;
        }
        let mut s = self.state.lock().expect("vote log poisoned");
        if s.seen.contains(&rec.digest) {
            s.deduped += 1;
            return false;
        }
        if s.records.len() >= self.capacity {
            s.dropped += 1;
            return false;
        }
        if let Some(wal) = &self.wal {
            // A failed append leaves a record a crash would lose, like an
            // unsynced one; the WAL counts it.
            let _ = wal.append(&rec.to_artifact_bytes());
        }
        s.seen.insert(rec.digest);
        s.records.push(rec);
        true
    }

    /// Freeze the current buffer as a sealed snapshot (records cloned;
    /// the log keeps running).
    pub fn snapshot(&self) -> VoteLogSnapshot {
        let s = self.state.lock().expect("vote log poisoned");
        VoteLogSnapshot {
            records: s.records.clone(),
            dropped: s.dropped,
        }
    }
}

impl ScoreTap for VoteLog {
    fn record(&self, detail: ScoreDetail) {
        self.admit(VoteRecord::from(detail));
    }
}

/// A frozen vote log: the audit-trail artifact of an adaptation window.
pub struct VoteLogSnapshot {
    pub records: Vec<VoteRecord>,
    /// Overflow drops up to the freeze point.
    pub dropped: u64,
}

impl ArtifactWrite for VoteLogSnapshot {
    const KIND: [u8; 4] = *b"VLOG";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_u64(self.dropped);
        w.put_u32(self.records.len() as u32);
        for rec in &self.records {
            rec.write_nested(w);
        }
    }
}

impl ArtifactRead for VoteLogSnapshot {
    fn read_payload(r: &mut ArtifactReader) -> Result<VoteLogSnapshot, ArtifactError> {
        let dropped = r.get_u64()?;
        let n = r.get_u32()? as usize;
        let records: Vec<VoteRecord> = (0..n)
            .map(|_| VoteRecord::read_nested(r))
            .collect::<Result<_, _>>()?;
        Ok(VoteLogSnapshot { records, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_artifact::check_damage_detected;
    use lre_obs::{FlightRecorder, Registry};
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    fn detail(digest: u64, di: usize, v: f32) -> ScoreDetail {
        ScoreDetail {
            digest,
            num_frames: 75,
            duration_index: di,
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

    #[test]
    fn records_dedupe_and_bound() {
        let log = VoteLog::new(2);
        log.record(detail(1, 0, 1.0));
        log.record(detail(1, 0, 1.0)); // same digest: deduped
        log.record(detail(2, 1, 2.0));
        log.record(detail(3, 2, 3.0)); // over capacity: dropped
        assert_eq!(log.len(), 2);
        assert_eq!(log.deduped(), 1);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn mock_details_without_intermediates_are_ignored() {
        let log = VoteLog::new(8);
        let mut d = detail(9, 0, 1.0);
        d.supervectors = Vec::new();
        d.subsystem_scores = Vec::new();
        log.record(d);
        assert!(log.is_empty());
    }

    #[test]
    fn drain_is_all_or_nothing_and_resets_dedup() {
        let log = VoteLog::new(8);
        log.record(detail(1, 0, 1.0));
        assert!(matches!(log.drain_at_least(2), Err(1)));
        log.record(detail(2, 1, 2.0));
        let drained = log.drain_at_least(2).expect("enough records");
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].digest, 1); // arrival order
        assert!(log.is_empty());
        // Post-drain, the same digest is fresh evidence again.
        log.record(detail(1, 0, 1.5));
        assert_eq!(log.len(), 1);
        assert_eq!(log.deduped(), 0);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lre_votelog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn opts() -> WalOptions {
        let mut o = vote_wal_options();
        o.fsync_interval = Duration::ZERO; // deterministic tests
        o
    }

    fn wal_obs() -> WalObs {
        WalObs::new(&Registry::new(), Arc::new(FlightRecorder::new(8)))
    }

    fn on_disk(log: &VoteLog) -> WalStatus {
        log.wal_status().expect("opened on a directory")
    }

    #[test]
    fn tee_then_reopen_rebuilds_an_identical_window() {
        let d = tmpdir("tee");
        {
            let (log, rec) = VoteLog::open(&d, 8, opts(), wal_obs()).unwrap();
            assert_eq!(rec, VoteRecovery::default());
            log.record(detail(1, 1, 1.0));
            log.record(detail(1, 1, 1.0)); // dup: buffer refuses, WAL untouched
            log.record(detail(2, 1, 2.0));
            assert_eq!(log.len(), 2);
            assert_eq!(on_disk(&log).buffered, 2);
            assert_eq!(on_disk(&log).write_errors, 0);
        }
        let (log, rec) = VoteLog::open(&d, 8, opts(), wal_obs()).unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.torn, 0);
        // Dedup state came back: the digests are still hot.
        log.record(detail(2, 1, 2.0));
        assert_eq!(log.deduped(), 1);
        let drained = log.drain_at_least(2).unwrap();
        assert_eq!(drained.len(), 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&drained[0].fused), bits(&detail(1, 1, 1.0).fused));
        assert_eq!(bits(&drained[1].fused), bits(&detail(2, 1, 2.0).fused));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn drain_clears_the_wal_so_restart_starts_empty() {
        let d = tmpdir("drain");
        {
            let (log, _) = VoteLog::open(&d, 8, opts(), wal_obs()).unwrap();
            log.record(detail(1, 1, 1.0));
            log.record(detail(2, 1, 2.0));
            assert!(matches!(log.drain_at_least(3), Err(2))); // refused: WAL untouched
            assert_eq!(on_disk(&log).buffered, 2);
            let drained = log.drain_at_least(2).unwrap();
            assert_eq!(drained.len(), 2);
            assert_eq!(on_disk(&log).buffered, 0);
            // Post-drain records land above the new low-water mark.
            log.record(detail(3, 1, 3.0));
        }
        let (log, rec) = VoteLog::open(&d, 8, opts(), wal_obs()).unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(log.drain_at_least(1).unwrap()[0].digest, 3);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_failed_clear_is_counted_not_dropped() {
        let d = tmpdir("clearfail");
        let (log, _) = VoteLog::open(&d, 8, opts(), wal_obs()).unwrap();
        log.record(detail(1, 1, 1.0));
        // The log directory turns into a plain file: the drain's
        // write-and-rename has nowhere to land.
        std::fs::remove_dir_all(&d).unwrap();
        std::fs::write(&d, b"").unwrap();
        assert_eq!(log.drain_at_least(1).unwrap().len(), 1);
        assert_eq!(on_disk(&log).write_errors, 1);
        // The WAL still says what is on disk: the window was not cleared.
        assert_eq!(on_disk(&log).buffered, 1);
        std::fs::remove_file(&d).ok();
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let log = VoteLog::new(8);
        log.record(detail(11, 0, 0.125));
        log.record(detail(12, 2, -3.5));
        let snap = log.snapshot();
        let bytes = snap.to_artifact_bytes();
        let back = VoteLogSnapshot::from_artifact_bytes(&bytes).expect("snapshot reloads");
        assert_eq!(back.dropped, 0);
        assert_eq!(back.records.len(), 2);
        for (a, b) in back.records.iter().zip(&snap.records) {
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.duration_index, b.duration_index);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.fused), bits(&b.fused));
            for (ra, rb) in a.subsystem_scores.iter().zip(&b.subsystem_scores) {
                assert_eq!(bits(ra), bits(rb));
            }
            for (sa, sb) in a.supervectors.iter().zip(&b.supervectors) {
                let sv_bits =
                    |s: &SparseVec| s.iter().map(|(i, v)| (i, v.to_bits())).collect::<Vec<_>>();
                assert_eq!(sv_bits(sa), sv_bits(sb));
            }
        }
    }

    #[test]
    fn damage_is_detected() {
        let log = VoteLog::new(8);
        log.record(detail(11, 0, 0.125));
        let bytes = log.snapshot().to_artifact_bytes();
        check_damage_detected::<VoteLogSnapshot>(&bytes, 5);
        check_damage_detected::<VoteLogSnapshot>(&bytes, 23);
    }
}
