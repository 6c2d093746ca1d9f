//! The vote log: a bounded, deduplicating buffer of everything the online
//! DBA loop needs from each served utterance.
//!
//! The serving engine tees one [`VoteRecord`] per successfully scored
//! utterance into a [`VoteLog`] (via the [`ScoreTap`] seam), holding the
//! per-subsystem OvR score rows — the Eq. 13 vote inputs — and the
//! TFLLR-scaled supervectors the boosting retrain consumes. The buffer is
//! bounded (overflow drops the newest record and counts it) and keyed by
//! the utterance content digest, so a replayed utterance never inflates
//! the pseudo-label pool within one adaptation window.
//!
//! A drained (or in-flight) log can be frozen as a [`VoteLogSnapshot`] —
//! a sealed, CRC-framed `lre-artifact` container (kind `VLOG`, records as
//! nested `VREC` artifacts) — for audit or offline replay of an
//! adaptation decision.

use crate::system::{ScoreDetail, ScoreTap};
use lre_artifact::{ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter};
use lre_vsm::SparseVec;
use std::collections::HashSet;
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

/// The bounded, deduplicating vote-record buffer the engine taps into.
pub struct VoteLog {
    state: Mutex<LogState>,
    capacity: usize,
}

impl VoteLog {
    /// An empty log admitting at most `capacity` buffered records
    /// (overflow drops the newest record and counts it in
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
        }
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

    /// Take every buffered record (arrival order) if at least `min` are
    /// buffered; otherwise leave the log untouched and report how many are.
    /// The check and the take are one critical section, so a cycle can
    /// never half-drain a log that a concurrent scorer is appending to.
    pub fn drain_at_least(&self, min: usize) -> Result<Vec<VoteRecord>, usize> {
        let mut s = self.state.lock().expect("vote log poisoned");
        if s.records.len() < min.max(1) {
            return Err(s.records.len());
        }
        s.seen.clear();
        Ok(std::mem::take(&mut s.records))
    }

    /// Admit one scored utterance, returning the admitted record when it
    /// entered the buffer (`None` for mock details, duplicates, and
    /// overflow). This is [`ScoreTap::record`] with a return value — the
    /// seam a durability tee uses to write-ahead-log exactly the records
    /// the in-memory buffer accepted, so replay and buffer can never
    /// disagree about what was admitted.
    pub fn admit(&self, detail: ScoreDetail) -> Option<VoteRecord> {
        if detail.supervectors.is_empty() {
            return None;
        }
        self.admit_record(VoteRecord::from(detail))
    }

    /// Re-admit a record during crash-recovery replay, rebuilding the
    /// dedup state exactly as the original admissions did. Reports
    /// whether the record entered the buffer.
    pub fn replay(&self, rec: VoteRecord) -> bool {
        if rec.supervectors.is_empty() {
            return false;
        }
        self.admit_record(rec).is_some()
    }

    fn admit_record(&self, rec: VoteRecord) -> Option<VoteRecord> {
        let mut s = self.state.lock().expect("vote log poisoned");
        if s.seen.contains(&rec.digest) {
            s.deduped += 1;
            return None;
        }
        if s.records.len() >= self.capacity {
            s.dropped += 1;
            return None;
        }
        s.seen.insert(rec.digest);
        s.records.push(rec.clone());
        Some(rec)
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
        // Mock scorers (`ScoreDetail::from_fused`) carry no
        // subsystem intermediates; there is nothing to vote on or retrain
        // from, so such rows never enter the log (admit refuses them).
        let _ = self.admit(detail);
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

    #[test]
    fn admit_returns_exactly_what_entered_the_buffer() {
        let log = VoteLog::new(2);
        let admitted = log.admit(detail(1, 0, 1.0)).expect("first record admitted");
        assert_eq!(admitted.digest, 1);
        assert!(log.admit(detail(1, 0, 1.0)).is_none()); // duplicate
        assert!(log.admit(detail(2, 1, 2.0)).is_some());
        assert!(log.admit(detail(3, 2, 3.0)).is_none()); // overflow
        let mut mock = detail(4, 0, 1.0);
        mock.supervectors = Vec::new();
        assert!(log.admit(mock).is_none()); // nothing to vote on
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn replay_rebuilds_buffer_and_dedup_state() {
        // Original log: two admissions.
        let log = VoteLog::new(8);
        let a = log.admit(detail(1, 0, 1.0)).unwrap();
        let b = log.admit(detail(2, 1, 2.0)).unwrap();

        // "Restarted" log replayed from the tee'd records.
        let rebuilt = VoteLog::new(8);
        assert!(rebuilt.replay(a));
        assert!(rebuilt.replay(b));
        // Dedup state came back too: the digests are still hot.
        log.record(detail(1, 0, 1.0));
        rebuilt.record(detail(1, 0, 1.0));
        assert_eq!(rebuilt.deduped(), log.deduped());
        // Identical drain result.
        let want = log.drain_at_least(1).unwrap();
        let got = rebuilt.drain_at_least(1).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.digest, w.digest);
            assert_eq!(
                g.fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                w.fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
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
