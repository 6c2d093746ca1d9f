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
//! **Only a record Eq. 13 can select keeps its supervectors.** Admission
//! runs the vote rule on the record's own score rows
//! ([`lre_dba::selectable`]: `vote_matrix` and `select_tr_dba` at V = 1).
//! Votes and selection are per utterance, every legal V is ≥ 1 and a
//! higher V selects a subset, so a record whose votes give no language a
//! lead of its own is selected by no round at any V, and the retrain
//! (`build_tr_dba`) reads supervectors of selected records only. Such a
//! record is *trimmed*: its supervectors become empty [`SparseVec`]s,
//! while its score rows, fused LLRs, digest and duration stay, so it still
//! counts as drained, still dedups and still enters the Eq. 15 criterion
//! counts. The record keeps its shape (`VREC` v1, `VLOG` and the drain
//! reply are unchanged), and a window written before trimming existed is
//! trimmed by the same rule as it replays. The rule has no knob: no
//! `--v-threshold` can select what it trimmed.
//!
//! **A window a router drains is bounded in bytes too.** A `lre-serve
//! --fleet` replica hands its window to the router sealed into one drain
//! reply frame, so its log ([`DrainPath::Wire`]) keeps the sealed length
//! of the window's `VLOG` as it admits records (each record's sealed
//! length is computed, not sealed), and a record that would take it past
//! [`MAX_DRAIN_VLOG_LEN`] — what one drain reply frame can carry — is
//! dropped and counted like overflow. Every window a router drains
//! therefore reaches it whole. On the smoke bundle an untrimmed vote seals
//! to ≈ 9 KB at 3 s, ≈ 23 KB at 10 s and ≈ 44 KB at 30 s, so the bound is
//! ≈ 1 850, ≈ 740 or ≈ 380 such votes; a trimmed vote seals to ≈ 1 KB at
//! any duration. A window handed over in process (`lre-adaptd`,
//! [`DrainPath::InProcess`]) never becomes a frame and is bounded in
//! records only.
//!
//! Trimmed, dropped and deduplicated records are counted in the process
//! registry as `votelog.trimmed`, `votelog.dropped` and `votelog.deduped`.
//!
//! **Every log keeps its window in a [`lre_wal::Wal`] only**, never as
//! records in RAM. Every record the log *admits* (and only those — dedup
//! rejects and overflow drops never touch disk) is appended, trimmed, as
//! its own sealed `VREC` container; RAM keeps the index alone: the
//! buffered digests, the record count and the window's sealed length. A
//! drain or a snapshot reads the records back through the WAL's open
//! handle ([`lre_wal::Wal::take`], [`lre_wal::Wal::records`]), and a drain
//! clears the WAL as it does. All of it happens under the log's one mutex,
//! so the WAL holds exactly the window. A vote the disk refuses is not in
//! the window: it is dropped and counted in `votelog.dropped` (and in the
//! WAL's `write_errors`). A window the disk cannot give back whole (a
//! failed read, damage) is dropped and counted the same way, and the log
//! starts over empty. A drain whose clear fails still hands the window
//! over (the WAL counts it).
//!
//! The two kinds of log differ only in replay:
//!
//! * **Durable** ([`VoteLog::open`], `--wal-dir`): the WAL lives in a
//!   directory the caller names, its `wal.*` series and replay events go
//!   to the process's registry and flight recorder, and a restart replays
//!   it, rebuilding the index, dedup state included, to an identical drain
//!   result. Replay runs admission again (a smaller `--log-capacity`
//!   refuses some records) and, if that changes anything, rewrites the WAL
//!   atomically to what it admitted. A drain whose clear failed is
//!   replayed by the next restart.
//! * **Scratch** ([`VoteLog::new`]): the WAL lives in a fresh
//!   `lre-votes-<pid>-<n>` directory under [`std::env::temp_dir`], records
//!   into a private, unread `wal.*` registry, is never replayed and is
//!   removed when the log drops: a serving process drops it at a graceful
//!   exit, once `Server::join` has joined every thread that held it. A
//!   process killed before that leaves the directory behind; a `TMPDIR`
//!   where no directory can be made stops the log from being built at
//!   all.
//!
//! A drained (or in-flight) log can be frozen as a [`VoteLogSnapshot`] —
//! a sealed, CRC-framed `lre-artifact` container (kind `VLOG`, records as
//! nested `VREC` artifacts) — for audit or offline replay of an
//! adaptation decision.

use crate::protocol::MAX_DRAIN_VLOG_LEN;
use crate::system::{ScoreDetail, ScoreTap};
use lre_artifact::{
    ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter, HEADER_LEN,
    TRAILER_LEN,
};
use lre_obs::{Counter, FlightRecorder, Registry};
use lre_vsm::SparseVec;
use lre_wal::{ScratchDir, Wal, WalObs, WalOptions, WalStatus};
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything one served utterance contributes to an adaptation cycle.
///
/// In a [`VoteLog`] a record that Eq. 13 cannot select at any V holds
/// empty supervectors (see the module docs); every other field is as
/// scored.
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
    /// Per-subsystem TFLLR-scaled supervectors — retraining features;
    /// empty when the record is trimmed.
    pub supervectors: Vec<SparseVec>,
}

impl VoteRecord {
    /// Length of the sealed `VREC` container, without sealing it.
    fn sealed_len(&self) -> usize {
        let f32_slice = |n: usize| 4 + 4 * n;
        let rows: usize = self
            .subsystem_scores
            .iter()
            .map(|r| f32_slice(r.len()))
            .sum();
        let svs: usize = self.supervectors.iter().map(|sv| 4 + sv.sealed_len()).sum();
        HEADER_LEN + 8 + 4 + 1 + 8 + f32_slice(self.fused.len()) + 4 + rows + svs + TRAILER_LEN
    }

    /// Whether the record carries one score row and one supervector per
    /// subsystem, at most `u8::MAX` of them (the vote rule's limit), with
    /// one score per fused class in every row. A mock's detail
    /// ([`ScoreDetail::from_fused`]) carries neither.
    fn votable(&self) -> bool {
        let q = self.supervectors.len();
        (1..=u8::MAX as usize).contains(&q)
            && self.subsystem_scores.len() == q
            && self
                .subsystem_scores
                .iter()
                .all(|row| row.len() == self.fused.len())
    }
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
        // The record's own CRC, verified before any payload is read,
        // covers the nested supervectors.
        let supervectors: Vec<SparseVec> = (0..nq)
            .map(|_| SparseVec::read_nested_covered(r))
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

/// Sealed length of an empty window's `VLOG`: header, the `dropped` count,
/// the record count, CRC trailer. Each record adds its length prefix and
/// its sealed `VREC`.
const EMPTY_WINDOW_LEN: usize = HEADER_LEN + 8 + 4 + TRAILER_LEN;

struct LogState {
    /// Holds the window: exactly the records the log admitted since the
    /// last drain.
    wal: Wal,
    /// How many records the WAL holds.
    len: usize,
    /// Digests currently buffered — the within-window dedup key. Cleared on
    /// drain: an utterance replayed *after* a cycle consumed it is new
    /// evidence (possibly under a new model) and is recorded again.
    seen: HashSet<u64>,
    /// What the window seals to as a [`VoteLogSnapshot`].
    sealed_len: usize,
}

/// A record past admission's first two checks, as the window would hold
/// it.
struct Candidate {
    rec: VoteRecord,
    /// Whether its supervectors were emptied.
    trimmed: bool,
    /// What it adds to the window's sealed length.
    grows_by: usize,
}

impl Candidate {
    /// The record trimmed if Eq. 13 can select it at no V; `None` if it
    /// carries nothing to vote on or retrain from.
    fn new(mut rec: VoteRecord) -> Option<Candidate> {
        if !rec.votable() {
            return None;
        }
        let trimmed = !lre_dba::selectable(&rec.subsystem_scores);
        if trimmed {
            rec.supervectors.fill_with(SparseVec::new);
        }
        let grows_by = 4 + rec.sealed_len();
        Some(Candidate {
            rec,
            trimmed,
            grows_by,
        })
    }
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
    /// Records replayed from the WAL into the window.
    pub replayed: u64,
    /// Torn tail records the WAL skipped (0 or 1).
    pub torn: u64,
}

/// How a log's window leaves the process, which decides whether its sealed
/// bytes are bounded. Either way the window is in a WAL only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainPath {
    /// Handed over as [`VoteRecord`]s by an in-process replica
    /// (`lre-adaptd`): bounded in records only. Such a log must not back a
    /// server's fleet hook.
    InProcess,
    /// Sealed into one drain reply frame by a served replica (`lre-serve
    /// --fleet`): the window also stops at [`MAX_DRAIN_VLOG_LEN`] sealed
    /// bytes.
    Wire,
}

impl DrainPath {
    fn max_sealed_len(self) -> usize {
        match self {
            DrainPath::InProcess => usize::MAX,
            DrainPath::Wire => MAX_DRAIN_VLOG_LEN,
        }
    }
}

/// The bounded, deduplicating vote-record buffer the engine taps into.
pub struct VoteLog {
    state: Mutex<LogState>,
    capacity: usize,
    /// The most `state.sealed_len` may reach (see [`DrainPath`]).
    max_sealed_len: usize,
    /// `votelog.trimmed`: admitted records Eq. 13 can select at no V.
    trimmed: Arc<Counter>,
    /// `votelog.dropped`: records refused because the window was full, in
    /// records or (on the wire) in sealed bytes, or lost to the disk.
    dropped: Arc<Counter>,
    /// `votelog.deduped`: records refused as within-window duplicates.
    deduped: Arc<Counter>,
    /// The directory of a scratch log's WAL, removed after the WAL closes
    /// (fields drop in order); `None` for a log opened on a directory.
    scratch: Option<ScratchDir>,
}

impl VoteLog {
    /// An empty log admitting at most `capacity` buffered records, and,
    /// drained over the wire, no more than one drain reply can carry (a
    /// refused record is counted in `votelog.dropped`). Its counters are
    /// registered in `registry`.
    ///
    /// Its window is a *scratch* WAL (`opts`): a fresh directory under
    /// [`std::env::temp_dir`], private to this log and removed when it
    /// drops. Nothing ever replays it, and its `wal.*` series and events
    /// go nowhere: [`VoteLog::wal_status`] is `None`.
    pub fn new(
        capacity: usize,
        drain: DrainPath,
        opts: WalOptions,
        registry: &Registry,
    ) -> Result<VoteLog, ArtifactError> {
        let scratch = ScratchDir::create(&std::env::temp_dir(), "lre-votes")?;
        let obs = WalObs::new(&Registry::new(), Arc::new(FlightRecorder::new(1)));
        let (wal, _) = Wal::open(scratch.path(), opts, obs)?;
        Ok(VoteLog::over(wal, Some(scratch), capacity, drain, registry))
    }

    /// An empty log whose window is `wal`.
    fn over(
        wal: Wal,
        scratch: Option<ScratchDir>,
        capacity: usize,
        drain: DrainPath,
        registry: &Registry,
    ) -> VoteLog {
        VoteLog {
            state: Mutex::new(LogState {
                wal,
                len: 0,
                seen: HashSet::new(),
                sealed_len: EMPTY_WINDOW_LEN,
            }),
            capacity: capacity.max(1),
            max_sealed_len: drain.max_sealed_len(),
            trimmed: registry.counter("votelog.trimmed"),
            dropped: registry.counter("votelog.dropped"),
            deduped: registry.counter("votelog.deduped"),
            scratch,
        }
    }

    /// A durable log: its window in the WAL in directory `dir`, whose
    /// `wal.*` series go to `registry` and replay events to `flight`.
    /// Whatever survived there is admitted again, as the original
    /// admissions did (dedup state and trimming included, and refusals
    /// counted); if that refuses or trims anything, the WAL is rewritten
    /// atomically to exactly the admitted window. From then on it works as
    /// [`VoteLog::new`]'s does.
    pub fn open(
        dir: &Path,
        capacity: usize,
        drain: DrainPath,
        opts: WalOptions,
        registry: &Registry,
        flight: Arc<FlightRecorder>,
    ) -> Result<(VoteLog, VoteRecovery), ArtifactError> {
        let (wal, replay) = Wal::open(dir, opts, WalObs::new(registry, flight))?;
        let log = VoteLog::over(wal, None, capacity, drain, registry);
        let mut s = log.lock();
        let (mut kept, mut changed) = (Vec::new(), false);
        for bytes in replay.records {
            let Some(c) = Candidate::new(VoteRecord::from_artifact_bytes(&bytes)?)
                .filter(|c| log.fits(&s, c))
            else {
                changed = true;
                continue;
            };
            let sealed = c.rec.to_artifact_bytes();
            changed |= sealed != bytes;
            kept.push(sealed);
            log.enter(&mut s, c);
        }
        if changed {
            s.wal.rewrite(&kept)?;
        }
        drop(s);
        let recovery = VoteRecovery {
            replayed: kept.len() as u64,
            torn: replay.torn_tail_records,
        };
        Ok((log, recovery))
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().expect("vote log poisoned")
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records admitted with their supervectors trimmed (`votelog.trimmed`).
    pub fn trimmed(&self) -> u64 {
        self.trimmed.get()
    }

    /// Records dropped because the window was full or the disk lost them
    /// (`votelog.dropped`).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Records skipped as within-window duplicates (`votelog.deduped`).
    pub fn deduped(&self) -> u64 {
        self.deduped.get()
    }

    /// The WAL's point-in-time summary; `None` for a scratch log, which
    /// has no durable WAL to report.
    pub fn wal_status(&self) -> Option<WalStatus> {
        match self.scratch {
            Some(_) => None,
            None => Some(self.lock().wal.status()),
        }
    }

    /// Take every buffered record (arrival order) if at least `min` are
    /// buffered; otherwise leave the log untouched and report how many are.
    /// The check and the take are one critical section, so a cycle can
    /// never half-drain a log that a concurrent scorer is appending to —
    /// and the WAL is read back and cleared inside it: the drained records
    /// are now the adaptation cycle's problem, not the crash-recovery
    /// window's. A window the disk cannot give back is dropped (see the
    /// module docs) and reported as 0 buffered.
    pub fn drain_at_least(&self, min: usize) -> Result<Vec<VoteRecord>, usize> {
        let mut s = self.lock();
        if s.len < min.max(1) {
            return Err(s.len);
        }
        let records = self.read_back(&mut s, true);
        if records.is_empty() {
            return Err(0);
        }
        Ok(records)
    }

    /// The window's records in arrival order, taken out of it if `drain`.
    /// A WAL that cannot give back exactly the records the log admitted
    /// loses the window: it is counted in `votelog.dropped`, the WAL is
    /// cleared, and the log starts over empty.
    fn read_back(&self, s: &mut LogState, drain: bool) -> Vec<VoteRecord> {
        let read = match drain {
            true => s.wal.take(VoteRecord::from_payload),
            false => s.wal.records(VoteRecord::from_payload),
        };
        let records = match read {
            Ok(records) if records.len() == s.len => records,
            _ => {
                self.dropped.add(s.len as u64);
                // A failed clear is counted by the WAL.
                let _ = s.wal.clear();
                Vec::new()
            }
        };
        if drain || records.len() != s.len {
            s.len = 0;
            s.seen.clear();
            s.sealed_len = EMPTY_WINDOW_LEN;
        }
        records
    }

    /// Admit one fresh score to the window, trimmed if Eq. 13 can select it
    /// at no V. Records without one well-formed score row and supervector
    /// per subsystem (mock scorers, [`ScoreDetail::from_fused`]) carry
    /// nothing to vote on or retrain from and never enter; nor do
    /// within-window duplicates, records the window has no room for and
    /// records the disk refuses, which are counted.
    fn admit(&self, rec: VoteRecord) {
        let Some(c) = Candidate::new(rec) else {
            return;
        };
        let mut s = self.lock();
        if !self.fits(&s, &c) {
            return;
        }
        if s.wal.append(&c.rec.to_artifact_bytes()).is_err() {
            // The WAL counts the failed write too.
            self.dropped.incr();
            return;
        }
        self.enter(&mut s, c);
    }

    /// Whether the window has room for `c`: not a within-window duplicate,
    /// and within capacity in records and sealed bytes. A refusal is
    /// counted.
    fn fits(&self, s: &LogState, c: &Candidate) -> bool {
        if s.seen.contains(&c.rec.digest) {
            self.deduped.incr();
            return false;
        }
        if s.len >= self.capacity || s.sealed_len + c.grows_by > self.max_sealed_len {
            self.dropped.incr();
            return false;
        }
        true
    }

    /// Index `c`, which the WAL already holds, as a member of the window.
    fn enter(&self, s: &mut LogState, c: Candidate) {
        if c.trimmed {
            self.trimmed.incr();
        }
        s.sealed_len += c.grows_by;
        s.seen.insert(c.rec.digest);
        s.len += 1;
    }

    /// Freeze the current window as a sealed snapshot (records read back;
    /// the log keeps running).
    pub fn snapshot(&self) -> VoteLogSnapshot {
        let mut s = self.lock();
        VoteLogSnapshot {
            records: self.read_back(&mut s, false),
            dropped: self.dropped.get(),
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
    /// `votelog.dropped` at the freeze point.
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
            .map(|_| VoteRecord::read_nested_covered(r))
            .collect::<Result<_, _>>()?;
        Ok(VoteLogSnapshot { records, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_artifact::check_damage_detected;
    use std::path::PathBuf;
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
        let log = mem(2);
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
        let log = mem(8);
        let mut d = detail(9, 0, 1.0);
        d.supervectors = Vec::new();
        d.subsystem_scores = Vec::new();
        log.record(d);
        assert!(log.is_empty());
    }

    /// [`detail`] with scores no vote rule can select: subsystem 0 votes
    /// class 0, subsystem 1 class 1, a tie at one vote each.
    fn unselectable(digest: u64) -> ScoreDetail {
        ScoreDetail {
            subsystem_scores: vec![vec![1.0, -1.0, -1.0], vec![-1.0, 1.0, -1.0]],
            ..detail(digest, 0, 1.0)
        }
    }

    #[test]
    fn a_record_no_v_can_select_keeps_everything_but_its_supervectors() {
        let log = mem(8);
        log.record(unselectable(1));
        log.record(detail(2, 0, 1.0)); // subsystem 0 alone votes: selectable
        assert_eq!((log.len(), log.trimmed()), (2, 1));
        let drained = log.drain_at_least(2).unwrap();
        let (kept, trimmed) = (&drained[1], &drained[0]);
        let want = VoteRecord::from(unselectable(1));
        assert_eq!(trimmed.subsystem_scores, want.subsystem_scores);
        assert_eq!(trimmed.fused, want.fused);
        assert_eq!(
            (trimmed.digest, trimmed.duration_index, trimmed.num_frames),
            (1, 0, 75)
        );
        assert_eq!(trimmed.supervectors, vec![SparseVec::new(); 2]);
        assert_eq!(
            kept.supervectors,
            VoteRecord::from(detail(2, 0, 1.0)).supervectors
        );
    }

    #[test]
    fn misshapen_records_are_refused_like_mocks_without_panicking() {
        let log = mem(8);
        let mut extra_row = detail(1, 0, 1.0);
        extra_row.subsystem_scores.push(vec![1.0, -1.0, -1.0]);
        let mut short_row = detail(2, 0, 1.0);
        short_row.subsystem_scores[1].pop();
        let mut long_rows = detail(3, 0, 1.0);
        long_rows
            .subsystem_scores
            .iter_mut()
            .for_each(|r| r.push(1.0));
        let mut too_many = detail(4, 0, 1.0);
        too_many.subsystem_scores = vec![vec![1.0, -1.0, -1.0]; 256];
        too_many.supervectors = vec![SparseVec::new(); 256];
        let mut no_rows = detail(5, 0, 1.0);
        no_rows.subsystem_scores.clear();
        for d in [extra_row, short_row, long_rows, too_many, no_rows] {
            log.record(d);
        }
        assert!(log.is_empty());
        assert_eq!((log.trimmed(), log.dropped(), log.deduped()), (0, 0, 0));
    }

    #[test]
    fn counters_are_series_of_the_registry_they_were_given() {
        let registry = Registry::new();
        let log = VoteLog::new(1, DrainPath::Wire, opts(), &registry).unwrap();
        log.record(unselectable(1));
        log.record(unselectable(1));
        log.record(detail(2, 0, 1.0));
        let read = |name: &str| {
            let dump = registry.snapshot();
            match dump.iter().find(|(n, _)| n == name) {
                Some((_, lre_obs::MetricValue::Counter(v))) => *v,
                other => panic!("{name}: {other:?}"),
            }
        };
        assert_eq!(read("votelog.trimmed"), 1);
        assert_eq!(read("votelog.deduped"), 1);
        assert_eq!(read("votelog.dropped"), 1);
    }

    #[test]
    fn sealed_lengths_are_computed_not_sealed() {
        let mut odd = VoteRecord::from(detail(7, 2, -0.5));
        odd.fused.clear();
        odd.subsystem_scores = vec![Vec::new(); 2];
        for rec in [
            VoteRecord::from(detail(1, 0, 1.0)),
            VoteRecord::from(unselectable(2)),
            odd,
        ] {
            assert_eq!(rec.sealed_len(), rec.to_artifact_bytes().len());
        }
        // The window's running length is its snapshot's, through admits,
        // trims, refusals and drains.
        let log = mem(3);
        let window = |log: &VoteLog| log.state.lock().unwrap().sealed_len;
        assert_eq!(window(&log), log.snapshot().to_artifact_bytes().len());
        for d in [detail(1, 0, 1.0), unselectable(2), detail(1, 0, 1.0)] {
            log.record(d);
            assert_eq!(window(&log), log.snapshot().to_artifact_bytes().len());
        }
        log.drain_at_least(1).unwrap();
        assert_eq!(window(&log), log.snapshot().to_artifact_bytes().len());
    }

    /// A selectable vote whose one supervector seals to ≈ 6 MB.
    fn six_megabytes(digest: u64) -> ScoreDetail {
        const NNZ: u32 = 750_000;
        ScoreDetail {
            fused: vec![1.0, -1.0],
            subsystem_scores: vec![vec![1.0, -1.0]],
            supervectors: vec![SparseVec::from_parts(
                (0..NNZ).collect(),
                vec![0.5; NNZ as usize],
            )],
            ..detail(digest, 0, 1.0)
        }
    }

    #[test]
    fn only_a_window_drained_over_the_wire_is_bounded_in_bytes() {
        let sealed = |log: &VoteLog| log.state.lock().unwrap().sealed_len;
        // Three votes seal to ≈ 18 MB, past one 16 MiB frame.
        let scratch = |drain| VoteLog::new(3, drain, opts(), &Registry::new()).unwrap();
        let (in_process, wire) = (scratch(DrainPath::InProcess), scratch(DrainPath::Wire));
        for digest in 1..=3 {
            in_process.record(six_megabytes(digest));
            wire.record(six_megabytes(digest));
        }
        assert_eq!((in_process.len(), in_process.dropped()), (3, 0));
        assert!(sealed(&in_process) > MAX_DRAIN_VLOG_LEN);
        assert_eq!((wire.len(), wire.dropped()), (2, 1));
        assert!(sealed(&wire) <= MAX_DRAIN_VLOG_LEN);
        // The record bound still holds in process.
        in_process.record(six_megabytes(4));
        assert_eq!((in_process.len(), in_process.dropped()), (3, 1));
    }

    #[test]
    fn drain_is_all_or_nothing_and_resets_dedup() {
        let log = mem(8);
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

    fn mem(capacity: usize) -> VoteLog {
        VoteLog::new(capacity, DrainPath::Wire, opts(), &Registry::new()).unwrap()
    }

    fn scratch_dir(log: &VoteLog) -> PathBuf {
        log.scratch
            .as_ref()
            .expect("a scratch log")
            .path()
            .to_path_buf()
    }

    #[test]
    fn a_scratch_window_is_private_fresh_and_removed_with_its_log() {
        let (a, b) = (mem(8), mem(8));
        let (dir_a, dir_b) = (scratch_dir(&a), scratch_dir(&b));
        assert_ne!(dir_a, dir_b);
        assert!(dir_a.starts_with(std::env::temp_dir()));
        assert!(a.wal_status().is_none(), "a scratch WAL reports no status");
        a.record(detail(1, 0, 1.0));
        assert!(b.is_empty());
        let name = dir_a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(&format!("lre-votes-{}-", std::process::id())));
        drop((a, b));
        assert!(!dir_a.exists() && !dir_b.exists());
        // That a new scratch directory never takes an existing name is
        // `lre_wal::ScratchDir`'s test.
    }

    fn open(d: &Path) -> (VoteLog, VoteRecovery) {
        let flight = Arc::new(FlightRecorder::new(8));
        VoteLog::open(d, 8, DrainPath::Wire, opts(), &Registry::new(), flight).unwrap()
    }

    fn on_disk(log: &VoteLog) -> WalStatus {
        log.wal_status().expect("opened on a directory")
    }

    #[test]
    fn tee_then_reopen_rebuilds_an_identical_window() {
        let d = tmpdir("tee");
        {
            let (log, rec) = open(&d);
            assert_eq!(rec, VoteRecovery::default());
            log.record(detail(1, 1, 1.0));
            log.record(detail(1, 1, 1.0)); // dup: buffer refuses, WAL untouched
            log.record(detail(2, 1, 2.0));
            assert_eq!(log.len(), 2);
            assert_eq!(on_disk(&log).buffered, 2);
            assert_eq!(on_disk(&log).write_errors, 0);
        }
        let (log, rec) = open(&d);
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.torn, 0);
        // Dedup state came back: the digests are still hot.
        log.record(detail(2, 1, 2.0));
        assert_eq!(log.deduped(), 1);
        // A snapshot reads the window back and leaves it in place.
        let digests = |records: &[VoteRecord]| records.iter().map(|r| r.digest).collect::<Vec<_>>();
        assert_eq!(digests(&log.snapshot().records), [1, 2]);
        assert_eq!((log.len(), on_disk(&log).buffered), (2, 2));
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
            let (log, _) = open(&d);
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
        let (log, rec) = open(&d);
        assert_eq!(rec.replayed, 1);
        assert_eq!(log.drain_at_least(1).unwrap()[0].digest, 3);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_failed_clear_is_counted_not_dropped() {
        let d = tmpdir("clearfail");
        let (log, _) = open(&d);
        log.record(detail(1, 1, 1.0));
        // The log directory turns into a plain file: the drain's
        // write-and-rename has nowhere to land.
        std::fs::remove_dir_all(&d).unwrap();
        std::fs::write(&d, b"").unwrap();
        assert_eq!(log.drain_at_least(1).unwrap().len(), 1);
        assert_eq!(on_disk(&log).write_errors, 1);
        // The WAL still says what is on disk: the window was not cleared.
        assert_eq!(on_disk(&log).buffered, 1);
        // The window read back through the open handle, and the next drain
        // reads only what came after the spent one.
        log.record(detail(2, 1, 2.0));
        assert_eq!(log.len(), 1);
        let drained = log.drain_at_least(1).unwrap();
        assert_eq!(drained.iter().map(|r| r.digest).collect::<Vec<_>>(), [2]);
        assert_eq!(on_disk(&log).write_errors, 2);
        assert_eq!(log.dropped(), 0);
        std::fs::remove_file(&d).ok();
    }

    #[test]
    fn replay_keeps_only_what_admission_keeps_and_rewrites_the_wal_to_it() {
        let d = tmpdir("recap");
        let flight = || Arc::new(FlightRecorder::new(8));
        let open_at = |capacity| {
            VoteLog::open(
                &d,
                capacity,
                DrainPath::Wire,
                opts(),
                &Registry::new(),
                flight(),
            )
            .unwrap()
        };
        {
            let (log, _) = open_at(8);
            for digest in 1..=6 {
                log.record(detail(digest, 1, digest as f32));
            }
            assert_eq!(on_disk(&log).buffered, 6);
        }
        let (log, rec) = open_at(4);
        assert_eq!(rec.replayed, 4);
        assert_eq!((log.len(), on_disk(&log).buffered), (4, 4));
        assert_eq!(log.dropped(), 2);
        // A crash now replays the admitted window and nothing else.
        drop(log);
        let (log, rec) = open_at(8);
        assert_eq!(rec.replayed, 4);
        let drained = log.drain_at_least(1).unwrap();
        assert_eq!(
            drained.iter().map(|r| r.digest).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_window_the_disk_cannot_give_back_is_dropped_and_counted() {
        let d = tmpdir("damaged");
        let (log, _) = open(&d);
        for digest in 1..=3 {
            log.record(detail(digest, 1, digest as f32));
        }
        // Flip one byte inside the second of the three equal-sized records
        // behind the 32-byte file header.
        let path = d.join(lre_wal::LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = (bytes.len() - 32) / 3;
        bytes[32 + record_len + record_len / 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(log.drain_at_least(1), Err(0)));
        assert_eq!((log.len(), log.dropped()), (0, 3));
        assert_eq!(on_disk(&log).buffered, 0);
        // The log carries on, and the digests are fresh again.
        log.record(detail(1, 1, 1.0));
        drop(log);
        let (log, rec) = open(&d);
        assert_eq!(rec.replayed, 1);
        assert_eq!(log.drain_at_least(1).unwrap()[0].digest, 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let log = mem(8);
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
        let log = mem(8);
        log.record(detail(11, 0, 0.125));
        let bytes = log.snapshot().to_artifact_bytes();
        check_damage_detected::<VoteLogSnapshot>(&bytes, 5);
        check_damage_detected::<VoteLogSnapshot>(&bytes, 23);
    }
}
