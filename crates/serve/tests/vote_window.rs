//! Differential property test for the vote window: any sequence of
//! records, drains and restarts reads the same from a scratch window
//! (`VoteLog::new`) and from a durable one (`VoteLog::open`) as from a
//! reference model — the window as plain records in RAM, admitted by the
//! rules the module docs state — with the same buffered count, the same
//! overflow / dedup counters, the same records (bit for bit) or the same
//! refusal out of every drain, while the durable WAL holds exactly the
//! buffered window after every step and a restart replays exactly that
//! window, dedup state included.
//!
//! Beside it: admission trims a record's supervectors exactly when the
//! Eq. 13 selection over a one-utterance pool is empty at V = 1, and a WAL
//! of whole records (as written before trimming existed) replays into the
//! window a live log builds from the same scores.

use lre_artifact::{crc32, ArtifactWrite};
use lre_dba::{select_tr_dba, vote_matrix};
use lre_eval::ScoreMatrix;
use lre_obs::{FlightRecorder, Registry};
use lre_serve::{
    vote_wal_options, DrainPath, ScoreDetail, ScoreTap, VoteLog, VoteRecord, VoteRecovery,
};
use lre_vsm::SparseVec;
use lre_wal::{Wal, WalObs, WalOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Vote WAL options with every append fsynced inline.
fn inline_fsync() -> WalOptions {
    let mut opts = vote_wal_options();
    opts.fsync_interval = Duration::ZERO;
    opts
}

/// The durable log over the WAL in `dir`.
fn open_walled(dir: &Path, capacity: usize) -> (VoteLog, VoteRecovery) {
    let flight = Arc::new(FlightRecorder::new(8));
    VoteLog::open(
        dir,
        capacity,
        DrainPath::Wire,
        inline_fsync(),
        &Registry::new(),
        flight,
    )
    .expect("vote WAL opens")
}

/// A scratch log.
fn scratch(capacity: usize) -> VoteLog {
    VoteLog::new(capacity, DrainPath::Wire, inline_fsync(), &Registry::new())
        .expect("scratch vote WAL opens")
}

/// `(len, dropped, deduped, records in the WAL)` of the durable log.
fn counts(w: &VoteLog) -> (usize, u64, u64, u64) {
    let on_disk = w.wal_status().expect("opened on a directory");
    (w.len(), w.dropped(), w.deduped(), on_disk.buffered)
}

/// Whether Eq. 13 over a one-utterance pool with these OvR score rows
/// selects anything at V = 1.
fn selectable(rows: &[Vec<f32>]) -> bool {
    let k = rows[0].len();
    let matrices: Vec<ScoreMatrix> = rows
        .iter()
        .map(|row| ScoreMatrix::from_rows(k, std::slice::from_ref(row)))
        .collect();
    let refs: Vec<&ScoreMatrix> = matrices.iter().collect();
    !select_tr_dba(&vote_matrix(&refs), 1).is_empty()
}

/// The reference window: records in RAM. A detail without intermediates
/// never enters; a buffered digest is deduplicated, a full window drops;
/// an admitted record no V can select loses its supervectors. (The byte
/// bound is far above anything these windows reach.)
struct Model {
    capacity: usize,
    window: Vec<VoteRecord>,
    dropped: u64,
    deduped: u64,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            window: Vec::new(),
            dropped: 0,
            deduped: 0,
        }
    }

    fn record(&mut self, d: ScoreDetail) {
        let mut rec = VoteRecord::from(d);
        if rec.supervectors.is_empty() {
            return;
        }
        if self.window.iter().any(|r| r.digest == rec.digest) {
            self.deduped += 1;
            return;
        }
        if self.window.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        if !selectable(&rec.subsystem_scores) {
            rec.supervectors.fill_with(SparseVec::new);
        }
        self.window.push(rec);
    }

    fn drain_at_least(&mut self, min: usize) -> Result<Vec<VoteRecord>, usize> {
        match self.window.len() < min.max(1) {
            true => Err(self.window.len()),
            false => Ok(std::mem::take(&mut self.window)),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// One scored utterance; `mock` = a detail without intermediates.
    Record {
        digest: u64,
        v: f32,
        mock: bool,
    },
    Drain(usize),
    /// Drop the WAL-backed window and open its directory again.
    Reopen,
}

fn record() -> BoxedStrategy<Op> {
    // Ten digests against capacities 3–8: duplicates and overflow both fire.
    (0u64..10, -4.0f32..4.0, 0u32..8)
        .prop_map(|(digest, v, m)| Op::Record {
            digest,
            v,
            mock: m == 0,
        })
        .boxed()
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform over its arms.
    prop_oneof![
        record(),
        record(),
        record(),
        record(),
        // `min` on both sides of any reachable `len` (≤ 8).
        (0usize..12).prop_map(Op::Drain).boxed(),
        Just(Op::Reopen).boxed(),
    ]
}

fn detail(digest: u64, v: f32, mock: bool) -> ScoreDetail {
    let supervectors = if mock {
        Vec::new()
    } else {
        vec![
            SparseVec::from_pairs(vec![(0, v)]),
            SparseVec::from_pairs(vec![(1, -v), (7, 2.0 * v)]),
        ]
    };
    ScoreDetail {
        digest,
        num_frames: 75,
        duration_index: (digest % 3) as usize,
        generation: 1,
        fused: vec![v, -v, 0.5 * v],
        subsystem_scores: vec![vec![v, -v, 0.0], vec![-v, v, 0.25]],
        supervectors,
        stage_us: Default::default(),
        stage_done: None,
    }
}

/// What a drain handed back, comparable: digest, fused bits, and a CRC
/// over the sealed record (every other field, bit for bit).
type Drained = Result<Vec<(u64, Vec<u32>, u32)>, usize>;

fn view(drained: Result<Vec<VoteRecord>, usize>) -> Drained {
    drained.map(|records| {
        records
            .iter()
            .map(|r| {
                (
                    r.digest,
                    r.fused.iter().map(|x| x.to_bits()).collect(),
                    crc32(&r.to_artifact_bytes()),
                )
            })
            .collect()
    })
}

static DIR_TAG: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lre_vote_window_{}_{}",
        std::process::id(),
        DIR_TAG.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_wal_under_the_window_changes_nothing_but_survival(
        (capacity, ops) in (3usize..9, prop::collection::vec(op(), 1..48))
    ) {
        let dir = fresh_dir();
        let mut model = Model::new(capacity);
        let scratch = scratch(capacity);
        let (mut walled, recovery) = open_walled(&dir, capacity);
        prop_assert_eq!(recovery, VoteRecovery::default());
        // The model's counters when the durable side was last opened: a
        // restart zeroes the counters, not the window.
        let (mut dropped0, mut deduped0) = (0, 0);

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Record { digest, v, mock } => {
                    model.record(detail(digest, v, mock));
                    scratch.record(detail(digest, v, mock));
                    walled.record(detail(digest, v, mock));
                }
                Op::Drain(min) => {
                    let want = view(model.drain_at_least(min));
                    prop_assert_eq!(
                        view(scratch.drain_at_least(min)),
                        want.clone(),
                        "step {}: scratch drain_at_least({})", step, min
                    );
                    prop_assert_eq!(
                        view(walled.drain_at_least(min)),
                        want,
                        "step {}: durable drain_at_least({})", step, min
                    );
                }
                Op::Reopen => {
                    drop(walled);
                    let (reopened, recovery) = open_walled(&dir, capacity);
                    walled = reopened;
                    prop_assert_eq!(
                        recovery,
                        VoteRecovery { replayed: model.window.len() as u64, torn: 0 },
                        "step {}: replay", step
                    );
                    (dropped0, deduped0) = (model.dropped, model.deduped);
                    // The dedup set came back hot: a digest that is still
                    // buffered is refused, and never reaches the disk.
                    if let Some(first) = model.window.first().map(|r| r.digest) {
                        model.record(detail(first, 9.0, false));
                        scratch.record(detail(first, 9.0, false));
                        walled.record(detail(first, 9.0, false));
                        prop_assert_eq!(counts(&walled).2, 1, "step {}: dedup after replay", step);
                    }
                }
            }
            let len = model.window.len();
            let scratch_counts = (scratch.len(), scratch.dropped(), scratch.deduped());
            prop_assert_eq!(scratch_counts, (len, model.dropped, model.deduped), "step {}: scratch after {:?}", step, op);
            prop_assert!(scratch.wal_status().is_none());
            let (wlen, dropped, deduped, on_disk) = counts(&walled);
            prop_assert_eq!(wlen, len, "step {}: len after {:?}", step, op);
            prop_assert_eq!(dropped, model.dropped - dropped0, "step {}: dropped", step);
            prop_assert_eq!(deduped, model.deduped - deduped0, "step {}: deduped", step);
            prop_assert_eq!(on_disk, len as u64, "step {}: WAL vs buffer", step);
        }

        // Whatever is left comes back, from the disk too, bit for bit.
        prop_assert_eq!(
            view(Ok(scratch.snapshot().records)),
            view(Ok(model.window.clone()))
        );
        drop(walled);
        let (walled, _) = open_walled(&dir, capacity);
        let want = view(model.drain_at_least(0));
        prop_assert_eq!(view(scratch.drain_at_least(0)), want.clone());
        prop_assert_eq!(view(walled.drain_at_least(0)), want);
        prop_assert_eq!(counts(&walled).3, 0);
        drop(walled);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Scores drawn from a handful of values, so ties, all-negative rows,
/// multi-positive rows and zeros on the hyperplane all turn up.
const SCORES: [f32; 5] = [-1.0, -0.0, 0.0, 0.5, 2.0];

/// A vote with `rows` as its per-subsystem OvR scores and one non-empty
/// supervector per subsystem.
fn vote(digest: u64, rows: Vec<Vec<f32>>) -> ScoreDetail {
    let q = rows.len();
    ScoreDetail {
        digest,
        num_frames: 75,
        duration_index: (digest % 3) as usize,
        generation: 1,
        fused: rows[0].iter().map(|x| 0.5 * x).collect(),
        subsystem_scores: rows,
        supervectors: (0..q as u32)
            .map(|i| SparseVec::from_pairs(vec![(i, 1.0), (9 + i, -0.25)]))
            .collect(),
        stage_us: Default::default(),
        stage_done: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_record_is_trimmed_exactly_when_no_v_can_select_it(
        (q, k, flat) in (
            1usize..7,
            1usize..6,
            prop::collection::vec(prop::sample::select(SCORES.to_vec()), 30),
        )
    ) {
        let rows: Vec<Vec<f32>> = flat.chunks(5).take(q).map(|c| c[..k].to_vec()).collect();
        let matrices: Vec<ScoreMatrix> = rows
            .iter()
            .map(|row| ScoreMatrix::from_rows(k, std::slice::from_ref(row)))
            .collect();
        let refs: Vec<&ScoreMatrix> = matrices.iter().collect();
        let votes = vote_matrix(&refs);
        let selects = selectable(&rows);
        // Exact for every legal V: nothing V = 1 leaves out is taken higher.
        for v in 2..=q as u8 + 1 {
            prop_assert!(selects || select_tr_dba(&votes, v).is_empty());
        }

        let log = scratch(4);
        log.record(vote(1, rows.clone()));
        let rec = log.drain_at_least(1).expect("admitted").remove(0);
        prop_assert_eq!(log.trimmed(), u64::from(!selects));
        prop_assert_eq!(rec.supervectors.len(), q);
        prop_assert_eq!(rec.supervectors.iter().all(SparseVec::is_empty), !selects);
        prop_assert_eq!(&rec.subsystem_scores, &rows);
    }
}

#[test]
fn an_untrimmed_wal_replays_into_the_window_a_live_log_builds() {
    let sel = vec![vec![1.0, -1.0, -1.0], vec![0.5, -1.0, -1.0]];
    let tie = vec![vec![1.0, -1.0, -1.0], vec![-1.0, 0.5, -1.0]];
    let none = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 0.5, -1.0]];
    let votes: Vec<ScoreDetail> = (0..12u64)
        .map(|i| vote(i, [&sel, &tie, &none][i as usize % 3].clone()))
        .collect();

    // Whole records straight into a vote WAL, as a log that never trimmed
    // wrote them.
    let dir = fresh_dir();
    {
        let obs = WalObs::new(&Registry::new(), Arc::new(FlightRecorder::new(8)));
        let (wal, _) = Wal::open(&dir, inline_fsync(), obs).expect("vote WAL opens");
        for v in &votes {
            wal.append(&VoteRecord::from(v.clone()).to_artifact_bytes())
                .expect("append");
        }
    }
    let (replayed, recovery) = open_walled(&dir, 64);
    assert_eq!(recovery.replayed, 12);

    let live = scratch(64);
    for v in votes {
        live.record(v);
    }
    assert_eq!((replayed.trimmed(), live.trimmed()), (8, 8));
    assert_eq!(
        view(replayed.drain_at_least(1)),
        view(live.drain_at_least(1))
    );
    drop(replayed);
    std::fs::remove_dir_all(&dir).ok();
}
