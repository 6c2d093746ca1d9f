//! Differential property test for the vote window: any sequence of
//! records, drains and restarts reads the same from a window with a WAL
//! under it as from a plain in-memory one — same buffered count, same
//! overflow / dedup counters, the same records (bit for bit) or the same
//! refusal out of every drain — while the WAL holds exactly the buffered
//! window after every step and a restart replays exactly that window,
//! dedup state included.
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
use lre_wal::{Wal, WalObs};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The WAL-backed side of the pair, every append fsynced inline.
fn open_walled(dir: &Path, capacity: usize) -> (VoteLog, VoteRecovery) {
    let mut opts = vote_wal_options();
    opts.fsync_interval = Duration::ZERO;
    let flight = Arc::new(FlightRecorder::new(8));
    VoteLog::open(
        dir,
        capacity,
        DrainPath::Wire,
        opts,
        &Registry::new(),
        flight,
    )
    .expect("vote WAL opens")
}

/// `(len, dropped, deduped, records in the WAL)` of the WAL-backed side.
fn counts(w: &VoteLog) -> (usize, u64, u64, u64) {
    let on_disk = w.wal_status().expect("opened on a directory");
    (w.len(), w.dropped(), w.deduped(), on_disk.buffered)
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
        let plain = VoteLog::new(capacity, DrainPath::Wire, &Registry::new());
        let (mut walled, recovery) = open_walled(&dir, capacity);
        prop_assert_eq!(recovery, VoteRecovery::default());
        // The plain side's counters when the WAL side was last opened: a
        // restart zeroes the counters, not the window.
        let (mut dropped0, mut deduped0) = (0, 0);

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Record { digest, v, mock } => {
                    plain.record(detail(digest, v, mock));
                    walled.record(detail(digest, v, mock));
                }
                Op::Drain(min) => {
                    prop_assert_eq!(
                        view(walled.drain_at_least(min)),
                        view(plain.drain_at_least(min)),
                        "step {}: drain_at_least({})", step, min
                    );
                }
                Op::Reopen => {
                    drop(walled);
                    let (reopened, recovery) = open_walled(&dir, capacity);
                    walled = reopened;
                    prop_assert_eq!(
                        recovery,
                        VoteRecovery { replayed: plain.len() as u64, torn: 0 },
                        "step {}: replay", step
                    );
                    (dropped0, deduped0) = (plain.dropped(), plain.deduped());
                    // The dedup set came back hot: a digest that is still
                    // buffered is refused, and never reaches the disk.
                    if let Some(first) = plain.snapshot().records.first() {
                        plain.record(detail(first.digest, 9.0, false));
                        walled.record(detail(first.digest, 9.0, false));
                        prop_assert_eq!(counts(&walled).2, 1, "step {}: dedup after replay", step);
                    }
                }
            }
            let (len, dropped, deduped, on_disk) = counts(&walled);
            prop_assert_eq!(len, plain.len(), "step {}: len after {:?}", step, op);
            prop_assert_eq!(dropped, plain.dropped() - dropped0, "step {}: dropped", step);
            prop_assert_eq!(deduped, plain.deduped() - deduped0, "step {}: deduped", step);
            prop_assert_eq!(on_disk, len as u64, "step {}: WAL vs buffer", step);
        }

        // Whatever is left comes back from the disk bit for bit.
        drop(walled);
        let (walled, _) = open_walled(&dir, capacity);
        prop_assert_eq!(view(walled.drain_at_least(0)), view(plain.drain_at_least(0)));
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
        let selectable = !select_tr_dba(&votes, 1).is_empty();
        // Exact for every legal V: nothing V = 1 leaves out is taken higher.
        for v in 2..=q as u8 + 1 {
            prop_assert!(selectable || select_tr_dba(&votes, v).is_empty());
        }

        let log = VoteLog::new(4, DrainPath::Wire, &Registry::new());
        log.record(vote(1, rows.clone()));
        let rec = log.drain_at_least(1).expect("admitted").remove(0);
        prop_assert_eq!(log.trimmed(), u64::from(!selectable));
        prop_assert_eq!(rec.supervectors.len(), q);
        prop_assert_eq!(rec.supervectors.iter().all(SparseVec::is_empty), !selectable);
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
        let mut opts = vote_wal_options();
        opts.fsync_interval = Duration::ZERO;
        let obs = WalObs::new(&Registry::new(), Arc::new(FlightRecorder::new(8)));
        let (wal, _) = Wal::open(&dir, opts, obs).expect("vote WAL opens");
        for v in &votes {
            wal.append(&VoteRecord::from(v.clone()).to_artifact_bytes())
                .expect("append");
        }
    }
    let (replayed, recovery) = open_walled(&dir, 64);
    assert_eq!(recovery.replayed, 12);

    let live = VoteLog::new(64, DrainPath::Wire, &Registry::new());
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
