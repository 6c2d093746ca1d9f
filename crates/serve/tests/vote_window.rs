//! Differential property test for the vote window: any sequence of
//! records, drains and restarts reads the same from a window with a WAL
//! under it as from a plain in-memory one — same buffered count, same
//! overflow / dedup counters, the same records (bit for bit) or the same
//! refusal out of every drain — while the WAL holds exactly the buffered
//! window after every step and a restart replays exactly that window,
//! dedup state included.

use lre_artifact::{crc32, ArtifactWrite};
use lre_obs::{FlightRecorder, Registry};
use lre_serve::{vote_wal_options, ScoreDetail, ScoreTap, VoteLog, VoteRecord, VoteRecovery};
use lre_vsm::SparseVec;
use lre_wal::WalObs;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The WAL-backed side of the pair, every append fsynced inline.
fn open_walled(dir: &Path, capacity: usize) -> (VoteLog, VoteRecovery) {
    let mut opts = vote_wal_options();
    opts.fsync_interval = Duration::ZERO;
    let obs = WalObs::new(&Registry::new(), Arc::new(FlightRecorder::new(8)));
    VoteLog::open(dir, capacity, opts, obs).expect("vote WAL opens")
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
        let plain = VoteLog::new(capacity);
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
