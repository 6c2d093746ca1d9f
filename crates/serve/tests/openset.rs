//! Open-set rejection over the live wire.
//!
//! An `unknown_threshold` server still scores and answers every
//! utterance, but a reply whose *best* fused LLR falls below the
//! threshold is flagged `unknown` — and, critically, never teed into the
//! adaptation vote log: alien speech must not vote on how the models
//! drift. The mock scorer makes the geometry exact (LLR `i` is
//! `sum(samples) + i`), so each test picks its side of the threshold by
//! construction, not by luck.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_serve::client::ScoreReply;
use lre_serve::{
    Client, EngineConfig, ScoreDetail, ScoreTap, Scorer, ScorerHandle, Server, ServerConfig,
    ServerHooks,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// LLR `i` is `sum(samples) + i` — best is always class `classes-1` with
/// score `sum + classes - 1`.
struct MockScorer {
    classes: usize,
}

impl Scorer for MockScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        let s: f32 = samples.iter().sum();
        Ok(ScoreDetail::from_fused(
            samples,
            (0..self.classes).map(|i| s + i as f32).collect(),
        ))
    }
}

fn config(unknown_threshold: Option<f32>) -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            unknown_threshold,
        },
        max_inflight: 8,
    }
}

/// Counts every `record()` the engine tees — the adaptation-side contract
/// is "an unknown never reaches the tap", and (unlike the real `VoteLog`,
/// which additionally drops supervector-less mock rows) this tap sees the
/// engine's decision itself.
#[derive(Default)]
struct CountingTap {
    records: AtomicUsize,
}

impl ScoreTap for CountingTap {
    fn record(&self, _detail: ScoreDetail) {
        self.records.fetch_add(1, Ordering::SeqCst);
    }
}

/// An open-set server with a counting tap, so tests can watch both the
/// reply flag and the adaptation side effect.
fn start_open_set(threshold: Option<f32>) -> (Server, Arc<CountingTap>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let log = Arc::new(CountingTap::default());
    let server = Server::start(
        listener,
        Arc::new(ScorerHandle::new(Arc::new(MockScorer { classes: 3 }), 0)),
        config(threshold),
        ServerHooks {
            tap: Some(Arc::clone(&log) as _),
            ..Default::default()
        },
    )
    .expect("server starts");
    (server, log)
}

#[test]
fn below_threshold_replies_unknown_and_never_votes() {
    // Threshold 0.0. Best LLR is sum+2, so sum = -10 → best -8: unknown.
    let (server, log) = start_open_set(Some(0.0));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let scored = match client.score(&[-10.0]).expect("low score") {
        ScoreReply::Scored(s) => s,
        other => panic!("low utterance refused: {other:?}"),
    };
    assert!(scored.unknown, "best LLR -8 must be flagged unknown");
    // The decision still carries the local argmax, recovered from the
    // LLRs on the client side of the sentinel.
    assert_eq!(scored.decision, 2);
    assert_eq!(scored.llrs, vec![-10.0, -9.0, -8.0]);
    assert_eq!(
        log.records.load(Ordering::SeqCst),
        0,
        "an unknown must not reach the tap"
    );

    // sum = 10 → best 12: a confident in-set answer, which does vote.
    let scored = match client.score(&[10.0]).expect("high score") {
        ScoreReply::Scored(s) => s,
        other => panic!("high utterance refused: {other:?}"),
    };
    assert!(!scored.unknown);
    assert_eq!(scored.decision, 2);
    assert_eq!(
        log.records.load(Ordering::SeqCst),
        1,
        "a confident score must vote exactly once"
    );

    // The stats wire carries the count: 2 completed, 1 unknown.
    let stats = client.stats_v2().expect("stats_v2");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.unknown, 1);

    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn boundary_is_inclusive_accept() {
    // Acceptance is `best >= t`: an utterance exactly at the threshold
    // is answered, not rejected. sum = -2 → best LLR exactly 0.0.
    let (server, log) = start_open_set(Some(0.0));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scored = match client.score(&[-2.0]).expect("boundary score") {
        ScoreReply::Scored(s) => s,
        other => panic!("boundary utterance refused: {other:?}"),
    };
    assert!(!scored.unknown, "best == threshold must be accepted");
    assert_eq!(log.records.load(Ordering::SeqCst), 1);
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn no_threshold_means_closed_set() {
    // The default config never flags unknown, however low the scores —
    // existing closed-set deployments are untouched.
    let (server, log) = start_open_set(None);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scored = match client.score(&[-1000.0]).expect("score") {
        ScoreReply::Scored(s) => s,
        other => panic!("refused: {other:?}"),
    };
    assert!(!scored.unknown);
    assert_eq!(
        log.records.load(Ordering::SeqCst),
        1,
        "closed-set scores always vote"
    );
    let stats = client.stats_v2().expect("stats_v2");
    assert_eq!(stats.unknown, 0);
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn pipelined_replies_carry_the_unknown_flag() {
    // Out-of-order replies carry the decision sentinel too: a pipelined
    // mix of confident and alien utterances flags exactly the aliens.
    let (server, log) = start_open_set(Some(0.0));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let utts: Vec<Vec<f32>> = vec![vec![5.0], vec![-20.0], vec![7.0], vec![-30.0]];
    let replies = client.score_all(&utts, 4, None).expect("pipelined run");
    let flags: Vec<bool> = replies
        .iter()
        .map(|r| match r {
            ScoreReply::Scored(s) => s.unknown,
            other => panic!("refused: {other:?}"),
        })
        .collect();
    assert_eq!(flags, [false, true, false, true]);
    assert_eq!(log.records.load(Ordering::SeqCst), 2);
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}
