//! Fault injection and protocol-robustness suite.
//!
//! Everything here runs against a **live TCP server** backed by a mock
//! [`Scorer`], so the full wire path — framing, decode, admission,
//! dispatch, reply writer — is exercised in milliseconds instead of the
//! minutes a trained system needs. The contracts under test:
//!
//! - malformed input (truncated frames, oversized length prefixes, garbage
//!   tags, mid-frame disconnects) gets a typed refusal or a clean close —
//!   never a panic, a hang, an outsized allocation, or a leaked thread;
//! - pipelined connections respect the server's inflight window, match
//!   replies to request ids even out of order, and see typed
//!   `DEADLINE_EXCEEDED` / `INTERNAL` statuses;
//! - a scorer that panics fails that one request with `INTERNAL`; the
//!   worker it unwound, the connection and its window all live on;
//! - the engine shuts down idempotently, resolving in-flight work and
//!   refusing later submissions with a typed error instead of hanging;
//! - a peer that sends without reading costs the server a bounded backlog
//!   and loses its connection once the writer has made no progress for
//!   [`WRITE_STALL`].

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_obs::MetricValue;
use lre_serve::client::ScoreReply;
use lre_serve::fuzz;
use lre_serve::protocol::{decode_score_reply_v2, encode_request, STATUS_SHUTTING_DOWN};
use lre_serve::server::WRITE_STALL;
use lre_serve::{
    read_frame, write_frame, Client, Engine, EngineConfig, Outcome, Request, ScoreDetail, Scorer,
    ScorerHandle, ServeObs, Server, ServerConfig, ServerHooks, SubmitError,
};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Deterministic mock: LLR `i` is `sum(samples) + i`, so replies are
/// attributable to the exact samples that produced them.
struct MockScorer {
    classes: usize,
}

fn mock_llrs(samples: &[f32], classes: usize) -> Vec<f32> {
    let s: f32 = samples.iter().sum();
    (0..classes).map(|i| s + i as f32).collect()
}

impl Scorer for MockScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        Ok(ScoreDetail::from_fused(
            samples,
            mock_llrs(samples, self.classes),
        ))
    }
}

/// A scorer whose workers block until the test opens the gate — makes
/// "requests are outstanding" a deterministic state instead of a race.
struct GatedScorer {
    gate: Mutex<Gate>,
    cv: Condvar,
    classes: usize,
}

#[derive(Default)]
struct Gate {
    open: bool,
    /// Calls that have reached the scorer so far.
    entered: usize,
}

impl GatedScorer {
    fn new(classes: usize) -> GatedScorer {
        GatedScorer {
            gate: Mutex::new(Gate::default()),
            cv: Condvar::new(),
            classes,
        }
    }

    fn release(&self) {
        self.gate.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Block until `n` calls have reached the scorer.
    fn wait_entered(&self, n: usize) {
        let (gate, timeout) = self
            .cv
            .wait_timeout_while(self.gate.lock().unwrap(), Duration::from_secs(10), |g| {
                g.entered < n
            })
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "only {} of {n} calls reached the scorer",
            gate.entered
        );
    }
}

impl Scorer for GatedScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        let mut gate = self.gate.lock().unwrap();
        gate.entered += 1;
        self.cv.notify_all();
        while !gate.open {
            gate = self.cv.wait(gate).unwrap();
        }
        drop(gate);
        Ok(ScoreDetail::from_fused(
            samples,
            mock_llrs(samples, self.classes),
        ))
    }
}

/// A scorer that always fails.
struct FailingScorer;

impl Scorer for FailingScorer {
    fn score_utt(
        &self,
        _samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        Err(ArtifactError::Corrupt("injected scorer failure"))
    }
}

/// A scorer that panics on any utterance whose first sample is negative.
struct PanickingScorer;

impl Scorer for PanickingScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        assert!(samples[0] >= 0.0, "injected scorer panic");
        Ok(ScoreDetail::from_fused(samples, mock_llrs(samples, 2)))
    }
}

fn start_server(scorer: Arc<dyn Scorer>, cfg: ServerConfig) -> Server {
    start_observed(scorer, cfg).0
}

/// A server and the telemetry it records into.
fn start_observed(scorer: Arc<dyn Scorer>, cfg: ServerConfig) -> (Server, Arc<ServeObs>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = Arc::new(ScorerHandle::new(scorer, 0));
    let hooks = ServerHooks::default();
    let obs = Arc::clone(&hooks.obs);
    let server = Server::start(listener, handle, cfg, hooks).expect("server starts");
    (server, obs)
}

fn fast_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            unknown_threshold: None,
        },
        max_inflight: 4,
    }
}

/// Wait until `within` has passed or the server's live connections number
/// `n` (a connection's thread ends once its peer is gone, and the door
/// counts the threads still running); the count is returned.
fn connections_reach(server: &Server, n: usize, within: Duration) -> usize {
    let deadline = Instant::now() + within;
    while server.connections() != n && Instant::now() < deadline {
        std::thread::yield_now();
    }
    server.connections()
}

#[test]
fn malformed_corpus_against_live_server() {
    let server = start_server(Arc::new(MockScorer { classes: 3 }), fast_config());
    let addr = server.local_addr();

    let ran = fuzz::run_corpus(addr, Duration::from_secs(10)).expect("malformed-input contract");
    for class in ["per-tag", "payload", "stream", "slow-loris"] {
        assert!(
            ran.get(class).is_some_and(|&n| n > 0),
            "no {class} case ran"
        );
    }

    // No request ever reached the engine: admission rejects malformed
    // frames before they touch the queue.
    assert_eq!(server.engine().stats().requests, 0);

    // The server is fully alive afterwards: a well-formed request on a
    // fresh connection scores normally.
    let mut client = Client::connect(addr).expect("post-corpus connect");
    match client.score(&[1.0, 2.0]).expect("post-corpus score") {
        ScoreReply::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[1.0, 2.0], 3)),
        other => panic!("post-corpus request refused: {other:?}"),
    }

    // No leaked connection threads: every per-connection reader/writer
    // pair must wind down once its peer is gone. `client` above is still
    // connected: its connection is the one left.
    let live = connections_reach(&server, 1, Duration::from_secs(10));
    assert_eq!(live, 1, "connection threads leaked");

    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn slow_loris_cases_never_leak_the_reader_thread() {
    // Slow-loris peers hold sockets half-open for hundreds of
    // milliseconds; the reader thread parked on each must still wind
    // down once the peer is gone, and the one *valid* trickled request
    // must be answered, not punished for its pacing.
    let server = start_server(Arc::new(MockScorer { classes: 3 }), fast_config());
    let addr = server.local_addr();

    let corpus = fuzz::malformed_corpus();
    let loris: Vec<_> = corpus
        .iter()
        .filter(|c| c.name.starts_with("slow-loris"))
        .collect();
    assert_eq!(loris.len(), 4, "slow-loris corpus shape changed");
    assert!(
        loris.iter().any(|c| c.expect == fuzz::Expect::Answered),
        "the valid trickled case went missing"
    );
    for case in &loris {
        fuzz::run_case(addr, case, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("case {:?}: {e}", case.name));
    }

    let live = connections_reach(&server, 0, Duration::from_secs(10));
    assert_eq!(live, 0, "slow-loris reader threads leaked");
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn pipelined_replies_match_ids_and_are_bit_faithful() {
    let server = start_server(Arc::new(MockScorer { classes: 4 }), fast_config());
    let addr = server.local_addr();

    let utts: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32; 8]).collect();
    let mut client = Client::connect(addr).expect("connect");
    let replies = client.score_all(&utts, 4, None).expect("pipelined run");
    for (i, (utt, reply)) in utts.iter().zip(&replies).enumerate() {
        match reply {
            ScoreReply::Scored(s) => {
                assert_eq!(s.llrs, mock_llrs(utt, 4), "utt {i} got another utt's LLRs");
            }
            other => panic!("utt {i} refused: {other:?}"),
        }
    }
    assert_eq!(client.inflight(), 0);

    let stats = client.stats_v2().expect("stats");
    assert_eq!(stats.completed, utts.len() as u64);
    assert_eq!(stats.rejected, 0);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn server_enforces_the_inflight_window() {
    // Gate closed: admitted requests pile up behind the worker, so the
    // window state is exact, not timing-dependent.
    let gate = Arc::new(GatedScorer::new(2));
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    cfg.max_inflight = 4;
    let server = start_server(Arc::clone(&gate) as _, cfg);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    for i in 0..5 {
        client.submit(&[i as f32], None).expect("submit");
    }
    // The fifth request breached the window: it must be refused
    // immediately, while the first four are still outstanding.
    let (id, reply) = client.recv().expect("refusal arrives");
    assert_eq!(id, 4, "the one-past-the-window request is the one refused");
    assert_eq!(reply, ScoreReply::Overloaded);

    gate.release();
    let mut scored = Vec::new();
    while client.inflight() > 0 {
        let (id, reply) = client.recv().expect("drain");
        match reply {
            ScoreReply::Scored(s) => scored.push((id, s)),
            other => panic!("admitted request {id} refused: {other:?}"),
        }
    }
    assert_eq!(scored.len(), 4);
    for (id, s) in &scored {
        assert_eq!(s.llrs, mock_llrs(&[*id as f32], 2), "reply/id mismatch");
    }

    // The window reopened: new submissions are admitted again.
    client.submit(&[9.0], None).expect("submit after drain");
    let (_, reply) = client.recv().expect("post-drain reply");
    match reply {
        ScoreReply::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[9.0], 2)),
        other => panic!("post-drain request refused: {other:?}"),
    }

    // The shed request is accounted: requests = completed + rejected.
    let stats = client.stats_v2().expect("stats");
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.rejected, 1);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn deadlines_are_shed_with_a_typed_status() {
    let gate = Arc::new(GatedScorer::new(2));
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    let (server, obs) = start_observed(Arc::clone(&gate) as _, cfg);
    let addr = server.local_addr();
    let queued = || match obs
        .registry
        .snapshot()
        .iter()
        .find(|m| m.0 == "engine.queue.depth")
    {
        Some((_, MetricValue::Gauge(depth))) => *depth,
        other => panic!("engine.queue.depth is not a gauge: {other:?}"),
    };

    let mut client = Client::connect(addr).expect("connect");
    // The blocker parks the only worker at the closed gate; the victims'
    // deadlines then expire while they wait. The 500 µs one is the
    // tightest a client can ask for: it must travel as 1 ms, not as the
    // `0` that means "no deadline".
    let blocker = client.submit(&[1.0], None).expect("blocker");
    gate.wait_entered(1);
    let victims = [Duration::from_millis(5), Duration::from_micros(500)]
        .map(|deadline| client.submit(&[2.0], Some(deadline)).expect("victim"));
    // The blocker left the queue before the victims came, so its depth
    // reads 2 only once both are on it; each was admitted before that, so
    // 5 ms later both deadlines have passed.
    while queued() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(5));
    gate.release();

    let mut outcomes = std::collections::HashMap::new();
    while client.inflight() > 0 {
        let (id, reply) = client.recv().expect("reply");
        outcomes.insert(id, reply);
    }
    match &outcomes[&blocker] {
        ScoreReply::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[1.0], 2)),
        other => panic!("blocker refused: {other:?}"),
    }
    for victim in victims {
        assert_eq!(
            outcomes[&victim],
            ScoreReply::DeadlineExceeded,
            "an expired request must get the typed status, not a stale score"
        );
    }

    let stats = client.stats_v2().expect("stats");
    assert_eq!(stats.expired, 2);
    assert_eq!(stats.completed, 1);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn scorer_failures_map_to_internal_status_and_keep_the_connection() {
    let server = start_server(Arc::new(FailingScorer), fast_config());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client.submit(&[1.0], None).expect("submit");
    let (_, reply) = client.recv().expect("reply");
    assert_eq!(reply, ScoreReply::Failed);

    // The connection survives an internal failure.
    client.submit(&[2.0], None).expect("submit again");
    let (_, reply) = client.recv().expect("second reply");
    assert_eq!(reply, ScoreReply::Failed);

    // The submit-and-wait call is told the same thing — not that the
    // server is going away — and its connection survives too.
    let mut waiting = Client::connect(addr).expect("second connect");
    assert_eq!(waiting.score(&[3.0]).expect("reply"), ScoreReply::Failed);
    assert_eq!(waiting.score(&[4.0]).expect("reply"), ScoreReply::Failed);

    let stats = client.stats_v2().expect("stats");
    assert_eq!(stats.failed, 4);
    assert_eq!(stats.completed, 0);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_scorer_panic_is_a_typed_failure_and_the_only_worker_lives_on() {
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    cfg.max_inflight = 2;
    let server = start_server(Arc::new(PanickingScorer), cfg);
    let addr = server.local_addr();

    // The client gets a thread of its own, and the test a timeout: an
    // uncontained panic kills the worker with the reply closure unfired,
    // and the first `recv` below then never returns.
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        // More panics than the connection's window has slots: a failed
        // request must give its slot back.
        let utts = [-1.0f32, 2.0, -3.0, -4.0, -5.0, 6.0];
        let replies = utts.map(|first| client.score(&[first, 0.5]).expect("a reply"));
        let stats = client.stats_v2().expect("stats");
        tx.send((utts, replies, stats))
            .expect("the test is waiting");
        client.shutdown().expect("shutdown");
    });
    let (utts, replies, stats) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a request was never answered: its reply died with the worker");
    for (first, reply) in utts.iter().zip(&replies) {
        match reply {
            ScoreReply::Failed => assert!(*first < 0.0, "utt {first} failed"),
            ScoreReply::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[*first, 0.5], 2)),
            other => panic!("utt {first}: {other:?}"),
        }
    }
    assert_eq!((stats.failed, stats.completed), (4, 2));
    assert_eq!(stats.requests, 6);
    client.join().expect("client thread");
    server.join();
}

#[test]
fn retired_v1_tags_are_refused_and_never_reach_the_engine() {
    let server = start_server(Arc::new(MockScorer { classes: 3 }), fast_config());
    let addr = server.local_addr();

    // What a first-generation client would send: tag 1 + a sample slice
    // (score), tag 2 alone (stats).
    let mut v1_score = vec![1u8];
    v1_score.extend_from_slice(&4u32.to_le_bytes());
    v1_score.extend_from_slice(&0.5f32.to_le_bytes().repeat(4));
    for payload in [v1_score, vec![2u8]] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &payload).expect("send");
        let reply = read_frame(&mut stream)
            .expect("one reply")
            .expect("a frame");
        assert_eq!(
            reply,
            [lre_serve::protocol::STATUS_BAD_REQUEST],
            "tag {} must be refused like any unknown tag",
            payload[0]
        );
        assert_eq!(read_frame(&mut stream).expect("clean close"), None);
    }
    assert_eq!(server.engine().stats().requests, 0);

    // The blocking call that replaced the v1 score is one pipelined score
    // at window 1.
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..8 {
        let samples = vec![i as f32; 4];
        match client.score(&samples).expect("score") {
            ScoreReply::Scored(s) => {
                assert_eq!(s.llrs, mock_llrs(&samples, 3));
                assert_eq!(s.decision, 2, "argmax of an increasing LLR vector");
            }
            other => panic!("request refused: {other:?}"),
        }
    }
    assert_eq!(client.stats_v2().expect("stats").completed, 8);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn two_idle_workers_take_two_queued_jobs_concurrently() {
    let gate = Arc::new(GatedScorer::new(2));
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            queue_capacity: 16,
            unknown_threshold: None,
        },
        Arc::new(ScorerHandle::new(Arc::clone(&gate) as _, 0)),
        None,
        ServeObs::new(8),
    );

    let jobs = [vec![1.0], vec![2.0]];
    let receivers = jobs
        .clone()
        .map(|samples| engine.submit(samples).expect("submit"));
    // Both jobs must be inside the scorer before either is let out: the
    // queue hands each idle worker one job, it never parks the second job
    // behind the first on one worker.
    gate.wait_entered(2);
    gate.release();

    for (rx, samples) in receivers.into_iter().zip(&jobs) {
        match rx.recv().expect("outcome") {
            Outcome::Scored(s) => assert_eq!(s.llrs, mock_llrs(samples, 2)),
            other => panic!("job unresolved: {other:?}"),
        }
    }
    assert_eq!(engine.stats().completed, 2);
    engine.shutdown();
}

#[test]
fn engine_shutdown_is_idempotent_and_submissions_after_it_fail_fast() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            queue_capacity: 16,
            unknown_threshold: None,
        },
        Arc::new(ScorerHandle::new(Arc::new(MockScorer { classes: 2 }), 0)),
        None,
        ServeObs::new(8),
    );

    // In-flight work submitted before shutdown resolves (drain, not drop).
    let receivers: Vec<_> = (0..8)
        .map(|i| engine.submit(vec![i as f32]).expect("pre-shutdown submit"))
        .collect();

    engine.shutdown();
    engine.shutdown(); // back-to-back: must be a no-op, not a deadlock

    for (i, rx) in receivers.into_iter().enumerate() {
        match rx.recv().expect("pre-shutdown work resolves") {
            Outcome::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[i as f32], 2)),
            other => panic!("pre-shutdown submit {i} unresolved: {other:?}"),
        }
    }

    // Submissions after shutdown return immediately with the typed error —
    // no hang, no panic.
    for _ in 0..4 {
        match engine.submit(vec![1.0]) {
            Err(SubmitError::ShuttingDown) => {}
            Ok(_) => panic!("submit after shutdown must not be accepted"),
            Err(other) => panic!("wrong error after shutdown: {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 8);

    engine.shutdown(); // still idempotent after rejected submissions
}

#[test]
fn deadline_zero_means_no_deadline_on_the_wire() {
    // deadline_ms == 0 must travel as "no deadline", not "already expired".
    let server = start_server(Arc::new(MockScorer { classes: 2 }), fast_config());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(&[3.0], Some(Duration::from_millis(0)))
        .expect("submit");
    let (_, reply) = client.recv().expect("reply");
    match reply {
        ScoreReply::Scored(s) => assert_eq!(s.llrs, mock_llrs(&[3.0], 2)),
        other => panic!("zero deadline must not expire anything: {other:?}"),
    }
    client.shutdown().expect("shutdown");
    server.join();
}

/// A peer that pipelines stats-v3 requests and reads nothing. Its
/// connection holds at most a window of unwritten replies, so the reader
/// stops reading and TCP pushes back on the peer until its writes block;
/// once the server's writer has made no progress for [`WRITE_STALL`] it
/// gives the connection up (the peer's blocked write fails), and the
/// server still joins.
#[test]
fn a_peer_that_never_reads_is_dropped_after_the_write_stall() {
    let server = start_server(Arc::new(MockScorer { classes: 3 }), fast_config());
    let peer = TcpStream::connect(server.local_addr()).expect("connect");
    let mut sending = peer.try_clone().expect("clone");
    let (sent, refused) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stats = encode_request(&Request::StatsV3);
        let mut requests = 0u64;
        while write_frame(&mut sending, &stats).is_ok() {
            requests += 1;
        }
        let _ = sent.send(requests);
    });
    let started = Instant::now();
    let slack = Duration::from_secs(10);
    let requests = refused.recv_timeout(WRITE_STALL + slack);
    // Unblocks the sender if the server never gave it up.
    let _ = peer.shutdown(Shutdown::Both);
    let requests = requests.expect("the server kept a peer that reads nothing");
    let took = started.elapsed();
    let live = connections_reach(&server, 0, slack);
    assert_eq!(live, 0, "the given-up connection is still running");
    eprintln!("non-reader: {requests} requests written, refused after {took:?}");
    server.stop();
    server.join();
}

fn score_frame(id: u64) -> Vec<u8> {
    encode_request(&Request::ScoreV2 {
        id,
        deadline_ms: 0,
        samples: vec![0.25; 80],
    })
}

/// A peer that keeps sending scores at a stopped server is refused
/// `shutting down` for at most [`WRITE_STALL`] after the stop, then cut
/// off at a frame boundary whatever still arrives: it cannot hold its
/// connection, and so `Server::join`, for longer.
#[test]
fn a_peer_that_keeps_sending_at_a_stopped_server_is_cut_off_after_the_write_stall() {
    let server = start_server(Arc::new(MockScorer { classes: 3 }), fast_config());
    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    // One score answered first: the connection is being served.
    write_frame(&mut peer, &score_frame(0)).expect("send");
    let first = read_frame(&mut peer).expect("read").expect("a reply");
    assert!(decode_score_reply_v2(&first).expect("decodes").1.is_ok());

    server.stop();
    let mut sending = peer.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let mut sent = 0u64;
        while write_frame(&mut sending, &score_frame(sent + 1)).is_ok() {
            sent += 1;
        }
        sent
    });
    let reader = std::thread::spawn(move || {
        let mut refused = 0u64;
        while let Ok(Some(frame)) = read_frame(&mut peer) {
            let (id, outcome) = decode_score_reply_v2(&frame).expect("a score reply");
            assert_eq!(outcome.err(), Some(STATUS_SHUTTING_DOWN), "score {id}");
            refused += 1;
        }
        refused
    });
    let started = Instant::now();
    server.join();
    let took = started.elapsed();
    let refused = reader.join().expect("every reply after the stop refused");
    let sent = sender.join().expect("sender");
    eprintln!("sent {sent} scores after the stop, {refused} refused; join took {took:?}");
    assert!(refused > 0, "the peer's scores were read and refused");
    assert!(
        took < WRITE_STALL + Duration::from_secs(5),
        "join took {took:?} beside a peer that never stops sending"
    );
}
