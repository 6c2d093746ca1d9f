//! End-to-end observability suite, against a live TCP server.
//!
//! The contracts under test:
//!
//! - every scored reply, at window 1 and pipelined, comes back with a
//!   well-formed stage span — a trace id the engine minted, stage ids
//!   strictly increasing, offsets non-decreasing, reply stage last — and
//!   the deadline and panic flight events carry the request's trace id;
//! - the stats-v3 tag answers a name-sorted metrics snapshot whose core
//!   engine series (`engine.queue.wait_us`, `engine.latency_us`) moved
//!   with the traffic that was just served;
//! - the flight-recorder tag drains structured events over the wire
//!   exactly once (a drain empties the ring, a peek does not);
//! - every server answers stats-v3 and flight, even one started from
//!   `ServerHooks::default()`;
//! - stats-v2 is a view over the stats-v3 series: after scored replies,
//!   a window shed, a deadline expiry, a scorer failure, an open-set
//!   unknown, a swap and a rollback, every stats-v2 field equals its
//!   series, and ping is `PingReport::from_stats` of that view, counting
//!   each refusal once;
//! - wal-status is a view over the `wal.*` series: against a WAL-backed
//!   server every field equals the log's own status after appends, a
//!   drain and a reopen over a torn tail, and a server without a WAL has
//!   no view. Neither kind mounts an adaptation controller, so both refuse
//!   a deep rollback `unsupported`.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_obs::{
    HistogramSummary, MetricValue, EV_DEADLINE, EV_PANIC, EV_SWAP, STAGE_QUEUE, STAGE_REPLY,
};
use lre_serve::client::ScoreReply;
use lre_serve::protocol::{MetricsDump, STATUS_UNSUPPORTED};
use lre_serve::{
    vote_wal_options, Client, DrainPath, EngineConfig, PingReport, ScoreDetail, ScoreTap, Scorer,
    ScorerHandle, ServeObs, Server, ServerConfig, ServerHooks, VoteLog, WalStatusInfo,
};
use lre_vsm::SparseVec;
use lre_wal::LOG_FILE;
use std::fs::OpenOptions;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

fn fast_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            unknown_threshold: None,
        },
        max_inflight: 16,
    }
}

fn start_server(scorer: Arc<dyn Scorer>, cfg: ServerConfig) -> (Server, Arc<ServeObs>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let hooks = ServerHooks::default();
    let obs = Arc::clone(&hooks.obs);
    let handle = Arc::new(ScorerHandle::new(scorer, 0));
    let server = Server::start(listener, handle, cfg, hooks).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, obs, addr)
}

fn start_mock() -> (Server, Arc<ServeObs>, String) {
    start_server(Arc::new(MockScorer { classes: 3 }), fast_config())
}

/// A well-formed span from the engine's mint: non-zero trace id, queue
/// mark first, reply mark last, stages in order and offsets monotone.
fn assert_minted_span(reply: &ScoreReply, what: &str) -> u64 {
    let ScoreReply::Scored(scored) = reply else {
        panic!("{what}: expected a scored reply, got {reply:?}");
    };
    let span = &scored.span;
    assert_ne!(
        span.trace_id, 0,
        "{what}: the engine mints a non-zero trace id"
    );
    assert!(span.is_well_formed(), "{what}: stages {:?}", span.stages);
    let stage_ids: Vec<u8> = span.stages.iter().map(|&(s, _)| s).collect();
    assert_eq!(stage_ids.first(), Some(&STAGE_QUEUE), "{what}");
    assert_eq!(stage_ids.last(), Some(&STAGE_REPLY), "{what}");
    span.trace_id
}

#[test]
fn traced_request_returns_a_well_formed_span() {
    let (server, _obs, addr) = start_mock();
    let mut client = Client::connect(&addr).expect("connect");
    let mut ids = std::collections::HashSet::new();

    // Window 1: submit and wait.
    for n in 0..4 {
        let reply = client.score(&[0.25 * n as f32; 16]).expect("score");
        ids.insert(assert_minted_span(&reply, &format!("window 1, utt {n}")));
    }
    // Window 8: replies arrive in completion order, each with its own span.
    let utts: Vec<Vec<f32>> = (0..16).map(|n| vec![n as f32; 16]).collect();
    let replies = client.score_all(&utts, 8, None).expect("pipelined scores");
    for (n, reply) in replies.iter().enumerate() {
        ids.insert(assert_minted_span(reply, &format!("window 8, utt {n}")));
    }
    assert_eq!(ids.len(), 20, "every request gets a trace id of its own");

    drop(client);
    server.stop();
    server.join();
}

#[test]
fn metrics_snapshot_moves_with_traffic_and_is_name_sorted() {
    let (server, _obs, addr) = start_mock();
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..8 {
        match client.score(&[1.0; 16]).expect("score") {
            ScoreReply::Scored(_) => {}
            other => panic!("unexpected refusal: {other:?}"),
        }
    }

    let entries = client
        .metrics()
        .expect("metrics request")
        .expect("telemetry is on");
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot must arrive name-sorted");

    let get = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("series {name} missing from snapshot"))
    };
    match get("engine.queue.wait_us") {
        MetricValue::Histogram(h) => assert_eq!(h.count, 8, "one pick-up per request"),
        other => panic!("engine.queue.wait_us has wrong kind: {other:?}"),
    }
    match get("engine.latency_us") {
        MetricValue::Histogram(h) => {
            assert_eq!(h.count, 8, "one latency sample per scored request");
            assert!(h.p50 <= h.p99 && h.p99 <= h.max, "quantiles ordered");
        }
        other => panic!("engine.latency_us has wrong kind: {other:?}"),
    }
    // The mock's top-1 language is always the last class (llr i = s + i),
    // so exactly one per-language sketch exists and holds all 8 scores.
    match get("score.llr.top1.lang02") {
        MetricValue::Sketch(s) => assert_eq!(s.count, 8),
        other => panic!("score.llr.top1.lang02 has wrong kind: {other:?}"),
    }

    drop(client);
    server.stop();
    server.join();
}

#[test]
fn flight_recorder_drains_over_the_wire_exactly_once() {
    let (server, obs, addr) = start_mock();
    obs.flight.record(EV_SWAP, "test swap", 3, 7, 0.5, -0.5);

    let mut client = Client::connect(&addr).expect("connect");
    // Peek leaves the ring intact.
    let peeked = client.flight(false).expect("flight").expect("telemetry on");
    assert_eq!(peeked.len(), 1);
    assert_eq!(peeked[0].kind, EV_SWAP);
    assert_eq!(peeked[0].detail, "test swap");
    assert_eq!((peeked[0].a, peeked[0].b), (3, 7));

    // Drain empties it; a second drain returns nothing.
    let drained = client.flight(true).expect("flight").expect("telemetry on");
    assert_eq!(drained.len(), 1);
    let empty = client.flight(true).expect("flight").expect("telemetry on");
    assert!(empty.is_empty(), "drain must consume the ring");

    drop(client);
    server.stop();
    server.join();
}

#[test]
fn a_server_from_default_hooks_answers_metrics_and_flight() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = Arc::new(ScorerHandle::new(Arc::new(MockScorer { classes: 3 }), 0));
    let server = Server::start(listener, handle, fast_config(), ServerHooks::default())
        .expect("server starts");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let entries = client
        .metrics()
        .expect("metrics")
        .expect("stats-v3 answered");
    assert!(entries.iter().any(|(n, _)| n == "engine.requests"));
    assert!(client.flight(false).expect("flight").is_some());

    drop(client);
    server.stop();
    server.join();
}

/// First samples the scripted scorer reacts to.
const FAIL: f32 = -1.0;
const PANIC: f32 = -2.0;
const HOLD: f32 = 9.0;
/// Top LLR is `samples[0] + 2`, so with the threshold at 0 this one is
/// flagged unknown.
const ALIEN: f32 = -5.0;

/// LLR `i` is `samples[0] + i`; `FAIL` returns an error, `PANIC` panics and
/// `HOLD` parks the worker until the test opens the gate.
#[derive(Default)]
struct ScriptedScorer {
    gate: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl ScriptedScorer {
    fn wait_held(&self) {
        let held = self.cv.wait_timeout_while(
            self.gate.lock().unwrap(),
            Duration::from_secs(10),
            |(_, held)| *held == 0,
        );
        assert!(
            !held.unwrap().1.timed_out(),
            "the hold never reached the scorer"
        );
    }

    fn release(&self) {
        self.gate.lock().unwrap().0 = true;
        self.cv.notify_all();
    }
}

impl Scorer for ScriptedScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        match samples[0] {
            FAIL => return Err(ArtifactError::Corrupt("scripted failure")),
            PANIC => panic!("scripted panic"),
            HOLD => {
                let mut gate = self.gate.lock().unwrap();
                gate.1 += 1;
                self.cv.notify_all();
                while !gate.0 {
                    gate = self.cv.wait(gate).unwrap();
                }
            }
            _ => {}
        }
        let llrs = (0..3).map(|i| samples[0] + i as f32).collect();
        Ok(ScoreDetail::from_fused(samples, llrs))
    }
}

fn counter(dump: &MetricsDump, name: &str) -> u64 {
    match dump.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(v))) => *v,
        other => panic!("{name} is not a counter in the dump: {other:?}"),
    }
}

fn gauge(dump: &MetricsDump, name: &str) -> u64 {
    match dump.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Gauge(v))) => *v,
        other => panic!("{name} is not a gauge in the dump: {other:?}"),
    }
}

fn histogram(dump: &MetricsDump, name: &str) -> HistogramSummary {
    match dump.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Histogram(h))) => *h,
        other => panic!("{name} is not a histogram in the dump: {other:?}"),
    }
}

/// Wait until `depth` requests sit on the engine's queue (its live
/// `engine.queue.depth` gauge), then until a `deadline` each took at
/// admission has passed: all of them were admitted before the depth was
/// seen, so their deadline instants lie at most `deadline` after it. The
/// engine sheds a request whose deadline is at or before the instant a
/// worker picks it up.
fn wait_queued_then_expired(obs: &ServeObs, depth: u64, deadline: Duration) {
    while gauge(&obs.registry.snapshot(), "engine.queue.depth") < depth {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(deadline);
}

#[test]
fn stats_v2_is_a_view_over_the_stats_v3_series() {
    let scorer = Arc::new(ScriptedScorer::default());
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    cfg.engine.unknown_threshold = Some(0.0);
    cfg.max_inflight = 2;
    let (server, obs, addr) = start_server(Arc::clone(&scorer) as _, cfg);
    let mut a = Client::connect(&addr).expect("connect");
    let mut b = Client::connect(&addr).expect("connect");

    // Scored, scored-but-unknown, failed.
    assert!(matches!(a.score(&[1.0]).expect("score"), ScoreReply::Scored(s) if !s.unknown));
    assert!(matches!(a.score(&[ALIEN]).expect("score"), ScoreReply::Scored(s) if s.unknown));
    assert_eq!(a.score(&[FAIL]).expect("score"), ScoreReply::Failed);

    // The hold parks the only worker; a request queued behind it with a
    // 1 ms deadline expires there. Both fill `a`'s window of 2, so a
    // third is shed by the window; the reader answers it after queueing
    // the first two.
    let hold = a.submit(&[HOLD], None).expect("submit");
    scorer.wait_held();
    let late = a
        .submit(&[2.0], Some(Duration::from_millis(1)))
        .expect("submit");
    a.submit(&[3.0], None).expect("submit");
    assert_eq!(a.recv().expect("window refusal").1, ScoreReply::Overloaded);
    // Another connection's window is its own: `b`'s request is admitted
    // and queued behind the hold too. Release only once both sit on the
    // queue and the late one's deadline has passed.
    let queued = b.submit(&[4.0], None).expect("submit");
    wait_queued_then_expired(&obs, 2, Duration::from_millis(1));
    scorer.release();

    let mut replies = std::collections::HashMap::new();
    while a.inflight() > 0 {
        let (id, reply) = a.recv().expect("reply");
        replies.insert(id, reply);
    }
    assert!(matches!(replies[&hold], ScoreReply::Scored(_)));
    assert_eq!(replies[&late], ScoreReply::DeadlineExceeded);
    let (id, reply) = b.recv().expect("reply");
    assert_eq!(id, queued);
    assert!(matches!(reply, ScoreReply::Scored(_)));

    // A swap and a rollback, as the adaptation loop installs them.
    let handle = server.engine().scorer_handle();
    let parent = handle.current();
    handle.swap(Arc::new(ScriptedScorer::default()), 1);
    handle.rollback_to(&parent);

    let stats = a.stats_v2().expect("stats-v2");
    let dump = a.metrics().expect("stats-v3").expect("always answered");
    let latency = histogram(&dump, "engine.latency_us");
    assert_eq!(stats.requests, counter(&dump, "engine.requests"));
    assert_eq!(stats.completed, latency.count);
    assert_eq!(stats.rejected, counter(&dump, "engine.rejected"));
    assert_eq!(
        stats.max_queue_depth,
        gauge(&dump, "engine.queue.max_depth")
    );
    assert_eq!(stats.latency_us_sum, latency.sum);
    assert_eq!(stats.latency_us_max, latency.max);
    // The clock reads later in the later dump.
    assert!(0 < stats.uptime_us && stats.uptime_us <= gauge(&dump, "engine.uptime_us"));
    assert_eq!(stats.expired, counter(&dump, "engine.expired"));
    assert_eq!(stats.failed, counter(&dump, "engine.failed"));
    assert_eq!(stats.generation, gauge(&dump, "engine.generation"));
    assert_eq!(stats.swaps, counter(&dump, "engine.swaps"));
    assert_eq!(stats.rollbacks, counter(&dump, "engine.rollbacks"));
    assert_eq!(stats.unknown, counter(&dump, "engine.unknown"));
    // Every kind of outcome in the script happened, and they add up.
    assert_eq!(
        (stats.completed, stats.rejected, stats.expired, stats.failed),
        (4, 1, 1, 1)
    );
    assert_eq!(stats.unknown, 1);
    assert_eq!(stats.requests, 7);
    // The expiring request and `b`'s queued one waited behind the hold;
    // every request has been answered, so none is queued now.
    assert_eq!(stats.max_queue_depth, 2);
    assert_eq!(gauge(&dump, "engine.queue.depth"), 0);
    assert_eq!((stats.generation, stats.swaps, stats.rollbacks), (2, 2, 1));
    // Ping is the same view, summed up; nothing moved in between. Its
    // `shed` is the window refusal and the expiry, once each.
    let ping = a.ping().expect("ping");
    assert_eq!(ping, PingReport::from_stats(&stats));
    assert_eq!(
        ping,
        PingReport {
            generation: 2,
            inflight: 0,
            shed: 2,
            completed: 4,
        }
    );

    drop((a, b));
    server.stop();
    server.join();
}

#[test]
fn deadline_and_panic_events_carry_the_requests_trace_id() {
    let scorer = Arc::new(ScriptedScorer::default());
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    let (server, obs, addr) = start_server(Arc::clone(&scorer) as _, cfg);
    let mut client = Client::connect(&addr).expect("connect");

    assert_eq!(client.score(&[PANIC]).expect("score"), ScoreReply::Failed);
    // The hold parks the only worker, and a request with a 1 ms deadline
    // waits behind it. The gate opens only after it is on the queue and
    // its deadline has passed, so it expires there.
    let hold = client.submit(&[HOLD], None).expect("submit");
    scorer.wait_held();
    let late = client
        .submit(&[2.0], Some(Duration::from_millis(1)))
        .expect("submit");
    wait_queued_then_expired(&obs, 1, Duration::from_millis(1));
    scorer.release();
    let mut replies = std::collections::HashMap::new();
    while client.inflight() > 0 {
        let (id, reply) = client.recv().expect("reply");
        replies.insert(id, reply);
    }
    assert!(matches!(replies[&hold], ScoreReply::Scored(_)));
    assert_eq!(replies[&late], ScoreReply::DeadlineExceeded);

    let events = obs.flight.peek();
    let trace_of = |kind: u8| {
        let found: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.a)
            .collect();
        assert_eq!(found.len(), 1, "one {kind} event in {events:?}");
        found[0]
    };
    let (panicked, expired) = (trace_of(EV_PANIC), trace_of(EV_DEADLINE));
    assert_ne!(panicked, 0, "the panic event names its request");
    assert_ne!(expired, 0, "the deadline event names its request");
    assert_ne!(panicked, expired);

    drop(client);
    server.stop();
    server.join();
}

/// A vote carrying the intermediates a vote log keeps.
fn vote(digest: u64) -> ScoreDetail {
    ScoreDetail {
        digest,
        num_frames: 75,
        duration_index: 1,
        generation: 0,
        fused: vec![1.0, -1.0, 0.5],
        subsystem_scores: vec![vec![1.0, -1.0, 0.0]],
        supervectors: vec![SparseVec::from_pairs(vec![(0, 1.0)])],
        stage_us: Default::default(),
        stage_done: None,
    }
}

/// A server teeing into a vote log over the WAL in `dir` (`lre-serve
/// --fleet --wal-dir`, every append fsynced inline).
fn start_wal_server(dir: &Path) -> (Server, Arc<VoteLog>, String) {
    let mut hooks = ServerHooks::default();
    let mut opts = vote_wal_options();
    opts.fsync_interval = Duration::ZERO;
    let flight = Arc::clone(&hooks.obs.flight);
    let (log, _) = VoteLog::open(dir, 64, DrainPath::Wire, opts, &hooks.obs.registry, flight)
        .expect("WAL opens");
    let log = Arc::new(log);
    hooks.tap = Some(Arc::clone(&log) as _);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = Arc::new(ScorerHandle::new(Arc::new(MockScorer { classes: 3 }), 0));
    let server = Server::start(listener, handle, fast_config(), hooks).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, log, addr)
}

/// The view over the server's dump, field for field the log's own status.
fn assert_view_is_the_wal_status(addr: &str, log: &VoteLog) -> WalStatusInfo {
    let mut client = Client::connect(addr).expect("connect");
    let view = client
        .wal_status()
        .expect("stats-v3 round trip")
        .expect("a WAL-backed server has the view");
    let wal = log.wal_status().expect("opened on a directory");
    let want = WalStatusInfo {
        appended: wal.next_seq,
        low_water: wal.low_water,
        buffered: wal.buffered,
        segments: u64::from(wal.buffered > 0),
        replayed: wal.replayed,
        torn: wal.torn,
        fsyncs: wal.fsyncs,
        chain_ok: true,
        ..WalStatusInfo::default()
    };
    assert_eq!(view, want);
    view
}

#[test]
fn wal_status_is_a_view_over_the_wal_series() {
    let dir = std::env::temp_dir().join(format!("lre_obs_walview_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (server, log, addr) = start_wal_server(&dir);
        for digest in 0..5 {
            log.record(vote(digest));
        }
        let view = assert_view_is_the_wal_status(&addr, &log);
        assert_eq!((view.appended, view.buffered, view.fsyncs), (5, 5, 5));
        log.drain_at_least(1).expect("five buffered");
        let view = assert_view_is_the_wal_status(&addr, &log);
        assert_eq!((view.low_water, view.buffered, view.segments), (5, 0, 0));
        for digest in 5..8 {
            log.record(vote(digest));
        }
        assert_view_is_the_wal_status(&addr, &log);
        server.stop();
        server.join();
    }

    // Tear the last record, as a crash mid-append would.
    let wal_log = OpenOptions::new()
        .write(true)
        .open(dir.join(LOG_FILE))
        .expect("log exists");
    let len = wal_log.metadata().expect("stat").len();
    wal_log.set_len(len - 3).expect("cut");
    drop(wal_log);
    let (server, log, addr) = start_wal_server(&dir);
    let view = assert_view_is_the_wal_status(&addr, &log);
    assert_eq!(
        (view.appended, view.low_water, view.replayed, view.torn),
        (7, 5, 2, 1)
    );
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(
        client.rollback_to(0).expect("round trip"),
        Err(STATUS_UNSUPPORTED)
    );
    drop((client, log));
    server.stop();
    server.join();

    let (server, _obs, addr) = start_mock();
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(
        client.wal_status().expect("round trip"),
        None,
        "no WAL, no view"
    );
    assert_eq!(
        client.rollback_to(0).expect("round trip"),
        Err(STATUS_UNSUPPORTED)
    );
    drop(client);
    server.stop();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
