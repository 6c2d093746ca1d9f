//! End-to-end observability suite, against a live TCP server.
//!
//! The contracts under test:
//!
//! - a traced score request comes back with a well-formed stage span —
//!   trace id preserved (or minted when the client sent 0), stage ids
//!   strictly increasing, offsets non-decreasing, reply stage last;
//! - the stats-v3 tag answers a name-sorted metrics snapshot whose core
//!   engine series (`engine.queue.wait_us`, `engine.latency_us`) moved
//!   with the traffic that was just served;
//! - the flight-recorder tag drains structured events over the wire
//!   exactly once (a drain empties the ring, a peek does not);
//! - every server answers stats-v3 and flight, even one started from
//!   `ServerHooks::default()`;
//! - stats-v2 is a view over the stats-v3 series: after scored replies,
//!   a window shed, a global shed, a deadline expiry, a scorer failure
//!   and an open-set unknown, every stats-v2 counter equals its series.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_obs::{HistogramSummary, MetricValue, EV_SWAP, STAGE_QUEUE, STAGE_REPLY};
use lre_serve::client::ScoreReply;
use lre_serve::protocol::MetricsDump;
use lre_serve::{
    Client, EngineConfig, ScoreDetail, Scorer, ScorerHandle, ServeObs, Server, ServerConfig,
    ServerHooks,
};
use std::net::TcpListener;
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
        max_global_inflight: 0,
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

#[test]
fn traced_request_returns_a_well_formed_span() {
    let (server, _obs, addr) = start_mock();
    let mut client = Client::connect(&addr).expect("connect");

    // trace id 0 asks the server to mint one.
    let reply = client
        .score_traced(&[0.25; 16], None, 0)
        .expect("traced score");
    let ScoreReply::Scored(scored) = reply else {
        panic!("expected a scored reply, got a refusal");
    };
    let span = scored.span.expect("traced reply carries a span");
    assert_ne!(span.trace_id, 0, "server minted a non-zero trace id");
    assert!(span.is_well_formed(), "stages: {:?}", span.stages);
    let stage_ids: Vec<u8> = span.stages.iter().map(|&(s, _)| s).collect();
    assert_eq!(stage_ids.first(), Some(&STAGE_QUEUE));
    assert_eq!(stage_ids.last(), Some(&STAGE_REPLY));

    // A caller-chosen trace id is preserved end to end.
    let reply = client
        .score_traced(&[0.5; 16], None, 0xDEAD_BEEF)
        .expect("traced score");
    let ScoreReply::Scored(scored) = reply else {
        panic!("expected a scored reply, got a refusal");
    };
    assert_eq!(scored.span.expect("span").trace_id, 0xDEAD_BEEF);

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
const HOLD: f32 = 9.0;
/// Top LLR is `samples[0] + 2`, so with the threshold at 0 this one is
/// flagged unknown.
const ALIEN: f32 = -5.0;

/// LLR `i` is `samples[0] + i`; `FAIL` returns an error and `HOLD` parks
/// the worker until the test opens the gate.
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

fn histogram(dump: &MetricsDump, name: &str) -> HistogramSummary {
    match dump.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Histogram(h))) => *h,
        other => panic!("{name} is not a histogram in the dump: {other:?}"),
    }
}

#[test]
fn stats_v2_is_a_view_over_the_stats_v3_series() {
    let scorer = Arc::new(ScriptedScorer::default());
    let mut cfg = fast_config();
    cfg.engine.workers = 1;
    cfg.engine.unknown_threshold = Some(0.0);
    cfg.max_inflight = 2;
    cfg.max_global_inflight = 3;
    let (server, _obs, addr) = start_server(Arc::clone(&scorer) as _, cfg);
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
    // Three of the server's three slots are taken after `b`'s first; its
    // second is shed by the global cap.
    let queued = b.submit(&[4.0], None).expect("submit");
    b.submit(&[5.0], None).expect("submit");
    assert_eq!(b.recv().expect("global refusal").1, ScoreReply::Overloaded);
    std::thread::sleep(Duration::from_millis(20));
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

    let stats = a.stats_v2().expect("stats-v2");
    let dump = a.metrics().expect("stats-v3").expect("always answered");
    let latency = histogram(&dump, "engine.latency_us");
    assert_eq!(stats.requests, counter(&dump, "engine.requests"));
    assert_eq!(stats.completed, latency.count);
    assert_eq!(stats.rejected, counter(&dump, "engine.rejected"));
    assert_eq!(stats.latency_us_sum, latency.sum);
    assert_eq!(stats.latency_us_max, latency.max);
    assert_eq!(stats.expired, counter(&dump, "engine.expired"));
    assert_eq!(stats.failed, counter(&dump, "engine.failed"));
    assert_eq!(stats.shed_global, counter(&dump, "engine.shed_global"));
    assert_eq!(stats.unknown, counter(&dump, "engine.unknown"));
    // Every kind of outcome in the script happened, and they add up.
    assert_eq!(
        (stats.completed, stats.rejected, stats.expired, stats.failed),
        (4, 2, 1, 1)
    );
    assert_eq!((stats.shed_global, stats.unknown), (1, 1));
    assert_eq!(stats.requests, 8);

    drop((a, b));
    server.stop();
    server.join();
}
