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
//! - a server started without telemetry refuses all three tags as
//!   `STATUS_UNSUPPORTED`, surfaced as `Ok(None)` by the client.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_obs::{MetricValue, EV_SWAP, STAGE_QUEUE, STAGE_REPLY};
use lre_serve::client::ScoreReply;
use lre_serve::{
    Client, EngineConfig, ScoreDetail, Scorer, ScorerHandle, ServeObs, Server, ServerConfig,
    ServerHooks,
};
use std::net::TcpListener;
use std::sync::Arc;

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

fn start_observed() -> (Server, Arc<ServeObs>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let obs = ServeObs::new(64);
    let handle = Arc::new(ScorerHandle::new(Arc::new(MockScorer { classes: 3 }), 0));
    let server = Server::start_adaptive(
        listener,
        handle,
        fast_config(),
        ServerHooks {
            obs: Some(Arc::clone(&obs)),
            ..ServerHooks::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    (server, obs, addr)
}

#[test]
fn traced_request_returns_a_well_formed_span() {
    let (server, _obs, addr) = start_observed();
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
    let (server, _obs, addr) = start_observed();
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
    let (server, obs, addr) = start_observed();
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
fn server_without_telemetry_refuses_the_new_tags() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(listener, Arc::new(MockScorer { classes: 3 }), fast_config())
        .expect("server starts");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.metrics().expect("metrics").is_none());
    assert!(client.flight(false).expect("flight").is_none());

    drop(client);
    server.stop();
    server.join();
}
