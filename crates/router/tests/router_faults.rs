//! Deterministic fault injection against a real router: a scripted
//! replica dies with a pipeline of requests in flight and the router must
//! answer every outstanding request exactly once with a typed status — no
//! hangs, no torn frames, no duplicates — then re-admit the replica once
//! it is answering health probes again. Fleet stats are the client's view
//! of the router's stats-v3 dump, built over scripted replicas that speak
//! stats-v3 only (the health probe and the scrape are the same request):
//! the aggregate is the sum of their views plus the router's sheds, an
//! ejected replica's row is its last probe, and a replica that stops
//! answering cannot wedge the reply.

use lre_obs::{Registry, TraceSpan, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE};
use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::protocol::{
    decode_request, encode_ok, encode_score_ok_v2, read_frame, write_frame, MetricsDump, Request,
};
use lre_serve::{fuzz, FleetStats, StatsSnapshot};
use lre_serve::{Client, PingReport, ReplicaStat, ScoreReply, ScoredUtt};
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A replica stand-in scripted from the test: scores until its budget
/// runs out, then kills the data connection mid-pipeline and stops
/// answering health probes (so re-admission happens exactly when the
/// test flips it back to life, never earlier).
struct FakeReplica {
    addr: String,
    alive: Arc<AtomicBool>,
    score_budget: Arc<AtomicI64>,
}

const FAKE_LLRS: [f32; 2] = [0.25, -0.75];

/// The span every fake score carries, as a mock-scored one would.
fn fake_span() -> TraceSpan {
    let mut span = TraceSpan::new(0xFA4E);
    span.mark(STAGE_QUEUE, 1);
    span.mark(STAGE_SCORE, 2);
    span.mark(STAGE_REPLY, 3);
    span
}

fn spawn_fake_replica(score_budget: i64) -> FakeReplica {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let addr = listener.local_addr().expect("local addr").to_string();
    let alive = Arc::new(AtomicBool::new(true));
    let budget = Arc::new(AtomicI64::new(score_budget));
    {
        let alive = Arc::clone(&alive);
        let budget = Arc::clone(&budget);
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let alive = Arc::clone(&alive);
                let budget = Arc::clone(&budget);
                thread::spawn(move || serve_fake_conn(stream, alive, budget));
            }
        });
    }
    FakeReplica {
        addr,
        alive,
        score_budget: budget,
    }
}

fn serve_fake_conn(mut stream: TcpStream, alive: Arc<AtomicBool>, budget: Arc<AtomicI64>) {
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        match decode_request(&frame) {
            Ok(Request::StatsV3) => {
                if !alive.load(Ordering::SeqCst) {
                    return; // close without a reply: the probe fails
                }
                if write_frame(&mut stream, &encode_ok(&MetricsDump::new())).is_err() {
                    return;
                }
            }
            Ok(Request::ScoreV2 { id, .. }) => {
                if budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
                    // Death mid-pipeline: play dead, drop the connection
                    // with requests still in flight.
                    alive.store(false, Ordering::SeqCst);
                    return;
                }
                let scored = ScoredUtt {
                    llrs: FAKE_LLRS.to_vec(),
                    decision: 0,
                    generation: 0,
                    span: fake_span(),
                    unknown: false,
                };
                if write_frame(&mut stream, &encode_score_ok_v2(id, &scored)).is_err() {
                    return;
                }
            }
            _ => return,
        }
    }
}

fn fast_health() -> RouterConfig {
    RouterConfig {
        health_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    }
}

#[test]
fn replica_death_mid_pipeline_fails_fast_typed_then_readmits() {
    const SCORED_BEFORE_DEATH: i64 = 3;
    const SUBMITTED: usize = 8;

    let fake = spawn_fake_replica(SCORED_BEFORE_DEATH);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let obs = RouterObs::new(8);
    let backends = vec![Arc::new(Backend::new(fake.addr.clone(), &obs))];
    let router = Router::start(listener, backends, fast_health(), None, Arc::clone(&obs))
        .expect("start router");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let samples = vec![0.5f32; 16];
    let mut outstanding: HashSet<u64> = HashSet::new();

    // Exactly one reply per id, every one of them typed: the ones the
    // replica answered before dying come back scored and bit-identical,
    // the rest fail fast (INTERNAL for in-flight orphans, OVERLOADED if
    // re-routing found the fleet empty) — never a hang or a torn frame.
    //
    // Sequenced on acknowledgements: the replies the replica's budget
    // allows are read back before the rest of the pipeline is sent into
    // the replica that then dies on its first request. Were all of them
    // sent at once, the replica would drop its socket with unread requests
    // buffered, and the kernel may answer that with a reset that discards
    // the replies it had just written before the router reads them.
    let mut scored = 0usize;
    let mut typed_failures = 0usize;
    let before = SCORED_BEFORE_DEATH as usize;
    for wave in [before, SUBMITTED - before] {
        for _ in 0..wave {
            assert!(outstanding.insert(client.submit(&samples, None).expect("submit")));
        }
        for _ in 0..wave {
            let (id, reply) = client.recv().expect("router always answers");
            assert!(
                outstanding.remove(&id),
                "duplicate or unknown reply id {id}"
            );
            match reply {
                ScoreReply::Scored(s) => {
                    let want: Vec<u32> = FAKE_LLRS.iter().map(|x| x.to_bits()).collect();
                    let got: Vec<u32> = s.llrs.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "routed score not bit-identical");
                    assert_eq!(s.span, fake_span(), "the replica's span comes through");
                    scored += 1;
                }
                ScoreReply::Failed | ScoreReply::Overloaded => typed_failures += 1,
                other => panic!("unexpected reply for {id}: {other:?}"),
            }
        }
    }
    assert!(outstanding.is_empty(), "unanswered ids: {outstanding:?}");
    assert_eq!(scored, SCORED_BEFORE_DEATH as usize);
    assert_eq!(typed_failures, SUBMITTED - SCORED_BEFORE_DEATH as usize);

    // While the replica plays dead every probe fails, so the backend
    // stays ejected and new requests are shed typed, immediately.
    let id = client.submit(&samples, None).expect("submit while down");
    let (rid, reply) = client.recv().expect("typed refusal");
    assert_eq!(rid, id);
    assert!(
        matches!(reply, ScoreReply::Overloaded | ScoreReply::Failed),
        "expected a typed refusal while the fleet is empty, got {reply:?}"
    );

    // Revive the replica: the health thread's doubling-backoff probes
    // must re-admit it, after which scoring works again end to end.
    fake.score_budget.store(i64::MAX, Ordering::SeqCst);
    fake.alive.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.backends()[0].is_healthy() {
        assert!(Instant::now() < deadline, "replica was never re-admitted");
        thread::sleep(Duration::from_millis(10));
    }
    let id = client
        .submit(&samples, None)
        .expect("submit after re-admission");
    let (rid, reply) = client.recv().expect("recv after re-admission");
    assert_eq!(rid, id);
    assert!(
        matches!(reply, ScoreReply::Scored(_)),
        "re-admitted replica should score again, got {reply:?}"
    );

    // Bookkeeping: nothing is still charged as in flight, and every
    // reply the backend produced was counted.
    assert_eq!(router.backends()[0].inflight(), 0);
    let routed = format!("router.backend.{}.latency_us", fake.addr);
    assert_eq!(
        obs.registry.histogram(&routed).count(),
        SCORED_BEFORE_DEATH as u64 + 1
    );
    router.stop();
}

#[test]
fn empty_fleet_refuses_typed_immediately() {
    // A replica address nothing listens on: admission fails at startup
    // and every request is refused OVERLOADED without hanging.
    let parked = TcpListener::bind("127.0.0.1:0").expect("bind parked");
    let dead_addr = parked.local_addr().expect("local addr").to_string();
    drop(parked);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let obs = RouterObs::new(8);
    let backends = vec![Arc::new(Backend::new(dead_addr, &obs))];
    let router = Router::start(listener, backends, fast_health(), None, obs).expect("start router");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let id = client.submit(&[0.0f32; 8], None).expect("submit");
    let (rid, reply) = client.recv().expect("typed refusal");
    assert_eq!(rid, id);
    assert!(matches!(reply, ScoreReply::Overloaded), "got {reply:?}");
    router.stop();
}

/// What a [`StatsReplica`] does with a stats-v3 request.
const ANSWER: u8 = 0;
/// Close the connection without a reply: the probe fails at once.
const CLOSE: u8 = 1;
/// Read the request and never reply, like a replica whose reader is
/// wedged: the probe fails at its timeout.
const STALL: u8 = 2;

/// A replica stand-in for fleet stats that speaks stats-v3 only: it
/// answers with `dump` while its mode is [`ANSWER`].
struct StatsReplica {
    addr: String,
    mode: Arc<AtomicU8>,
}

fn spawn_stats_replica(dump: MetricsDump) -> StatsReplica {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mode = Arc::new(AtomicU8::new(ANSWER));
    let shared_mode = Arc::clone(&mode);
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let (mode, dump) = (Arc::clone(&shared_mode), dump.clone());
            thread::spawn(move || {
                while let Ok(Some(frame)) = read_frame(&mut stream) {
                    let reply = match (decode_request(&frame), mode.load(Ordering::SeqCst)) {
                        (Ok(Request::StatsV3), ANSWER) => encode_ok(&dump),
                        (Ok(Request::StatsV3), STALL) => continue,
                        _ => return,
                    };
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    StatsReplica { addr, mode }
}

/// A replica's engine series as its registry would dump them.
fn engine_dump(counts: [u64; 5], latencies_us: &[u64], generation: u64) -> MetricsDump {
    let r = Registry::new();
    let names = [
        "engine.requests",
        "engine.rejected",
        "engine.expired",
        "engine.failed",
        "engine.unknown",
    ];
    for (name, n) in names.into_iter().zip(counts) {
        r.counter(name).add(n);
    }
    for &us in latencies_us {
        r.histogram("engine.latency_us").record(us);
    }
    r.gauge("engine.generation").set(generation);
    r.gauge("engine.queue.max_depth").set(generation + 4);
    r.gauge("engine.uptime_us").set(1_000 * generation);
    r.counter("engine.swaps").add(generation);
    r.counter("engine.rollbacks").add(1);
    r.snapshot()
}

/// A router over `replicas`, returned once every one has been probed.
fn stats_router(replicas: &[&StatsReplica]) -> (Router, Arc<RouterObs>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let obs = RouterObs::new(8);
    let backends = replicas
        .iter()
        .map(|r| Arc::new(Backend::new(r.addr.clone(), &obs)))
        .collect();
    let router = Router::start(listener, backends, fast_health(), None, Arc::clone(&obs))
        .expect("start router");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.backends().iter().all(|b| b.last_probe().is_some()) {
        assert!(Instant::now() < deadline, "a replica was never probed");
        thread::sleep(Duration::from_millis(10));
    }
    (router, obs)
}

fn fleet_stats(router: &Router) -> FleetStats {
    let mut client = Client::connect(router.local_addr()).expect("connect");
    client
        .try_fleet_stats()
        .expect("fleet stats round trip")
        .expect("a router aggregates")
}

/// What a healthy replica's row reads: its scraped view.
fn healthy_row(addr: &str, s: &StatsSnapshot) -> ReplicaStat {
    ReplicaStat {
        addr: addr.to_string(),
        healthy: true,
        generation: s.generation,
        inflight: 0,
        completed: s.completed,
        shed: s.rejected + s.expired,
    }
}

/// The aggregate of `views` plus the router's own sheds.
fn aggregate(views: &[StatsSnapshot], router_shed: u64) -> StatsSnapshot {
    let sum = |f: fn(&StatsSnapshot) -> u64| views.iter().map(f).sum::<u64>();
    let max = |f: fn(&StatsSnapshot) -> u64| views.iter().map(f).max().unwrap_or(0);
    StatsSnapshot {
        requests: sum(|s| s.requests) + router_shed,
        completed: sum(|s| s.completed),
        rejected: sum(|s| s.rejected) + router_shed,
        max_queue_depth: max(|s| s.max_queue_depth),
        latency_us_sum: sum(|s| s.latency_us_sum),
        latency_us_max: max(|s| s.latency_us_max),
        uptime_us: max(|s| s.uptime_us),
        expired: sum(|s| s.expired),
        failed: sum(|s| s.failed),
        generation: views.iter().map(|s| s.generation).min().unwrap_or(0),
        swaps: sum(|s| s.swaps),
        rollbacks: sum(|s| s.rollbacks),
        unknown: sum(|s| s.unknown),
    }
}

#[test]
fn fleet_stats_sum_the_replica_views_and_keep_an_ejected_rows_last_probe() {
    let dumps = [
        engine_dump([10, 2, 1, 1, 1], &[100, 200, 300], 3),
        engine_dump([6, 1, 0, 0, 0], &[50, 70], 2),
    ];
    let views = dumps
        .clone()
        .map(|d| StatsSnapshot::from_dump(&d).expect("an engine dump"));
    let a = spawn_stats_replica(dumps[0].clone());
    let b = spawn_stats_replica(dumps[1].clone());
    let (router, obs) = stats_router(&[&a, &b]);
    obs.shed.add(4);

    let both = fleet_stats(&router);
    assert_eq!(both.aggregate, aggregate(&views, 4));
    assert_eq!(both.aggregate.generation, 2, "the healthy minimum");
    assert_eq!(
        both.replicas,
        [
            healthy_row(&a.addr, &views[0]),
            healthy_row(&b.addr, &views[1])
        ]
    );
    // A router's ping is the same view of the fleet aggregate.
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let ping = client.ping().expect("ping round trip");
    assert_eq!(ping, PingReport::from_stats(&both.aggregate));
    assert_eq!((ping.generation, ping.completed), (2, 5));
    // The same scrape carries each replica's own dump under its prefix.
    let dump = client.metrics().expect("round trip").expect("stats-v3");
    for replica in [&a, &b] {
        let name = format!("replica.{}.engine.requests", replica.addr);
        assert!(dump.iter().any(|(n, _)| *n == name), "{name} missing");
    }
    // A router runs without a WAL: its dump has no `wal.*` series, so the
    // wal-status view is refused rather than proxied.
    assert_eq!(client.wal_status().expect("round trip"), None);

    // Replica b stops answering probes: ejected after two strikes, its
    // row is what its last probe said, and only a is summed.
    b.mode.store(CLOSE, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.backends()[1].is_healthy() {
        assert!(Instant::now() < deadline, "replica b was never ejected");
        thread::sleep(Duration::from_millis(10));
    }
    let one = fleet_stats(&router);
    assert_eq!(one.aggregate, aggregate(&views[..1], 4));
    assert_eq!(one.aggregate.generation, 3, "the healthy minimum");
    assert_eq!(
        one.replicas[1],
        ReplicaStat {
            addr: b.addr.clone(),
            healthy: false,
            generation: 2,
            inflight: 0,
            completed: 2,
            shed: 0,
        }
    );
    router.stop();
}

#[test]
fn fleet_stats_answer_when_a_replica_stops_answering_the_scrape() {
    let live = spawn_stats_replica(engine_dump([1; 5], &[10], 1));
    let stalled = spawn_stats_replica(engine_dump([1; 5], &[10, 20, 30, 40, 50], 1));
    let (router, _obs) = stats_router(&[&live, &stalled]);
    stalled.mode.store(STALL, Ordering::SeqCst);
    let fleet = fleet_stats(&router);
    assert!(fleet.replicas[0].healthy);
    assert!(
        !fleet.replicas[1].healthy,
        "a replica whose scrape fails is not a healthy row"
    );
    assert_eq!(fleet.replicas[1].completed, 5, "its last probe");
    router.stop();
}

#[test]
fn retired_tags_are_refused_bad_request() {
    let replica = spawn_stats_replica(engine_dump([1; 5], &[10], 1));
    let (router, _obs) = stats_router(&[&replica]);
    let corpus = fuzz::malformed_corpus();
    let retired: Vec<_> = corpus
        .iter()
        .filter(|c| c.name.starts_with("retired tag"))
        .collect();
    for tag in ["retired tag 7", "retired tag 13"] {
        assert!(
            retired.iter().any(|c| c.name == tag),
            "{tag} is not in the corpus"
        );
    }
    for case in retired {
        assert_eq!(case.expect, fuzz::Expect::BadRequest);
        fuzz::run_case(router.local_addr(), case, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("case {:?}: {e}", case.name));
    }
    router.stop();
}
