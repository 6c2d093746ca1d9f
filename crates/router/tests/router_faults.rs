//! Deterministic fault injection against a real router: a scripted
//! replica dies with a pipeline of requests in flight and the router must
//! answer every outstanding request exactly once with a typed status — no
//! hangs, no torn frames, no duplicates — then re-admit the replica once
//! it is answering health probes again.

use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::protocol::{
    decode_request, encode_ok, encode_score_ok_v2, read_frame, write_frame, PingReport, Request,
};
use lre_serve::{PipelinedClient, ScoreReply, ScoredUtt};
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
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
            Ok(Request::Ping) => {
                if !alive.load(Ordering::SeqCst) {
                    return; // close without a reply: the probe fails
                }
                let reply = encode_ok(&PingReport {
                    generation: 0,
                    inflight: 0,
                    shed: 0,
                    completed: 0,
                });
                if write_frame(&mut stream, &reply).is_err() {
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
                    span: None,
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
    let router = Router::start(listener, backends, fast_health(), None, obs).expect("start router");

    let mut client = PipelinedClient::connect(router.local_addr()).expect("connect");
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
    assert_eq!(
        router.backends()[0].completed.load(Ordering::Relaxed),
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

    let mut client = PipelinedClient::connect(router.local_addr()).expect("connect");
    let id = client.submit(&[0.0f32; 8], None).expect("submit");
    let (rid, reply) = client.recv().expect("typed refusal");
    assert_eq!(rid, id);
    assert!(matches!(reply, ScoreReply::Overloaded), "got {reply:?}");
    router.stop();
}
