//! The one front door, at both kinds of process. A scoring `Server` and a
//! `Router` over such a server keep the same connection contract: an
//! unknown tag is refused `bad request` and the connection closes,
//! stats-v3 and flight are answered, and a score past the window is
//! refused `overloaded` under its own id while the admitted one is still
//! answered. A client's shutdown through a router is acknowledged, relayed
//! to every replica, and then stops the router. A backend ejected while its
//! replica is still up closes its data connection on both sides, so the
//! replica never holds more than the one the router reconnects.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::{
    read_frame, write_frame, Client, EngineConfig, ScoreDetail, ScoreReply, Scorer, ScorerHandle,
    Server, ServerConfig, ServerHooks,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A scorer that holds every call while its gate is shut, so "a score is
/// outstanding" is a state the test sets, not a race.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(open: bool) -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(open),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl Scorer for Gate {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        Ok(ScoreDetail::from_fused(samples, vec![0.5, -0.5]))
    }
}

fn start_server(scorer: Arc<Gate>, max_inflight: usize) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 8,
            unknown_threshold: None,
        },
        max_inflight,
    };
    let handle = Arc::new(ScorerHandle::new(scorer, 0));
    Server::start(listener, handle, cfg, ServerHooks::default()).expect("server starts")
}

fn start_router(replicas: &[&Server], max_inflight: usize) -> Router {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let obs = RouterObs::new(8);
    let backends = replicas
        .iter()
        .map(|s| Arc::new(Backend::new(s.local_addr().to_string(), &obs)))
        .collect();
    let cfg = RouterConfig {
        max_inflight,
        health_interval: Duration::from_millis(25),
        ..RouterConfig::default()
    };
    Router::start(listener, backends, cfg, None, obs).expect("router starts")
}

/// What a door at `addr` with a window of 1 answers, in order. `gate` holds
/// the score it admits until the refusal past the window has come back.
fn transcript(addr: SocketAddr, gate: &Gate) -> Vec<String> {
    let mut said = Vec::new();
    let mut raw = TcpStream::connect(addr).expect("connect");
    write_frame(&mut raw, &[0xEE]).expect("send an unknown tag");
    let reply = read_frame(&mut raw).expect("a reply");
    let then = read_frame(&mut raw).expect("a clean close");
    said.push(format!("unknown tag: {reply:?}, then {then:?}"));

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.metrics().expect("stats-v3");
    said.push(format!("stats-v3 answered: {}", stats.is_some()));
    let flight = client.flight(false).expect("flight");
    said.push(format!("flight answered: {}", flight.is_some()));

    let held = client.submit(&[1.0], None).expect("submit");
    let past = client.submit(&[2.0], None).expect("submit");
    let (id, reply) = client.recv().expect("the refusal");
    said.push(format!("past the window: {reply:?}, own id {}", id == past));
    gate.release();
    let (id, reply) = client.recv().expect("the admitted score");
    let scored = matches!(reply, ScoreReply::Scored(_));
    said.push(format!("admitted: scored {scored}, own id {}", id == held));
    assert_eq!(client.inflight(), 0);
    client.shutdown().expect("shutdown acknowledged");
    said
}

#[test]
fn server_and_router_keep_one_connection_contract() {
    let expected = [
        "unknown tag: Some([2]), then None",
        "stats-v3 answered: true",
        "flight answered: true",
        "past the window: Overloaded, own id true",
        "admitted: scored true, own id true",
    ];

    let gate = Gate::new(false);
    let server = start_server(Arc::clone(&gate), 1);
    let direct = transcript(server.local_addr(), &gate);
    server.join();
    assert_eq!(direct, expected, "at the server");

    let gate = Gate::new(false);
    let replica = start_server(Arc::clone(&gate), 4);
    let router = start_router(&[&replica], 1);
    let routed = transcript(router.local_addr(), &gate);
    router.join();
    replica.join();
    assert_eq!(routed, direct, "the router answers like the server");
}

#[test]
fn a_shutdown_through_the_router_is_acked_relayed_then_stops_it() {
    let replicas = [
        start_server(Gate::new(true), 4),
        start_server(Gate::new(true), 4),
    ];
    let router = start_router(&[&replicas[0], &replicas[1]], 4);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    for _ in 0..4 {
        let reply = client.score(&[0.25; 8]).expect("score");
        assert!(matches!(reply, ScoreReply::Scored(_)), "{reply:?}");
    }
    client
        .shutdown()
        .expect("the router acknowledges the shutdown");

    // Each join returns only once its door has stopped. They run on a
    // thread of their own so that a lost relay fails the test instead of
    // hanging it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for replica in replicas {
            replica.join();
            tx.send("replica").unwrap();
        }
        router.join();
        tx.send("router").unwrap();
    });
    for who in ["replica", "replica", "router"] {
        let joined = rx.recv_timeout(Duration::from_secs(20));
        assert_eq!(joined, Ok(who), "a {who} never stopped");
    }
}

/// The replica's live connections once they settle at `n` (or after 10 s:
/// a connection's thread ends once the router's side has closed).
fn settled(replica: &Server, n: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.connections() != n && Instant::now() < deadline {
        std::thread::yield_now();
    }
    replica.connections()
}

#[test]
fn ejecting_a_live_replica_closes_its_data_connection() {
    let replica = start_server(Gate::new(true), 4);
    let backend = Arc::new(Backend::new(
        replica.local_addr().to_string(),
        &RouterObs::new(8),
    ));
    backend.connect().expect("the replica is up");
    assert_eq!(settled(&replica, 1), 1, "one data connection");
    for round in 1..=5 {
        backend.eject();
        backend.health_step(Duration::from_secs(1));
        assert!(backend.is_healthy(), "round {round}: not re-admitted");
        assert_eq!(settled(&replica, 1), 1, "round {round}: data connections");
    }
    backend.close();
    assert_eq!(settled(&replica, 0), 0, "closed, yet connected");
    replica.stop();
    replica.join();
}
