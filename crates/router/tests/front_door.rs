//! The one front door, at both kinds of process. A scoring `Server` and a
//! `Router` over such a server keep the same connection contract: an
//! unknown tag is refused `bad request` and the connection closes,
//! stats-v3 and flight are answered, and a score past the window is
//! refused `overloaded` under its own id while the admitted one is still
//! answered. A client's shutdown through a router is acknowledged, relayed
//! to every replica, and then stops the router. A backend ejected while its
//! replica is still up closes its data connection on both sides, so the
//! replica never holds more than the one the router reconnects.
//!
//! The router's two fleet promises, held by gates instead of clocks: N
//! pipelined scores on one client are held by N different replicas at the
//! same time, and a replica that stops leaves rotation at its first
//! `shutting down` reply while every request is still answered exactly
//! once, a score routed to it after the stop included.
//!
//! Scores whose samples are not audio are refused `bad request` by the
//! replica, and the router relays that under the client's id.

use lre_lattice::DecodeScratch;
use lre_obs::MetricValue;
use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::protocol::encode_request;
use lre_serve::server::MIN_SAMPLES;
use lre_serve::{
    fuzz, read_frame, write_frame, Client, EngineConfig, Request, ScoreDetail, ScoreReply, Scorer,
    ScorerHandle, Server, ServerConfig, ServerHooks,
};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a test waits for a state its gates make certain before it
/// fails: a failure deadline, never a pacing delay.
const DEADLINE: Duration = Duration::from_secs(30);

/// A scorer that holds every call while its gate is shut, so "a score is
/// outstanding" is a state the test sets, not a race. It counts the calls
/// that reached it, so "this replica holds a score" is one it can await.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    open: bool,
    entered: usize,
}

impl Gate {
    fn new(open: bool) -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(GateState { open, entered: 0 }),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// The calls that have reached the scorer once `n` have, or at the
    /// [`DEADLINE`].
    fn await_entered(&self, n: usize) -> usize {
        let deadline = Instant::now() + DEADLINE;
        let mut state = self.state.lock().unwrap();
        while state.entered < n && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
        state.entered
    }
}

/// Opens every gate when dropped, so a test that fails while its scores
/// are held unwinds instead of waiting on them.
struct OpenOnDrop(Vec<Arc<Gate>>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.iter().for_each(|g| g.release());
    }
}

impl Scorer for Gate {
    fn score_utt(&self, samples: &[f32], _scratch: &mut DecodeScratch) -> ScoreDetail {
        let mut state = self.state.lock().unwrap();
        state.entered += 1;
        self.cv.notify_all();
        while !state.open {
            state = self.cv.wait(state).unwrap();
        }
        ScoreDetail::from_fused(samples, vec![0.5, -0.5])
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

fn start_router(
    replicas: &[&Server],
    max_inflight: usize,
    health_interval: Duration,
) -> (Router, Arc<RouterObs>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let obs = RouterObs::new(8);
    let backends = replicas
        .iter()
        .map(|s| Arc::new(Backend::new(s.local_addr().to_string(), &obs)))
        .collect();
    let cfg = RouterConfig {
        max_inflight,
        health_interval,
        ..RouterConfig::default()
    };
    let router = Router::start(listener, backends, cfg, None, Arc::clone(&obs));
    (router.expect("router starts"), obs)
}

/// The health thread's cadence in the tests that rely on it.
const PROBE_OFTEN: Duration = Duration::from_millis(25);

/// A health thread that probes once, at start: in the tests that use it, a
/// replica leaves rotation only by what its data connection says.
const PROBE_ONCE: Duration = Duration::from_secs(3600);

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

    let held = client.submit(&[1.0; MIN_SAMPLES], None).expect("submit");
    let past = client.submit(&[2.0; MIN_SAMPLES], None).expect("submit");
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
    let (router, _) = start_router(&[&replica], 1, PROBE_OFTEN);
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
    let (router, _) = start_router(&[&replicas[0], &replicas[1]], 4, PROBE_OFTEN);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    for _ in 0..4 {
        let reply = client.score(&[0.25; MIN_SAMPLES]).expect("score");
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

/// Run `body` on a thread of its own, failing the test if it has not
/// finished by twice the [`DEADLINE`] (past any wait of its own): a score
/// that never comes back fails the test instead of hanging it.
fn within_deadline(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let body = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    let limit = 2 * DEADLINE;
    if finished.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
        panic!("the test did not finish within {limit:?}");
    }
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

/// N pipelined scores on one client are held by N different replicas at
/// the same time: with every gate shut, each one-worker replica's scorer
/// holds exactly one of them. A router that forwarded a score only after
/// the previous reply, or always to the same replica, leaves a replica
/// without one.
#[test]
fn n_pipelined_scores_are_held_by_n_replicas_at_once() {
    for n in [2usize, 3] {
        within_deadline(move || {
            let gates: Vec<Arc<Gate>> = (0..n).map(|_| Gate::new(false)).collect();
            let replicas: Vec<Server> = gates
                .iter()
                .map(|g| start_server(Arc::clone(g), 4))
                .collect();
            let (router, _) = start_router(&replicas.iter().collect::<Vec<_>>(), 8, PROBE_ONCE);
            let mut client = Client::connect(router.local_addr()).expect("connect");
            let _open = OpenOnDrop(gates.clone());
            let mut sent: HashSet<u64> = (0..n)
                .map(|k| {
                    client
                        .submit(&[k as f32; MIN_SAMPLES], None)
                        .expect("submit")
                })
                .collect();

            for (i, gate) in gates.iter().enumerate() {
                assert_eq!(gate.await_entered(1), 1, "{n} replicas: replica {i} holds");
            }

            gates.iter().for_each(|g| g.release());
            for _ in 0..n {
                let (id, reply) = client.recv().expect("a reply");
                assert!(
                    sent.remove(&id),
                    "{n} replicas: reply {id} twice or unasked"
                );
                assert!(matches!(reply, ScoreReply::Scored(_)), "{reply:?}");
            }
            client.shutdown().expect("shutdown acknowledged");
            for replica in replicas {
                replica.join();
            }
            router.join();
        });
    }
}

/// A replica stopped with scores in flight leaves rotation at its first
/// `shutting down` reply: `router.backend.ejected` reads 1 as that reply
/// arrives, nothing is routed to it afterwards, the survivor scores the
/// next 16, and every request is answered exactly once, the held ones
/// included.
#[test]
fn a_stopped_replica_leaves_rotation_at_its_first_shutting_down_reply() {
    within_deadline(|| {
        let gates = [Gate::new(false), Gate::new(false)];
        // The victim has a window of one, so a second score bounces off it.
        let victim = start_server(Arc::clone(&gates[0]), 1);
        let survivor = start_server(Arc::clone(&gates[1]), 4);
        let (router, obs) = start_router(&[&victim, &survivor], 32, PROBE_ONCE);
        let ejected = obs.registry.counter("router.backend.ejected");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let _open = OpenOnDrop(gates.to_vec());
        let mut sent = HashSet::new();
        let mut submit = |client: &mut Client, x: f32| {
            let id = client.submit(&[x; MIN_SAMPLES], None).expect("submit");
            sent.insert(id);
            id
        };
        let mut answered = HashSet::new();
        let mut recv = |client: &mut Client| {
            let (id, reply) = client.recv().expect("a reply");
            assert!(answered.insert(id), "reply {id} twice");
            (id, reply)
        };

        // One score held by each replica, then a third that ties at one in
        // flight each: it goes to the victim, whose full window refuses it
        // at once. So the victim's reader has just read a frame.
        let held = [submit(&mut client, 1.0), submit(&mut client, 2.0)];
        let bounced = submit(&mut client, 3.0);
        let (id, reply) = recv(&mut client);
        assert_eq!(id, bounced);
        assert!(matches!(reply, ScoreReply::Overloaded), "{reply:?}");
        assert_eq!(gates[0].await_entered(1), 1, "the victim holds one score");
        assert_eq!(gates[1].await_entered(1), 1, "the survivor holds one score");

        // The next score ties again and reaches the stopped victim.
        victim.stop();
        let refused = submit(&mut client, 4.0);
        let (id, reply) = recv(&mut client);
        assert_eq!(id, refused);
        assert!(matches!(reply, ScoreReply::ShuttingDown), "{reply:?}");
        assert_eq!(ejected.get(), 1, "ejected at its first shutting-down reply");
        assert!(!router.backends()[0].is_healthy());

        // Out of rotation: the survivor scores the next 16, the victim none.
        gates[1].release();
        let (id, reply) = recv(&mut client);
        assert_eq!(id, held[1]);
        assert!(matches!(reply, ScoreReply::Scored(_)), "{reply:?}");
        for k in 0..16 {
            let id = submit(&mut client, 10.0 + k as f32);
            let (got, reply) = recv(&mut client);
            assert_eq!(got, id);
            assert!(
                matches!(reply, ScoreReply::Scored(_)),
                "score {k}: {reply:?}"
            );
        }
        assert_eq!(survivor.engine().stats().requests, 17);
        assert_eq!(router.backends()[0].inflight(), 1, "only the held score");

        // The victim still owes the score it holds, and answers it.
        gates[0].release();
        let (id, reply) = recv(&mut client);
        assert_eq!(id, held[0]);
        assert!(matches!(reply, ScoreReply::Scored(_)), "{reply:?}");
        assert_eq!(answered, sent, "every request answered exactly once");
        assert_eq!(client.inflight(), 0);
        assert_eq!(ejected.get(), 1);

        client.shutdown().expect("shutdown acknowledged");
        victim.join();
        survivor.join();
        router.join();
    });
}

/// A replica stopped while it holds a score still answers a score the
/// router sends it afterwards: `shutting down`, which takes it out of
/// rotation, and then the held score once it is scored. The later score
/// arrives only after the replica's readers have gone a quiet tick past
/// the stop: a direct connection to the replica that was last active just
/// after the held score arrived is closed by then. A data connection whose
/// reader stopped there would leave the later score unread until the held
/// work ended.
#[test]
fn a_score_routed_to_a_stopped_replica_that_still_owes_replies_is_answered() {
    within_deadline(|| {
        let gate = Gate::new(false);
        let victim = start_server(Arc::clone(&gate), 4);
        let (router, obs) = start_router(&[&victim], 8, PROBE_ONCE);
        let ejected = obs.registry.counter("router.backend.ejected");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let _open = OpenOnDrop(vec![Arc::clone(&gate)]);

        let held = client.submit(&[1.0; MIN_SAMPLES], None).expect("submit");
        assert_eq!(gate.await_entered(1), 1, "the victim holds one score");
        let mut idle = TcpStream::connect(victim.local_addr()).expect("connect");
        idle.set_read_timeout(Some(DEADLINE)).expect("timeout");
        write_frame(&mut idle, &encode_request(&Request::StatsV3)).expect("stats");
        read_frame(&mut idle)
            .expect("stats reply")
            .expect("a frame");

        victim.stop();
        let closed = read_frame(&mut idle).expect("a close, not a timeout");
        assert_eq!(closed, None, "the idle connection closes past the stop");
        assert!(
            router.backends()[0].is_healthy(),
            "nothing told the router yet"
        );

        let later = client.submit(&[2.0; MIN_SAMPLES], None).expect("submit");
        let (id, reply) = client.recv().expect("the later score is answered");
        assert_eq!(id, later);
        assert_eq!(reply, ScoreReply::ShuttingDown);
        assert_eq!(ejected.get(), 1, "ejected at its shutting-down reply");
        assert!(!router.backends()[0].is_healthy());

        gate.release();
        let (id, reply) = client.recv().expect("the held score is answered");
        assert_eq!(id, held);
        assert!(matches!(reply, ScoreReply::Scored(_)), "{reply:?}");
        assert_eq!(client.inflight(), 0);
        victim.join();
        assert_eq!(router.backends()[0].inflight(), 0);
        assert_eq!(ejected.get(), 1);
        client.shutdown().expect("shutdown acknowledged");
        router.join();
    });
}

/// Every bad-audio case through the router: on a fresh connection, `bad
/// request` under its id and then the stats reply; on one pipelined
/// connection, the same refusal under the client's id, and the next score
/// scored. The replica counts each in `engine.bad_audio`, and the
/// router's stats-v3 dump carries that series from its scrape.
#[test]
fn bad_audio_through_the_router_is_refused_under_the_clients_id() {
    within_deadline(|| {
        let replica = start_server(Gate::new(true), 4);
        let (router, _) = start_router(&[&replica], 8, PROBE_ONCE);
        let corpus = fuzz::bad_audio_corpus();
        for case in &corpus {
            fuzz::run_case(router.local_addr(), case, DEADLINE)
                .unwrap_or_else(|e| panic!("case {:?}: {e}", case.name));
        }
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for case in &corpus {
            let frame = read_frame(&mut &case.bytes[..]).unwrap().expect("a frame");
            let Ok(Request::ScoreV2 { samples, .. }) = lre_serve::protocol::decode_request(&frame)
            else {
                panic!("{}: not a score", case.name);
            };
            let id = client.submit(&samples, None).expect("submit");
            assert_eq!(client.recv().expect("reply"), (id, ScoreReply::BadRequest));
            let reply = client.score(&[0.5; MIN_SAMPLES]).expect("the next score");
            assert!(
                matches!(reply, ScoreReply::Scored(_)),
                "{}: {reply:?}",
                case.name
            );
        }
        let refused = 2 * corpus.len() as u64;
        let bad_audio = |dump: Vec<(String, MetricValue)>, name: &str| match dump
            .into_iter()
            .find(|(n, _)| n == name)
        {
            Some((_, MetricValue::Counter(v))) => v,
            other => panic!("{name}: {other:?}"),
        };
        let direct = Client::connect(replica.local_addr()).and_then(|mut c| c.metrics());
        let direct = direct.expect("metrics").expect("stats-v3");
        assert_eq!(bad_audio(direct, "engine.bad_audio"), refused);
        let fleet = client.metrics().expect("metrics").expect("stats-v3");
        let name = format!("replica.{}.engine.bad_audio", replica.local_addr());
        assert_eq!(bad_audio(fleet, &name), refused);
        assert_eq!(replica.engine().stats().requests, corpus.len() as u64);
        client.shutdown().expect("shutdown acknowledged");
        replica.join();
        router.join();
    });
}
