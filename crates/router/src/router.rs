//! The front tier: accept client connections, fan score requests over
//! the replica fleet, and answer the control plane (stats, ping, fleet
//! stats, adapt, rollback, shutdown) in one place.
//!
//! The data plane never re-encodes a score. A request is decoded once —
//! the full `decode_request`, samples included, so a frame the replica
//! would refuse is refused here — and then the *received bytes* are
//! forwarded with only the id (and a minted trace id) spliced in at the
//! offsets the protocol's tag table exports; the reply comes back with the
//! client's id spliced in and the scored bytes untouched, so routed scores
//! are bit-identical to direct ones.
//!
//! Per-request failure semantics mirror the server's typed statuses:
//! no healthy replica → `STATUS_OVERLOADED`; replica died after the
//! request was on the wire → `STATUS_INTERNAL` under the client's id
//! (fail fast — the replica may have scored it, so it is never
//! re-routed); a torn write before the replica saw a full frame is
//! re-routed once.

use crate::backend::{probe_round_trip, Backend, BackendTelemetry, Pending};
use crate::fleet::FleetAdapter;
use crate::ring::{hash_bytes, HashRing};
use lre_obs::{Counter, FlightRecorder, Registry};
use lre_serve::protocol::{
    decode_reply, decode_request, encode_ok, encode_status, encode_status_v2, read_frame,
    write_frame, Ack, FleetStats, PingReport, ReplicaStat, Request, RollbackAck, WalStatusInfo,
    SAMPLES_AT_TRACED, SAMPLES_AT_V2, STATUS_BAD_REQUEST, STATUS_INTERNAL, STATUS_OVERLOADED,
    STATUS_UNSUPPORTED, TRACE_ID,
};
use lre_serve::server::answer;
use lre_serve::{mint_trace_id, Client, StatsSnapshot};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How the router picks a replica for a score request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The healthy replica with the fewest requests in flight (ties go to
    /// the lowest index). The default: best latency under uneven load.
    LeastInflight,
    /// Consistent hash of the utterance samples over the ring: the same
    /// content always lands on the same replica while it is healthy, for
    /// replica-side cache affinity.
    Hash,
}

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    pub policy: Policy,
    /// Per-client-connection score window, enforced at the router exactly
    /// like at a single server.
    pub max_inflight: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Health thread cadence.
    pub health_interval: Duration,
    /// Connect/read timeout for health and control probes.
    pub probe_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            policy: Policy::LeastInflight,
            max_inflight: 32,
            vnodes: 64,
            health_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_secs(1),
        }
    }
}

/// The router's telemetry bundle: its own registry (per-backend routed
/// latency, eject/re-admit counters, router sheds) and the flight
/// recorder fed by backend health transitions and fleet rollouts. The
/// stats-v3 and flight protocol tags are answered from it.
pub struct RouterObs {
    pub registry: Arc<Registry>,
    pub flight: Arc<FlightRecorder>,
    /// `router.shed` — requests refused at the router itself.
    pub shed: Arc<Counter>,
}

impl RouterObs {
    pub fn new(flight_capacity: usize) -> Arc<RouterObs> {
        let registry = Arc::new(Registry::new());
        let shed = registry.counter("router.shed");
        Arc::new(RouterObs {
            registry,
            flight: Arc::new(FlightRecorder::new(flight_capacity)),
            shed,
        })
    }
}

struct Shared {
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
    policy: Policy,
    max_inflight: usize,
    /// Score requests in flight through the router, across all clients
    /// (an `Arc` because every pending entry holds a decrement duty).
    global_inflight: Arc<AtomicUsize>,
    /// Requests refused at the router (no healthy replica).
    shed: AtomicU64,
    fleet: Option<Arc<FleetAdapter>>,
    obs: Option<Arc<RouterObs>>,
    probe_timeout: Duration,
    stopping: AtomicBool,
    addr: SocketAddr,
}

/// Least-inflight selection: the healthy entry with the fewest requests
/// in flight, lowest index winning ties. Pure so the policy is testable
/// without a live fleet.
pub fn least_inflight(inflights: &[usize], healthy: &[bool]) -> Option<usize> {
    (0..inflights.len())
        .filter(|&i| healthy.get(i).copied().unwrap_or(false))
        .min_by_key(|&i| (inflights[i], i))
}

impl Shared {
    /// Count one refusal at the router (stats aggregate + telemetry).
    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.shed.incr();
        }
    }

    fn pick(&self, key_bytes: &[u8]) -> Option<Arc<Backend>> {
        let healthy: Vec<bool> = self.backends.iter().map(|b| b.is_healthy()).collect();
        let index = match self.policy {
            Policy::LeastInflight => {
                let inflights: Vec<usize> = self.backends.iter().map(|b| b.inflight()).collect();
                least_inflight(&inflights, &healthy)
            }
            Policy::Hash => self.ring.lookup(hash_bytes(key_bytes), &healthy),
        };
        index.map(|i| Arc::clone(&self.backends[i]))
    }
}

/// A running router.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Start routing over `backends` (one per replica address). Each
    /// backend gets one synchronous admission attempt so a fleet that is
    /// already up is routable before the first request; replicas that
    /// are still starting are admitted by the health thread.
    pub fn start(
        listener: TcpListener,
        backends: Vec<Arc<Backend>>,
        cfg: RouterConfig,
        fleet: Option<Arc<FleetAdapter>>,
    ) -> io::Result<Router> {
        Router::start_observed(listener, backends, cfg, fleet, None)
    }

    /// [`Router::start`] with telemetry: each backend gets a
    /// `router.backend.{addr}.latency_us` histogram plus the shared
    /// eject/re-admit counters, and the stats-v3 / flight tags are
    /// answered from `obs`.
    pub fn start_observed(
        listener: TcpListener,
        backends: Vec<Arc<Backend>>,
        cfg: RouterConfig,
        fleet: Option<Arc<FleetAdapter>>,
        obs: Option<Arc<RouterObs>>,
    ) -> io::Result<Router> {
        let addr = listener.local_addr()?;
        if let Some(o) = &obs {
            for b in &backends {
                b.set_telemetry(BackendTelemetry {
                    latency_us: o
                        .registry
                        .histogram(&format!("router.backend.{}.latency_us", b.addr)),
                    ejected: o.registry.counter("router.backend.ejected"),
                    readmitted: o.registry.counter("router.backend.readmitted"),
                    flight: Arc::clone(&o.flight),
                });
            }
        }
        for b in &backends {
            let _ = b.connect();
        }
        let shared = Arc::new(Shared {
            ring: HashRing::new(backends.len(), cfg.vnodes),
            backends,
            policy: cfg.policy,
            max_inflight: cfg.max_inflight.max(1),
            global_inflight: Arc::new(AtomicUsize::new(0)),
            shed: AtomicU64::new(0),
            fleet,
            obs,
            probe_timeout: cfg.probe_timeout,
            stopping: AtomicBool::new(false),
            addr,
        });
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.stopping.load(Ordering::SeqCst) {
                    for b in &shared.backends {
                        b.health_step(shared.probe_timeout);
                    }
                    std::thread::sleep(cfg.health_interval);
                }
            })
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_connection(stream, shared));
                }
            })
        };
        Ok(Router {
            addr,
            shared,
            accept: Some(accept),
            health: Some(health),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.shared.backends
    }

    /// Stop from the hosting process (equivalent to a client shutdown,
    /// without the fleet propagation).
    pub fn stop(&self) {
        trigger_stop(&self.shared.stopping, self.addr);
    }

    /// Block until shutdown is requested, then join the service threads.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

fn trigger_stop(stopping: &AtomicBool, addr: SocketAddr) {
    if !stopping.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// Admit and route one score frame of either tag: the connection's
/// window, then a replica. `None` means the reply arrives through the
/// pending machinery; `Some(frame)` is an immediate refusal. `trace` is
/// the request's trace id when it is a traced score.
fn admit_score(
    shared: &Shared,
    mut frame: Vec<u8>,
    client_id: u64,
    trace: Option<u64>,
    reply_tx: &mpsc::Sender<Vec<u8>>,
    window: &Arc<AtomicUsize>,
) -> Option<Vec<u8>> {
    if window.load(Ordering::Acquire) >= shared.max_inflight {
        shared.note_shed();
        return Some(encode_status_v2(client_id, STATUS_OVERLOADED));
    }
    // A zero trace id asks the serving tier to mint one; the router is the
    // admission point here, so it does — patched in place, the body
    // forwarded untouched.
    if trace == Some(0) {
        frame[TRACE_ID].copy_from_slice(&mint_trace_id().to_le_bytes());
    }
    // Hash affinity follows content, never ids: the key is the sample
    // region behind the fixed-size head.
    let samples_at = match trace {
        Some(_) => SAMPLES_AT_TRACED,
        None => SAMPLES_AT_V2,
    };
    window.fetch_add(1, Ordering::AcqRel);
    shared.global_inflight.fetch_add(1, Ordering::AcqRel);
    let mut attempts_left = 2;
    loop {
        let Some(backend) = shared.pick(&frame[samples_at..]) else {
            shared.note_shed();
            window.fetch_sub(1, Ordering::AcqRel);
            shared.global_inflight.fetch_sub(1, Ordering::AcqRel);
            return Some(encode_status_v2(client_id, STATUS_OVERLOADED));
        };
        let pending = Pending {
            client_id,
            reply_tx: reply_tx.clone(),
            window: Arc::clone(window),
            global: Arc::clone(&shared.global_inflight),
            sent: Instant::now(),
        };
        attempts_left -= 1;
        let send = if attempts_left > 0 {
            frame.clone()
        } else {
            std::mem::take(&mut frame)
        };
        match backend.forward(send, pending) {
            Ok(()) => return None,
            Err((_torn_write, p)) if attempts_left > 0 => {
                // The replica never saw a whole frame; safe to re-route.
                drop(p); // counters stay charged for the retry
                continue;
            }
            Err((_torn_write, p)) => {
                p.window.fetch_sub(1, Ordering::AcqRel);
                p.global.fetch_sub(1, Ordering::AcqRel);
                return Some(encode_status_v2(client_id, STATUS_INTERNAL));
            }
        }
    }
}

/// Live fleet stats: per-replica counters summed into one
/// aggregate, plus the per-replica breakdown.
fn fleet_stats(shared: &Shared) -> FleetStats {
    let mut agg = StatsSnapshot::default();
    let mut replicas = Vec::with_capacity(shared.backends.len());
    let mut min_generation = u64::MAX;
    let mut any = false;
    for b in &shared.backends {
        let stats = if b.is_healthy() {
            Client::connect(&b.addr).and_then(|mut c| c.stats_v2()).ok()
        } else {
            None
        };
        match stats {
            Some(s) => {
                any = true;
                agg.requests += s.requests;
                agg.completed += s.completed;
                agg.rejected += s.rejected;
                agg.max_queue_depth = agg.max_queue_depth.max(s.max_queue_depth);
                agg.latency_us_sum += s.latency_us_sum;
                agg.latency_us_max = agg.latency_us_max.max(s.latency_us_max);
                agg.uptime_us = agg.uptime_us.max(s.uptime_us);
                agg.expired += s.expired;
                agg.failed += s.failed;
                agg.shed_global += s.shed_global;
                agg.swaps += s.swaps;
                agg.rollbacks += s.rollbacks;
                agg.unknown += s.unknown;
                min_generation = min_generation.min(s.generation);
                replicas.push(ReplicaStat {
                    addr: b.addr.clone(),
                    healthy: true,
                    generation: s.generation,
                    inflight: b.inflight() as u64,
                    completed: s.completed,
                    shed: s.rejected + s.expired + s.shed_global,
                });
            }
            None => replicas.push(ReplicaStat {
                addr: b.addr.clone(),
                healthy: false,
                generation: b.last_ping().map(|p| p.generation).unwrap_or(0),
                inflight: b.inflight() as u64,
                completed: b.completed.load(Ordering::Relaxed),
                shed: 0,
            }),
        }
    }
    // Refusals at the router itself never reached a replica; account for
    // them so the aggregate is what clients actually experienced.
    let shed = shared.shed.load(Ordering::Relaxed);
    agg.requests += shed;
    agg.rejected += shed;
    // The aggregate generation is the fleet's committed floor: the lowest
    // generation any healthy replica is serving.
    agg.generation = if any { min_generation } else { 0 };
    FleetStats {
        aggregate: agg,
        replicas,
    }
}

/// The router's own ping: cached per-replica probes plus live pending
/// counts — cheap, no replica round trips.
fn router_ping(shared: &Shared) -> PingReport {
    let mut generation = u64::MAX;
    let mut inflight = 0u64;
    let mut shed = shared.shed.load(Ordering::Relaxed);
    let mut completed = 0u64;
    for b in &shared.backends {
        inflight += b.inflight() as u64;
        completed += b.completed.load(Ordering::Relaxed);
        if b.is_healthy() {
            if let Some(p) = b.last_ping() {
                generation = generation.min(p.generation);
                shed += p.shed;
            }
        }
    }
    PingReport {
        generation: if generation == u64::MAX {
            0
        } else {
            generation
        },
        inflight,
        shed,
        completed,
    }
}

/// Fleet rollback without an adapter: plain fan-out.
fn rollback_fanout(shared: &Shared) -> RollbackAck {
    let fleet: Vec<Arc<Backend>> = shared
        .backends
        .iter()
        .filter(|b| b.is_healthy())
        .cloned()
        .collect();
    crate::fleet::rollback_backends(&fleet)
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || {
        while let Ok(frame) = reply_rx.recv() {
            if write_frame(&mut write_half, &frame).is_err() {
                while reply_rx.recv().is_ok() {}
                return;
            }
        }
    });

    let window = Arc::new(AtomicUsize::new(0));

    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let reply = match decode_request(&frame) {
            Ok(Request::ScoreV2 { id, .. }) => {
                admit_score(&shared, frame, id, None, &reply_tx, &window)
            }
            Ok(Request::ScoreTraced { id, trace_id, .. }) => {
                admit_score(&shared, frame, id, Some(trace_id), &reply_tx, &window)
            }
            Ok(Request::StatsV2) => Some(encode_ok(&fleet_stats(&shared).aggregate)),
            Ok(Request::StatsV3) => Some(answer(&shared.obs, |o| Ok(o.registry.snapshot()))),
            Ok(Request::Flight { drain }) => Some(answer(&shared.obs, |o| {
                Ok(if drain {
                    o.flight.drain()
                } else {
                    o.flight.peek()
                })
            })),
            Ok(Request::FleetStats) => Some(encode_ok(&fleet_stats(&shared))),
            Ok(Request::Ping) => Some(encode_ok(&router_ping(&shared))),
            Ok(Request::Adapt) => Some(answer(&shared.fleet, |f| Ok(f.cycle()))),
            Ok(Request::Rollback) => Some(encode_ok(&match &shared.fleet {
                Some(f) => f.rollback(),
                None => rollback_fanout(&shared),
            })),
            // WAL status is observability: proxy it to the first healthy
            // backend that has a WAL (typically the adapt coordinator)
            // and forward its reply verbatim.
            Ok(Request::WalStatus) => Some(
                shared
                    .backends
                    .iter()
                    .filter(|b| b.is_healthy())
                    .filter_map(|b| {
                        probe_round_trip(&b.addr, &Request::WalStatus, shared.probe_timeout).ok()
                    })
                    .find(|reply| matches!(decode_reply::<WalStatusInfo>(reply), Ok(Ok(_))))
                    .unwrap_or_else(|| encode_status(STATUS_UNSUPPORTED)),
            ),
            // Replica-level rollout tags terminate at the replicas; the
            // router *is* their coordinator and does not proxy them. Deep
            // rollback joins them: restoring a lineage generation is an
            // action against the durable adapt coordinator, not something
            // to mirror blindly across stateless replicas.
            Ok(Request::DrainVotes { .. })
            | Ok(Request::StageBundle { .. })
            | Ok(Request::CommitStaged)
            | Ok(Request::AbortStaged)
            | Ok(Request::RollbackTo { .. }) => Some(encode_status(STATUS_UNSUPPORTED)),
            Ok(Request::Shutdown) => {
                // Ack, propagate to the fleet best-effort, stop routing.
                let _ = reply_tx.send(encode_ok(&Ack));
                for b in &shared.backends {
                    let _ = probe_round_trip(&b.addr, &Request::Shutdown, shared.probe_timeout);
                }
                trigger_stop(&shared.stopping, shared.addr);
                break;
            }
            Err(_) => {
                let _ = reply_tx.send(encode_status(STATUS_BAD_REQUEST));
                break;
            }
        };
        // `None`: the reply comes through the backend reader.
        if reply.is_some_and(|frame| reply_tx.send(frame).is_err()) {
            break;
        }
    }

    drop(reply_tx);
    let _ = writer.join();
}
