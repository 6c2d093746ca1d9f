//! The front tier: accept client connections, fan score requests over
//! the replica fleet, and answer the control plane (stats-v3, flight,
//! adapt, rollback, shutdown) in one place. The connection loop is the
//! scoring server's ([`OpenDoor`]); this module is the router's [`Door`]
//! into it.
//!
//! The data plane never re-encodes a score. A request is checked once —
//! `decode_request_head`, which refuses every frame the replica's full
//! decode would refuse without building the samples — and then the
//! *received bytes* are forwarded, the one copy of the frame the router
//! holds, with only the id spliced in at the offset the protocol's tag
//! table exports; the reply comes back with the client's id spliced in and
//! the scored bytes (the replica's span included) untouched, so routed
//! scores are bit-identical to direct ones. Every request goes to the
//! healthy replica with the fewest requests in flight.
//!
//! Per-request failure semantics mirror the server's typed statuses:
//! no healthy replica → `STATUS_OVERLOADED`; replica died after the
//! request was on the wire → `STATUS_INTERNAL` under the client's id
//! (fail fast — the replica may have scored it, so it is never
//! re-routed); a torn write before the replica saw a full frame is
//! re-routed once.
//!
//! Every router records into one [`RouterObs`]: its backends register
//! their series there when they are built, and the flight recorder is
//! answered from it. The stats-v3 reply is its registry plus the fleet:
//! the router scrapes every routable replica first (see [`fleet_dump`]),
//! and clients compute fleet stats and ping from that one dump
//! (`lre_serve::FleetStats::from_dump`).

use crate::backend::{probe_round_trip, Backend, Pending};
use lre_adapt::{rollback_backends, AdaptController};
use lre_obs::{Counter, FlightRecorder, Registry};
use lre_serve::obs::backend_series;
use lre_serve::protocol::{
    encode_ok, encode_status, encode_status_v2, MetricsDump, Request, STATUS_INTERNAL,
    STATUS_OVERLOADED, STATUS_UNSUPPORTED,
};
use lre_serve::server::{answer, Door, Lane, OpenDoor};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Per-client-connection score window, enforced at the router exactly
    /// like at a single server.
    pub max_inflight: usize,
    /// Health thread cadence.
    pub health_interval: Duration,
    /// Connect/read timeout for health probes, fleet scrapes and control
    /// round trips.
    pub probe_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            max_inflight: 32,
            health_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_secs(1),
        }
    }
}

/// The router's telemetry bundle: its own registry (per-backend routed
/// latency, eject/re-admit counters, router sheds) and the flight
/// recorder fed by backend health transitions and the adaptation
/// controller's decisions. The stats-v3 and flight protocol tags are
/// answered from it.
pub struct RouterObs {
    pub registry: Arc<Registry>,
    pub flight: Arc<FlightRecorder>,
    /// `router.shed` — requests refused at the router itself (no healthy
    /// replica, or the client's window was full).
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

/// The router's door: scores go to a replica, the controller (when armed)
/// answers the coordinator tags, and a shutdown is relayed to the fleet.
struct Shared {
    backends: Vec<Arc<Backend>>,
    /// The adaptation controller over `backends`, when armed.
    adapt: Option<Arc<AdaptController>>,
    obs: Arc<RouterObs>,
    probe_timeout: Duration,
}

/// The routing rule: the healthy entry with the fewest requests in
/// flight, lowest index winning ties. Pure so it is testable without a
/// live fleet.
pub fn least_inflight(inflights: &[usize], healthy: &[bool]) -> Option<usize> {
    (0..inflights.len())
        .filter(|&i| healthy.get(i).copied().unwrap_or(false))
        .min_by_key(|&i| (inflights[i], i))
}

impl Shared {
    fn pick(&self) -> Option<Arc<Backend>> {
        let healthy: Vec<bool> = self.backends.iter().map(|b| b.is_healthy()).collect();
        let inflights: Vec<usize> = self.backends.iter().map(|b| b.inflight()).collect();
        least_inflight(&inflights, &healthy).map(|i| Arc::clone(&self.backends[i]))
    }
}

/// A running router: an [`OpenDoor`] over the fleet, and the health
/// thread that ejects and re-admits replicas. [`Router::join`] waits for
/// the stop; the drop that follows (or a drop without a join, which stops
/// the router first) takes it down: the door and its connections, then
/// the health thread, then each backend's data connection and reader.
pub struct Router {
    door: OpenDoor,
    shared: Arc<Shared>,
    /// The health thread, and the sender whose drop stops it (`None` once
    /// joined).
    health: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl Router {
    /// Start routing over `backends` (one per replica address, each built
    /// with this same `obs`). Each backend gets one synchronous admission
    /// attempt so a fleet that is already up is routable before the first
    /// request; replicas that are still starting are admitted by the
    /// health thread. `adapt`, a controller over the same backends,
    /// answers adapt and rollback requests. The stats-v3 and flight tags
    /// are answered from `obs`.
    pub fn start(
        listener: TcpListener,
        backends: Vec<Arc<Backend>>,
        cfg: RouterConfig,
        adapt: Option<Arc<AdaptController>>,
        obs: Arc<RouterObs>,
    ) -> io::Result<Router> {
        for b in &backends {
            let _ = b.connect();
        }
        let shared = Arc::new(Shared {
            backends,
            adapt,
            obs,
            probe_timeout: cfg.probe_timeout,
        });
        let door = OpenDoor::open(listener, Arc::clone(&shared) as _, cfg.max_inflight)?;
        let (stop, stopped) = mpsc::channel::<()>();
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                for b in &shared.backends {
                    b.health_step(shared.probe_timeout);
                }
                if stopped.recv_timeout(cfg.health_interval) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            })
        };
        Ok(Router {
            door,
            shared,
            health: Some((stop, health)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.door.local_addr()
    }

    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.shared.backends
    }

    /// Stop from the hosting process (equivalent to a client shutdown,
    /// without the fleet propagation).
    pub fn stop(&self) {
        self.door.stop();
    }

    /// Block until shutdown is requested, then join the service threads.
    /// Every request admitted before the stop is answered first: by its
    /// replica, or typed when the health thread ejects a replica that
    /// stopped answering.
    pub fn join(mut self) {
        self.door.join();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // The health thread outlives the door's connections: only it ejects
        // a wedged replica, which answers that replica's pending requests.
        self.door.stop();
        self.door.join();
        if let Some((stop, health)) = self.health.take() {
            drop(stop);
            let _ = health.join();
        }
        for b in &self.shared.backends {
            b.close();
        }
    }
}

impl Door for Shared {
    /// Route one score to a replica: the received bytes, id spliced. `None`
    /// means the reply arrives through the backend reader. A write that
    /// fails hands the frame back, and it is re-routed once as it came.
    fn admit(
        &self,
        client_id: u64,
        _deadline_ms: u32,
        mut frame: Vec<u8>,
        lane: Lane,
    ) -> Option<Vec<u8>> {
        for _ in 0..2 {
            let Some(backend) = self.pick() else {
                self.obs.shed.incr();
                return Some(encode_status_v2(client_id, STATUS_OVERLOADED));
            };
            let pending = Pending {
                client_id,
                lane: lane.clone(),
                sent: Instant::now(),
            };
            // The replica never saw a whole frame; safe to re-route. The
            // window stays charged for the retry.
            match backend.forward(frame, pending) {
                Ok(()) => return None,
                Err(failed) => frame = failed.frame,
            }
        }
        Some(encode_status_v2(client_id, STATUS_INTERNAL))
    }

    fn note_shed(&self) {
        self.obs.shed.incr();
    }

    fn stats(&self) -> MetricsDump {
        fleet_dump(self)
    }

    fn flight(&self) -> &FlightRecorder {
        &self.obs.flight
    }

    fn control(&self, request: Request) -> Vec<u8> {
        match request {
            Request::Adapt => answer(&self.adapt, |c| Ok(c.run_cycle())),
            // Without a controller, a rollback is a plain fan-out.
            Request::Rollback => encode_ok(&match &self.adapt {
                Some(c) => c.rollback(),
                None => {
                    let healthy = self.backends.iter().filter(|b| b.is_healthy());
                    rollback_backends(&healthy.map(|b| Arc::clone(b) as _).collect::<Vec<_>>())
                }
            }),
            // Replica-level rollout tags terminate at the replicas; the
            // router *is* their coordinator and does not proxy them. Deep
            // rollback joins them: restoring a lineage generation is an
            // action against the durable adapt coordinator, not something
            // to mirror blindly across stateless replicas.
            _ => encode_status(STATUS_UNSUPPORTED),
        }
    }

    /// Relay the shutdown to every replica, best-effort.
    fn shutdown(&self) {
        for b in &self.backends {
            let _ = probe_round_trip(&b.addr, &Request::Shutdown, self.probe_timeout);
        }
    }
}

/// The router's stats-v3 reply: its registry plus, per backend, the
/// series [`backend_series`] names. Every routable replica is probed first
/// ([`Backend::probe`], the health thread's probe), so the fleet in it is
/// scraped now.
fn fleet_dump(shared: &Shared) -> MetricsDump {
    let mut dump = shared.obs.registry.snapshot();
    for (index, b) in shared.backends.iter().enumerate() {
        let (routable, inflight) = (b.is_healthy(), b.inflight());
        let answered = routable.then(|| b.probe(shared.probe_timeout)).flatten();
        let now = answered.is_some();
        let last = answered.or_else(|| b.last_probe());
        dump.extend(backend_series(
            &b.addr,
            index,
            inflight,
            routable,
            last.as_deref(),
            now,
        ));
    }
    dump.sort_by(|a, b| a.0.cmp(&b.0));
    dump
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_serve::protocol::{
        decode_score_reply_v2, encode_request, read_frame, write_frame, SCORE_ID,
    };
    use std::net::TcpStream;

    /// A score whose first replica fails the write is re-routed with the
    /// frame that replica handed back: the second replica receives the
    /// client's bytes exactly, its own id spliced in.
    #[test]
    fn a_retried_score_reaches_the_next_replica_byte_identical() {
        let replica = TcpListener::bind("127.0.0.1:0").unwrap();
        let replica_addr = replica.local_addr().unwrap().to_string();
        let (tx, received) = mpsc::channel();
        let replica_thread = std::thread::spawn(move || {
            let (mut conn, _) = replica.accept().unwrap();
            let _ = tx.send(read_frame(&mut conn).unwrap().expect("one routed frame"));
        });
        let obs = RouterObs::new(8);
        let dead = Arc::new(Backend::new("127.0.0.1:9".into(), &obs));
        dead.route_unconnected();
        let live = Arc::new(Backend::new(replica_addr, &obs));
        live.connect().unwrap();
        let shared = Arc::new(Shared {
            backends: vec![Arc::clone(&dead), Arc::clone(&live)],
            adapt: None,
            obs,
            probe_timeout: Duration::from_secs(1),
        });
        let door = OpenDoor::open(TcpListener::bind("127.0.0.1:0").unwrap(), shared, 4).unwrap();

        let sent = encode_request(&Request::ScoreV2 {
            id: 42,
            deadline_ms: 7,
            samples: vec![0.5, -0.0, f32::NAN, 1e-40],
        });
        let mut client = TcpStream::connect(door.local_addr()).unwrap();
        write_frame(&mut client, &sent).unwrap();
        let got = received
            .recv_timeout(Duration::from_secs(30))
            .expect("the score was re-routed to the live replica");
        let mut expect = sent.clone();
        expect[SCORE_ID].copy_from_slice(&got[SCORE_ID]);
        assert_eq!(got, expect, "the replica sees the client's bytes");
        assert!(
            !dead.is_healthy(),
            "the failed write ejected the first replica"
        );

        // Closing the replica fails the pending score typed, under its id.
        live.close();
        let reply = read_frame(&mut client).unwrap().expect("a reply");
        let (id, outcome) = decode_score_reply_v2(&reply).unwrap();
        assert_eq!((id, outcome.err()), (42, Some(STATUS_INTERNAL)));
        replica_thread.join().expect("the replica read one frame");
    }
}
