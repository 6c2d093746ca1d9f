//! The front door both serving processes share, and the scoring server
//! built on it.
//!
//! [`OpenDoor`] owns a listening socket's whole connection lifecycle. One
//! thread accepts; each connection is split into a **reader** (decodes
//! frames, admits requests) and a **writer** thread (serializes replies
//! onto the socket), joined by a channel of pre-encoded frames, the reply
//! [`Lane`]. That split is what makes pipelining work: a client may have
//! up to its window of score requests outstanding, their replies arrive in
//! completion order, and the writer interleaves them safely with whatever
//! the reader answers inline (stats-v3, flight, control requests,
//! refusals). A [`Door`] supplies only what differs between the two front
//! doors: how a score is admitted, where window refusals are counted, the
//! stats-v3 body and the coordinator arms. [`Server`] admits into an
//! [`Engine`]; `lre_router::Router` forwards to a replica fleet.
//!
//! The connection contract, the same at both doors:
//! - a score past the connection's window is refused `overloaded` under
//!   its id, before the door sees it;
//! - an undecodable frame is answered `bad request`, then the connection
//!   closes;
//! - stats-v3 and flight are always answered;
//! - a shutdown is acknowledged on the wire and the writer joined (every
//!   queued reply, the ack included, is on the socket), then
//!   [`Door::shutdown`] runs and the accept loop stops.

use crate::engine::{Engine, EngineConfig, Outcome, SubmitError};
use crate::obs::{ServeObs, DEFAULT_FLIGHT_CAPACITY};
use crate::protocol::{
    decode_request, encode_ok, encode_score_ok_v2, encode_status, encode_status_v2, read_frame,
    write_frame, Ack, AdaptReport, DrainReply, MetricsDump, Request, RollbackToAck, Wire,
    STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_INTERNAL, STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN, STATUS_UNSUPPORTED,
};
use crate::rollout::FleetControl;
use crate::swap::ScorerHandle;
use crate::system::ScoreTap;
use lre_obs::FlightRecorder;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// What one kind of front door adds to the shared connection loop.
pub trait Door: Send + Sync + 'static {
    /// Admit a score request the connection's window has room for (`frame`
    /// is the request as received). `None`: the door answers it later,
    /// exactly once, through [`Lane::reply`]. `Some(frame)`: a refusal,
    /// sent now.
    fn admit(
        &self,
        id: u64,
        deadline_ms: u32,
        samples: Vec<f32>,
        frame: Vec<u8>,
        lane: Lane,
    ) -> Option<Vec<u8>>;

    /// Count one score refused by a connection's window.
    fn note_shed(&self);

    /// The stats-v3 reply body.
    fn stats(&self) -> MetricsDump;

    /// The flight recorder the flight tag reads.
    fn flight(&self) -> &FlightRecorder;

    /// Answer a coordinator request: adapt, the fleet-rollout tags,
    /// rollback, rollback-to.
    fn control(&self, request: Request) -> Vec<u8>;

    /// Runs once a client's shutdown has been acknowledged, before the
    /// accept loop stops.
    fn shutdown(&self) {}
}

/// An admitted score's way back to its connection: the reply lane and the
/// window slot the score holds.
#[derive(Clone)]
pub struct Lane {
    tx: mpsc::Sender<Vec<u8>>,
    window: Arc<AtomicUsize>,
}

impl Lane {
    /// Answer one admitted score: release its window slot, then queue the
    /// frame. Released first, so a client that has read the reply finds the
    /// slot free.
    pub fn reply(&self, frame: Vec<u8>) {
        self.window.fetch_sub(1, Ordering::AcqRel);
        let _ = self.tx.send(frame); // the client may have left; fine
    }
}

/// A listening front door: the accept thread and the flag that stops it.
/// Connection threads are detached; they exit on peer close.
pub struct OpenDoor {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

/// What every connection of one door shares.
struct Entry {
    door: Arc<dyn Door>,
    max_inflight: usize,
    stopping: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl OpenDoor {
    /// Accept connections on `listener` and speak the frame protocol on
    /// each, with a window of `max_inflight` (at least 1) score requests.
    pub fn open(
        listener: TcpListener,
        door: Arc<dyn Door>,
        max_inflight: usize,
    ) -> std::io::Result<OpenDoor> {
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let entry = Arc::new(Entry {
            door,
            max_inflight: max_inflight.max(1),
            stopping: Arc::clone(&stopping),
            addr,
        });
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if entry.stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let entry = Arc::clone(&entry);
                    std::thread::spawn(move || entry.converse(stream));
                }
            }
        });
        Ok(OpenDoor {
            addr,
            stopping,
            accept,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag, for service threads that live as long as the door.
    pub fn stopping(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stopping)
    }

    /// Stop accepting (what a client's shutdown does once it is acked).
    pub fn stop(&self) {
        trigger_stop(&self.stopping, self.addr);
    }

    /// Block until the accept loop has stopped.
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Flip the stop flag and wake the blocking `accept` with a throwaway
/// connection so the accept loop observes it.
fn trigger_stop(stopping: &AtomicBool, addr: SocketAddr) {
    if !stopping.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

impl Entry {
    /// One connection, from accept to close.
    fn converse(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let Ok(mut write_half) = stream.try_clone() else {
            return;
        };
        // The writer lives until every sender is gone: until the reader has
        // returned *and* the door has answered every admitted score, so a
        // drained shutdown never strands a reply and never leaks the thread.
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || {
            while let Ok(frame) = rx.recv() {
                if write_frame(&mut write_half, &frame).is_err() {
                    // Peer is gone; keep draining so senders resolve, but
                    // stop touching the socket.
                    while rx.recv().is_ok() {}
                    return;
                }
            }
        });
        let lane = Lane {
            tx,
            window: Arc::new(AtomicUsize::new(0)),
        };
        let door = &*self.door;
        let mut shutdown = false;

        // Anything but a complete frame (clean close, torn connection,
        // oversized length prefix) ends the conversation.
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            // Everything but an admitted score is answered here, in request
            // order.
            let reply = match decode_request(&frame) {
                Ok(Request::ScoreV2 {
                    id,
                    deadline_ms,
                    samples,
                }) => {
                    // Only the reader takes a slot, so a plain
                    // load-then-add admits at most `max_inflight`.
                    if lane.window.load(Ordering::Acquire) < self.max_inflight {
                        lane.window.fetch_add(1, Ordering::AcqRel);
                        if let Some(refusal) =
                            door.admit(id, deadline_ms, samples, frame, lane.clone())
                        {
                            lane.reply(refusal);
                        }
                        continue;
                    }
                    door.note_shed();
                    encode_status_v2(id, STATUS_OVERLOADED)
                }
                Ok(Request::StatsV3) => encode_ok(&door.stats()),
                Ok(Request::Flight { drain }) => encode_ok(&if drain {
                    door.flight().drain()
                } else {
                    door.flight().peek()
                }),
                Ok(Request::Shutdown) => {
                    let _ = lane.tx.send(encode_ok(&Ack));
                    shutdown = true;
                    break;
                }
                Ok(request) => door.control(request),
                Err(_) => {
                    let _ = lane.tx.send(encode_status(STATUS_BAD_REQUEST));
                    break;
                }
            };
            if lane.tx.send(reply).is_err() {
                break;
            }
        }

        drop(lane);
        let _ = writer.join();
        // Only now, with every queued reply (the shutdown ack included) on
        // the wire, may the process begin to exit. Stopping earlier races
        // the writer against process teardown, and the requester reads EOF
        // instead of the ack.
        if shutdown {
            door.shutdown();
            trigger_stop(&self.stopping, self.addr);
        }
    }
}

/// Answer a control request from an optional hook: `OK` + body, the
/// hook's own typed refusal, or `unsupported` when the hook is absent.
pub fn answer<H: ?Sized, T: Wire>(
    hook: &Option<Arc<H>>,
    ask: impl FnOnce(&H) -> Result<T, u8>,
) -> Vec<u8> {
    match hook.as_deref().map(ask) {
        Some(Ok(body)) => encode_ok(&body),
        Some(Err(status)) => encode_status(status),
        None => encode_status(STATUS_UNSUPPORTED),
    }
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub engine: EngineConfig,
    /// Most score requests one connection may have outstanding; the
    /// one-past-the-window request is refused `STATUS_OVERLOADED` without
    /// touching the queue.
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            max_inflight: 32,
        }
    }
}

/// The server's hook into an adaptation controller: a [`Request::Adapt`]
/// frame runs one cycle synchronously on the connection's reader thread
/// and replies with the report, and a [`Request::RollbackTo`] frame
/// restores a lineage generation the same way. Implemented by
/// `lre-adapt`'s controller; servers started without one refuse both
/// requests `STATUS_UNSUPPORTED`.
pub trait AdaptControl: Send + Sync + 'static {
    fn adapt_now(&self) -> AdaptReport;

    /// Restore lineage generation `generation` and swap it into serving,
    /// or refuse with a protocol status byte.
    fn rollback_to(&self, generation: u64) -> Result<RollbackToAck, u8>;
}

/// Everything a server is wired to beyond the engine itself. The
/// control hooks are optional, and a request whose hook is absent is
/// refused [`STATUS_UNSUPPORTED`]; telemetry is not.
pub struct ServerHooks {
    /// Tee every scored utterance into this tap (the adaptation vote log).
    pub tap: Option<Arc<dyn ScoreTap>>,
    /// Answer [`Request::Adapt`] and [`Request::RollbackTo`] (the
    /// adaptation controller this process hosts).
    pub control: Option<Arc<dyn AdaptControl>>,
    /// Answer the fleet-rollout tags: vote drain, stage/commit/abort,
    /// rollback (the replica half of a cycle a router coordinates).
    pub fleet: Option<Arc<dyn FleetControl>>,
    /// Telemetry bundle: the engine records into it, and the stats-v3 and
    /// flight-recorder tags are answered from it.
    pub obs: Arc<ServeObs>,
}

impl Default for ServerHooks {
    /// No control hooks, and a fresh [`ServeObs`].
    fn default() -> ServerHooks {
        ServerHooks {
            tap: None,
            control: None,
            fleet: None,
            obs: ServeObs::new(DEFAULT_FLIGHT_CAPACITY),
        }
    }
}

/// The scoring server's door: scores go to the engine's queue, and the
/// hooks answer everything else.
struct EngineDoor {
    engine: Arc<Engine>,
    hooks: ServerHooks,
}

impl Door for EngineDoor {
    fn admit(
        &self,
        id: u64,
        deadline_ms: u32,
        samples: Vec<f32>,
        _frame: Vec<u8>,
        lane: Lane,
    ) -> Option<Vec<u8>> {
        let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
        let submitted = self.engine.submit_with(samples, deadline, move |outcome| {
            lane.reply(match outcome {
                Outcome::Scored(s) => encode_score_ok_v2(id, &s),
                Outcome::DeadlineExceeded => encode_status_v2(id, STATUS_DEADLINE_EXCEEDED),
                Outcome::Failed => encode_status_v2(id, STATUS_INTERNAL),
            })
        });
        // A refused job's callback was dropped unfired: the refusal is ours.
        let status = match submitted.err()? {
            SubmitError::Overloaded => STATUS_OVERLOADED,
            SubmitError::ShuttingDown => STATUS_SHUTTING_DOWN,
        };
        Some(encode_status_v2(id, status))
    }

    fn note_shed(&self) {
        self.engine.note_shed();
    }

    fn stats(&self) -> MetricsDump {
        self.hooks.obs.registry.snapshot()
    }

    fn flight(&self) -> &FlightRecorder {
        &self.hooks.obs.flight
    }

    /// Each runs synchronously on the reader: the requester wants the
    /// outcome in request order.
    fn control(&self, request: Request) -> Vec<u8> {
        let (control, fleet) = (&self.hooks.control, &self.hooks.fleet);
        match request {
            Request::Adapt => answer(control, |c| Ok(c.adapt_now())),
            Request::RollbackTo { generation } => answer(control, |c| c.rollback_to(generation)),
            Request::DrainVotes { peek, min } => {
                answer(fleet, |f| Ok(DrainReply::seal(f.drain_votes(peek, min))))
            }
            Request::StageBundle { sealed } => answer(fleet, |f| f.stage(&sealed)),
            Request::CommitStaged => answer(fleet, |f| f.commit()),
            Request::AbortStaged => answer(fleet, |f| Ok(f.abort())),
            Request::Rollback => answer(fleet, |f| Ok(f.rollback())),
            _ => encode_status(STATUS_UNSUPPORTED),
        }
    }
}

/// A running server: an [`OpenDoor`] whose scores go to one shared
/// [`Engine`]. [`Server::join`] owns the graceful-shutdown sequence: stop
/// accepting, drain the engine queue, join the workers.
pub struct Server {
    door: OpenDoor,
    engine: Arc<Engine>,
}

impl Server {
    /// Start serving on an already-bound listener (bind to port 0 to let
    /// the OS pick, then read [`Server::local_addr`]) over a hot-swappable
    /// scorer handle, with whichever [`ServerHooks`] the host wires in
    /// (vote-log tap, local adaptation control, fleet-rollout control,
    /// telemetry).
    pub fn start(
        listener: TcpListener,
        handle: Arc<ScorerHandle>,
        cfg: ServerConfig,
        mut hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        let engine = Arc::new(Engine::start(
            cfg.engine,
            handle,
            hooks.tap.take(),
            Arc::clone(&hooks.obs),
        ));
        let door = Arc::new(EngineDoor {
            engine: Arc::clone(&engine),
            hooks,
        });
        Ok(Server {
            door: OpenDoor::open(listener, door, cfg.max_inflight)?,
            engine,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.door.local_addr()
    }

    /// The shared engine (stats access for embedding tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Ask the server to stop from the hosting process (equivalent to a
    /// client shutdown request).
    pub fn stop(&self) {
        self.door.stop();
    }

    /// Block until shutdown is requested, then drain and join. In-flight
    /// requests accepted before the shutdown are still scored and answered.
    pub fn join(self) {
        self.door.join();
        self.engine.shutdown();
    }
}
