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
//! Every thread has an owner that joins it: the accept thread owns the
//! connection threads, and each connection thread (the reader) owns its
//! writer. When the door stops, every reader stops at its next frame
//! boundary with nothing more arrived (a frame the peer is still sending
//! is read to its end), or at the first frame boundary once it has read
//! past the stop for [`WRITE_STALL`]; the accept thread joins them all, so
//! [`OpenDoor::join`] returns only once every reply the door owed has been
//! written (or its peer has stopped taking bytes, see [`WRITE_STALL`]) and
//! nothing the door shares is held by a thread of its own any more.
//!
//! The connection contract, the same at both doors:
//! - a score past the connection's window is refused `overloaded` under
//!   its id, before the door sees it; a score read after the door stopped
//!   is refused `shutting down`, for at most [`WRITE_STALL`], after which
//!   the connection ends;
//! - an undecodable frame is answered `bad request`, then the connection
//!   closes;
//! - stats-v3 and flight are always answered;
//! - a connection holds at most its window of unwritten inline replies:
//!   past that its reader stops reading until the writer catches up, so a
//!   peer that sends without reading is pushed back by TCP;
//! - a shutdown is acknowledged on the wire and the writer joined (every
//!   queued reply, the ack included, is on the socket), then
//!   [`Door::shutdown`] runs and the accept loop stops.

use crate::engine::{Engine, EngineConfig, Outcome, SubmitError};
use crate::obs::{ServeObs, DEFAULT_FLIGHT_CAPACITY};
use crate::protocol::{
    decode_request_head, encode_ok, encode_score_ok_v2, encode_status, encode_status_v2,
    read_frame, score_samples, write_frame, Ack, AdaptReport, DrainReply, MetricsDump, Request,
    RequestHead, RollbackToAck, Wire, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED,
    STATUS_INTERNAL, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN, STATUS_UNSUPPORTED,
};
use crate::rollout::FleetControl;
use crate::swap::ScorerHandle;
use crate::system::ScoreTap;
use lre_obs::FlightRecorder;
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How often an idle connection's reader looks at its door's stop flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// The longest a connection's writer waits on a peer that takes no bytes
/// before it shuts the connection down, and the longest a reader goes on
/// reading (and refusing scores) after it saw its door stop: a peer that
/// stops reading, or keeps sending, cannot hold its connection, and so
/// [`OpenDoor::join`], for longer.
pub const WRITE_STALL: Duration = Duration::from_secs(10);

/// What one kind of front door adds to the shared connection loop.
pub trait Door: Send + Sync + 'static {
    /// Admit a score request the connection's window has room for: `frame`
    /// is the request as received, checked whole by
    /// [`decode_request_head`] (its samples are still in it, see
    /// [`score_samples`]). `None`: the door answers it later, exactly once,
    /// through [`Lane::reply`]. `Some(frame)`: a refusal, sent now.
    fn admit(&self, id: u64, deadline_ms: u32, frame: Vec<u8>, lane: Lane) -> Option<Vec<u8>>;

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

/// A frame queued for a connection's writer.
enum Reply {
    /// An admitted score's answer: it holds a window slot until the
    /// writer takes it.
    Score(Vec<u8>),
    /// Everything the reader answers itself.
    Inline(Vec<u8>),
}

/// An admitted score's way back to its connection. Sending never blocks.
#[derive(Clone)]
pub struct Lane(mpsc::Sender<Reply>);

impl Lane {
    /// Answer one admitted score. Its window slot is released as the
    /// writer takes the frame, before the bytes go out, so a client that
    /// has read the reply finds the slot free.
    pub fn reply(&self, frame: Vec<u8>) {
        let _ = self.0.send(Reply::Score(frame)); // the client may have left; fine
    }
}

/// What a connection's reader and writer count between them.
#[derive(Default)]
struct Owed {
    /// Admitted scores whose reply is not yet taken by the writer: the
    /// window.
    scores: AtomicUsize,
    /// Inline replies not yet written.
    inline: AtomicUsize,
    /// Set once the writer has given the socket up: nothing more is read.
    closed: AtomicBool,
}

/// A listening front door: the accept thread, the flag that stops it and
/// the connections it owns.
pub struct OpenDoor {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    /// The connection threads.
    live: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// `None` once joined.
    accept: Option<JoinHandle<()>>,
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
        let live = Arc::new(Mutex::new(Vec::<JoinHandle<()>>::new()));
        let entry = Arc::new(Entry {
            door,
            max_inflight: max_inflight.max(1),
            stopping: Arc::clone(&stopping),
            addr,
        });
        let accept = {
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if entry.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else {
                        continue;
                    };
                    let entry = Arc::clone(&entry);
                    let thread = std::thread::spawn(move || entry.converse(stream));
                    let mut live = live.lock().expect("connections poisoned");
                    for done in live.extract_if(.., |t| t.is_finished()) {
                        let _ = done.join();
                    }
                    live.push(thread);
                }
                // Every reader stops at its next frame boundary with nothing
                // more arrived; every connection finishes what it owes and
                // is joined.
                let live = std::mem::take(&mut *live.lock().expect("connections poisoned"));
                for thread in live {
                    let _ = thread.join();
                }
            })
        };
        Ok(OpenDoor {
            addr,
            stopping,
            live,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose thread is still running.
    pub fn connections(&self) -> usize {
        let live = self.live.lock().expect("connections poisoned");
        live.iter().filter(|t| !t.is_finished()).count()
    }

    /// Stop accepting (what a client's shutdown does once it is acked).
    pub fn stop(&self) {
        trigger_stop(&self.stopping, self.addr);
    }

    /// Block until the door has stopped and every connection is joined.
    pub fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// A door dropped is stopped and joined.
impl Drop for OpenDoor {
    fn drop(&mut self) {
        self.stop();
        self.join();
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
    /// One connection, from accept to close, on its reader thread.
    fn converse(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let _ = stream.set_read_timeout(Some(READ_TICK));
        let mut incoming = Incoming {
            socket: &stream,
            stopping: &self.stopping,
            mid_frame: false,
        };
        // The writer lives until every sender is gone: until the reader has
        // returned *and* the door has answered every admitted score, so a
        // drained shutdown never strands a reply.
        let (tx, rx) = mpsc::channel();
        let owed = Arc::new(Owed::default());
        let writer = {
            let (owed, reader) = (Arc::clone(&owed), std::thread::current());
            std::thread::spawn(move || write_replies(write_half, rx, &owed, &reader))
        };
        let lane = Lane(tx);
        // Past a window of unwritten inline replies, wait for the writer.
        let inline = |frame: Vec<u8>| {
            while owed.inline.load(Ordering::Acquire) >= self.max_inflight {
                std::thread::park();
            }
            owed.inline.fetch_add(1, Ordering::AcqRel);
            let _ = lane.0.send(Reply::Inline(frame));
        };
        let door = &*self.door;
        let mut shutdown = false;
        // When this reader first saw the door stopped.
        let mut stop_seen: Option<Instant> = None;

        // Anything but a complete frame (clean close, torn connection,
        // oversized length prefix, the door's stop at a frame boundary)
        // ends the conversation, and so does a writer that gave the socket
        // up, or a stop seen a whole WRITE_STALL ago.
        while !owed.closed.load(Ordering::Acquire) {
            if self.stopping.load(Ordering::SeqCst)
                && stop_seen.get_or_insert_with(Instant::now).elapsed() >= WRITE_STALL
            {
                break;
            }
            incoming.mid_frame = false;
            let Ok(Some(frame)) = read_frame(&mut incoming) else {
                break;
            };
            // Everything but an admitted score is answered here, in request
            // order. A score's samples are not decoded here: they stay in
            // the frame the door is handed.
            let reply = match decode_request_head(&frame) {
                Ok(RequestHead::Score { id, .. }) if self.stopping.load(Ordering::SeqCst) => {
                    encode_status_v2(id, STATUS_SHUTTING_DOWN)
                }
                Ok(RequestHead::Score { id, deadline_ms }) => {
                    // Only the reader takes a slot, so a plain
                    // load-then-add admits at most `max_inflight`.
                    if owed.scores.load(Ordering::Acquire) < self.max_inflight {
                        owed.scores.fetch_add(1, Ordering::AcqRel);
                        if let Some(refusal) = door.admit(id, deadline_ms, frame, lane.clone()) {
                            lane.reply(refusal);
                        }
                        continue;
                    }
                    door.note_shed();
                    encode_status_v2(id, STATUS_OVERLOADED)
                }
                Ok(RequestHead::Other(Request::StatsV3)) => encode_ok(&door.stats()),
                Ok(RequestHead::Other(Request::Flight { drain })) => encode_ok(&if drain {
                    door.flight().drain()
                } else {
                    door.flight().peek()
                }),
                Ok(RequestHead::Other(Request::Shutdown)) => {
                    inline(encode_ok(&Ack));
                    shutdown = true;
                    break;
                }
                Ok(RequestHead::Other(request)) => door.control(request),
                Err(_) => {
                    inline(encode_status(STATUS_BAD_REQUEST));
                    break;
                }
            };
            inline(reply);
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

/// A connection's socket as its reader sees it. Reads time out every
/// [`READ_TICK`], so an idle reader notices the door's stop: once the door
/// has stopped, a frame boundary with nothing more arrived reads as the
/// peer's close. A frame the peer is still sending is read to its end (its
/// score is then refused `shutting down`), unless the peer sends nothing
/// for [`WRITE_STALL`].
struct Incoming<'a> {
    socket: &'a TcpStream,
    stopping: &'a AtomicBool,
    /// Part of the current frame has been read.
    mid_frame: bool,
}

impl Read for Incoming<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut quiet = Duration::ZERO;
        loop {
            match self.socket.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let stopped = self.stopping.load(Ordering::SeqCst);
                    if stopped && (!self.mid_frame || quiet >= WRITE_STALL) {
                        return Ok(0);
                    }
                    quiet += READ_TICK;
                }
                Ok(n) => {
                    self.mid_frame = true;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A connection's writer: every queued frame in order, until the reader
/// and every admitted score's lane are gone. A peer that takes no bytes
/// for [`WRITE_STALL`], or is gone, has its socket shut down both ways
/// (which ends the reader); the rest is drained unwritten, so every slot
/// is still released.
fn write_replies(mut socket: TcpStream, rx: mpsc::Receiver<Reply>, owed: &Owed, reader: &Thread) {
    // A write that got part of a frame out returns only when its timeout
    // runs out, and the next one may then stall a whole timeout: two
    // halves make the bound.
    let _ = socket.set_write_timeout(Some(WRITE_STALL / 2));
    let mut open = true;
    for reply in rx {
        let (frame, inline) = match reply {
            Reply::Score(frame) => {
                owed.scores.fetch_sub(1, Ordering::AcqRel);
                (frame, false)
            }
            Reply::Inline(frame) => (frame, true),
        };
        if open && write_frame(&mut socket, &frame).is_err() {
            open = false;
            owed.closed.store(true, Ordering::Release);
            let _ = socket.shutdown(Shutdown::Both);
        }
        if inline {
            owed.inline.fetch_sub(1, Ordering::AcqRel);
            reader.unpark();
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
    fn admit(&self, id: u64, deadline_ms: u32, frame: Vec<u8>, lane: Lane) -> Option<Vec<u8>> {
        // The frame was checked whole before it was admitted.
        let Ok(samples) = score_samples(&frame) else {
            return Some(encode_status_v2(id, STATUS_BAD_REQUEST));
        };
        drop(frame);
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
/// [`Engine`]. [`Server::join`] owns the graceful-shutdown sequence: wait
/// for the stop, join the door (every connection answered), drain the
/// engine queue, join the workers. Dropped without a join, a server stops
/// and runs the same sequence.
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

    /// Live connections (see [`OpenDoor::connections`]).
    pub fn connections(&self) -> usize {
        self.door.connections()
    }

    /// Ask the server to stop from the hosting process (equivalent to a
    /// client shutdown request).
    pub fn stop(&self) {
        self.door.stop();
    }

    /// Block until shutdown is requested, then drain and join. Every
    /// request admitted before the stop is still scored and answered.
    pub fn join(mut self) {
        self.door.join();
        self.engine.shutdown();
    }
}
