//! The TCP scoring server: `std::net` + threads, no external runtime.
//!
//! Each connection is split into a **reader** (decodes frames, admits
//! requests) and a **writer** thread (serializes replies onto the socket),
//! joined by a channel of pre-encoded frames. That split is what makes
//! pipelining work: a client may have up to
//! [`ServerConfig::max_inflight`] score requests outstanding, their
//! replies are produced on engine worker threads in completion order, and
//! the writer interleaves them safely with whatever the reader answers
//! inline (stats, control requests, refusals).

use crate::durability::DurabilityControl;
use crate::engine::{Engine, EngineConfig, Outcome, SubmitError};
use crate::obs::ServeObs;
use crate::protocol::{
    decode_request, encode_ok, encode_score_ok_traced, encode_score_ok_v2, encode_status,
    encode_status_v2, read_frame, write_frame, Ack, AdaptReport, PingReport, Request, Wire,
    STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_INTERNAL, STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN, STATUS_UNSUPPORTED,
};
use crate::rollout::FleetControl;
use crate::swap::ScorerHandle;
use crate::system::{ScoreTap, Scorer};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub engine: EngineConfig,
    /// Most score requests one connection may have outstanding; the
    /// one-past-the-window request is refused `STATUS_OVERLOADED` without
    /// touching the queue.
    pub max_inflight: usize,
    /// Most score requests the whole server may have outstanding, counted
    /// across every connection on top of the per-connection window
    /// (`0` = unlimited). Refusals are `STATUS_OVERLOADED` and attributed
    /// to the `shed_global` stats counter.
    pub max_global_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            max_inflight: 32,
            max_global_inflight: 0,
        }
    }
}

/// The server's hook into an adaptation controller: a [`Request::Adapt`]
/// frame runs one cycle synchronously on the connection's reader thread
/// and replies with the report. Implemented by `lre-adapt`'s controller;
/// servers started without one refuse the request `STATUS_UNSUPPORTED`.
pub trait AdaptControl: Send + Sync + 'static {
    fn adapt_now(&self) -> AdaptReport;
}

/// Everything a server may be wired to beyond the engine itself. All
/// optional; a request whose hook is absent is refused
/// [`STATUS_UNSUPPORTED`].
#[derive(Default)]
pub struct ServerHooks {
    /// Tee every scored utterance into this tap (the adaptation vote log).
    pub tap: Option<Arc<dyn ScoreTap>>,
    /// Answer [`Request::Adapt`] (a local, single-process adaptation
    /// cycle).
    pub control: Option<Arc<dyn AdaptControl>>,
    /// Answer the fleet-rollout tags: vote drain, stage/commit/abort,
    /// rollback (a router-coordinated fleet cycle).
    pub fleet: Option<Arc<dyn FleetControl>>,
    /// Answer the durability tags: WAL status and deep rollback to a
    /// lineage generation.
    pub durability: Option<Arc<dyn DurabilityControl>>,
    /// Telemetry bundle: the engine records into it, and the stats-v3 /
    /// flight-recorder tags are answered from it. Absent, those tags are
    /// refused [`STATUS_UNSUPPORTED`] and the engine records nothing.
    pub obs: Option<Arc<ServeObs>>,
}

/// Mint a process-unique, non-zero trace id for a traced request that
/// arrived with id 0. Seeded once from the wall clock so ids from
/// different server processes are unlikely to collide in shared logs.
/// Public because the router mints the same way when it admits a traced
/// request whose client left the id to the serving tier.
pub fn mint_trace_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        AtomicU64::new(seed | 1)
    });
    let mut id = next.fetch_add(1, Ordering::Relaxed);
    while id == 0 {
        id = next.fetch_add(1, Ordering::Relaxed);
    }
    id
}

/// Reserve one slot under the global cap, exactly (no overshoot under
/// concurrent readers).
fn try_acquire_global(global: &AtomicUsize, max: usize) -> bool {
    global
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            (v < max).then_some(v + 1)
        })
        .is_ok()
}

/// A running server. One thread accepts connections; each connection gets
/// reader + writer threads that speak the frame protocol and submit score
/// requests to the shared [`Engine`]. Connection threads are detached —
/// they exit on peer close — while [`Server::join`] owns the
/// graceful-shutdown sequence: stop accepting, drain the engine queue,
/// join the workers.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stopping: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start serving on an already-bound listener (bind to port 0 to let
    /// the OS pick, then read [`Server::local_addr`]).
    pub fn start(
        listener: TcpListener,
        scorer: Arc<dyn Scorer>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_adaptive(
            listener,
            Arc::new(ScorerHandle::new(scorer, 0)),
            cfg,
            ServerHooks::default(),
        )
    }

    /// Start serving over a hot-swappable scorer handle, with whichever
    /// [`ServerHooks`] the host wires in (vote-log tap, local adaptation
    /// control, fleet-rollout control).
    pub fn start_adaptive(
        listener: TcpListener,
        handle: Arc<ScorerHandle>,
        cfg: ServerConfig,
        mut hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::start_observed(
            cfg.engine,
            handle,
            hooks.tap.take(),
            hooks.obs.clone(),
        ));
        let stopping = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            engine: Arc::clone(&engine),
            stopping: Arc::clone(&stopping),
            addr,
            max_inflight: cfg.max_inflight.max(1),
            max_global: match cfg.max_global_inflight {
                0 => usize::MAX,
                n => n,
            },
            global_inflight: Arc::new(AtomicUsize::new(0)),
            hooks,
        });
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_connection(stream, &shared));
                }
            }
        });
        Ok(Server {
            addr,
            engine,
            stopping,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (stats access for embedding tests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Ask the server to stop from the hosting process (equivalent to a
    /// client shutdown request).
    pub fn stop(&self) {
        trigger_stop(&self.stopping, self.addr);
    }

    /// Block until shutdown is requested, then drain and join. In-flight
    /// requests accepted before the shutdown are still scored and answered.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.engine.shutdown();
    }
}

/// Flip the stop flag and wake the blocking `accept` with a throwaway
/// connection so the accept loop observes it.
fn trigger_stop(stopping: &AtomicBool, addr: SocketAddr) {
    if !stopping.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// What every connection of one server shares.
struct Shared {
    engine: Arc<Engine>,
    stopping: Arc<AtomicBool>,
    addr: SocketAddr,
    max_inflight: usize,
    max_global: usize,
    /// Score requests outstanding across every connection.
    global_inflight: Arc<AtomicUsize>,
    hooks: ServerHooks,
}

/// Answer a control request from an optional hook: `OK` + body, the
/// hook's own typed refusal, or `unsupported` when the hook is absent.
/// (Public for the router, whose optional parts answer the same way.)
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

/// One connection's score admission state.
struct ScoreLane<'a> {
    shared: &'a Shared,
    reply_tx: &'a mpsc::Sender<Vec<u8>>,
    /// Score requests outstanding on this connection. Only the reader
    /// increments, so a plain load-then-add admits at most `max_inflight`.
    inflight: Arc<AtomicUsize>,
}

impl ScoreLane<'_> {
    /// Admit one score request of either tag: the connection's window,
    /// then the server-wide cap, then the queue. `None` means the reply
    /// arrives through the engine callback; `Some(frame)` is an immediate
    /// refusal. `trace: Some(id)` makes the engine stamp a span and the
    /// reply take the traced shape.
    fn admit(
        &self,
        id: u64,
        deadline_ms: u32,
        trace: Option<u64>,
        samples: Vec<f32>,
    ) -> Option<Vec<u8>> {
        let (engine, global) = (&self.shared.engine, &self.shared.global_inflight);
        if self.inflight.load(Ordering::Acquire) >= self.shared.max_inflight {
            // Window violation: shed before the queue even sees it.
            engine.note_shed();
            return Some(encode_status_v2(id, STATUS_OVERLOADED));
        }
        if !try_acquire_global(global, self.shared.max_global) {
            // Within this connection's window but the server-wide cap is
            // spent: shed and attribute it separately.
            engine.note_shed_global();
            return Some(encode_status_v2(id, STATUS_OVERLOADED));
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
        // A zero trace id asks the server to mint one (single-server
        // clients; the router mints before forwarding).
        let trace = trace.map(|t| if t == 0 { mint_trace_id() } else { t });
        let cb_tx = self.reply_tx.clone();
        let cb_inflight = Arc::clone(&self.inflight);
        let cb_global = Arc::clone(global);
        let submitted = engine.submit_with(samples, deadline, trace, move |outcome| {
            let frame = match outcome {
                Outcome::Scored(s) if trace.is_some() => encode_score_ok_traced(id, &s),
                Outcome::Scored(s) => encode_score_ok_v2(id, &s),
                Outcome::DeadlineExceeded => encode_status_v2(id, STATUS_DEADLINE_EXCEEDED),
                Outcome::Failed => encode_status_v2(id, STATUS_INTERNAL),
            };
            cb_inflight.fetch_sub(1, Ordering::AcqRel);
            cb_global.fetch_sub(1, Ordering::AcqRel);
            let _ = cb_tx.send(frame);
        });
        let refused = submitted.err()?;
        // The job (and its callback) was dropped unfired; the reader owns
        // the refusal.
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        global.fetch_sub(1, Ordering::AcqRel);
        let status = match refused {
            SubmitError::Overloaded => STATUS_OVERLOADED,
            SubmitError::ShuttingDown => STATUS_SHUTTING_DOWN,
        };
        Some(encode_status_v2(id, status))
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };

    // Reply lane: reader and engine callbacks enqueue pre-encoded frames,
    // one writer serializes them onto the socket. The writer lives until
    // every sender is gone — i.e. until the reader has returned *and* every
    // outstanding engine callback for this connection has fired — so a
    // drained shutdown never strands a reply and never leaks the thread.
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || {
        while let Ok(frame) = reply_rx.recv() {
            if write_frame(&mut write_half, &frame).is_err() {
                // Peer is gone; keep draining so senders resolve, but stop
                // touching the socket.
                while reply_rx.recv().is_ok() {}
                return;
            }
        }
    });

    let lane = ScoreLane {
        shared,
        reply_tx: &reply_tx,
        inflight: Arc::new(AtomicUsize::new(0)),
    };
    let (engine, hooks) = (&shared.engine, &shared.hooks);

    // Set when this connection carried a shutdown request; acted on only
    // after the ack has been flushed to the socket.
    let mut shutdown_requested = false;

    // Anything but a complete frame — clean close, torn connection,
    // oversized length prefix — ends the conversation.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        // Everything but a score is answered inline on the reader, in
        // request order, without touching the scoring queue.
        let reply = match decode_request(&frame) {
            Ok(Request::ScoreV2 {
                id,
                deadline_ms,
                samples,
            }) => lane.admit(id, deadline_ms, None, samples),
            Ok(Request::ScoreTraced {
                id,
                deadline_ms,
                trace_id,
                samples,
            }) => lane.admit(id, deadline_ms, Some(trace_id), samples),
            Ok(Request::StatsV2) => Some(encode_ok(&engine.stats())),
            // One cycle runs synchronously and the report comes back in
            // request order.
            Ok(Request::Adapt) => Some(answer(&hooks.control, |c| Ok(c.adapt_now()))),
            // Derived from the engine's counters, so the probe stays
            // answerable while the queue is saturated.
            Ok(Request::Ping) => Some(encode_ok(&PingReport::from_stats(&engine.stats()))),
            Ok(Request::DrainVotes { peek, min }) => {
                Some(answer(&hooks.fleet, |f| Ok(f.drain_votes(peek, min))))
            }
            Ok(Request::StageBundle { sealed }) => Some(answer(&hooks.fleet, |f| f.stage(&sealed))),
            Ok(Request::CommitStaged) => Some(answer(&hooks.fleet, |f| f.commit())),
            Ok(Request::AbortStaged) => Some(answer(&hooks.fleet, |f| Ok(f.abort()))),
            Ok(Request::Rollback) => Some(answer(&hooks.fleet, |f| Ok(f.rollback()))),
            // Only the router's front tier aggregates a fleet; a replica
            // (or single server) has nothing to answer with.
            Ok(Request::FleetStats) => Some(encode_status(STATUS_UNSUPPORTED)),
            Ok(Request::WalStatus) => Some(answer(&hooks.durability, |d| Ok(d.wal_status()))),
            // Runs synchronously like `Adapt`: it swaps a model and the
            // requester wants the outcome in request order.
            Ok(Request::RollbackTo { generation }) => {
                Some(answer(&hooks.durability, |d| d.rollback_to(generation)))
            }
            Ok(Request::StatsV3) => Some(answer(&hooks.obs, |o| Ok(o.registry.snapshot()))),
            Ok(Request::Flight { drain }) => Some(answer(&hooks.obs, |o| {
                Ok(if drain {
                    o.flight.drain()
                } else {
                    o.flight.peek()
                })
            })),
            Ok(Request::Shutdown) => {
                // Acknowledge, then stop accepting; `Server::join` drains
                // the engine. The stop itself is deferred until after the
                // writer joins below — flipping `stopping` first lets the
                // accept loop (and the process) exit while the ack is still
                // queued on this handler's reply lane, and the requester
                // reads EOF instead of STATUS_OK.
                let _ = reply_tx.send(encode_ok(&Ack));
                shutdown_requested = true;
                break;
            }
            Err(_) => {
                let _ = reply_tx.send(encode_status(STATUS_BAD_REQUEST));
                break;
            }
        };
        if reply.is_some_and(|frame| reply_tx.send(frame).is_err()) {
            break;
        }
    }

    // Drop the reader's senders; the writer exits once the last in-flight
    // callback has fired and released its clone.
    drop(lane);
    drop(reply_tx);
    let _ = writer.join();

    // Only now — with every queued reply (the shutdown ack included) on
    // the wire — is it safe to stop the accept loop and let the process
    // exit. Triggering earlier races the detached writer thread against
    // process teardown and can strand the ack.
    if shutdown_requested {
        trigger_stop(&shared.stopping, shared.addr);
    }
}
