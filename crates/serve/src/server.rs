//! The TCP scoring server: `std::net` + threads, no external runtime.
//!
//! Each connection is split into a **reader** (decodes frames, admits
//! requests) and a **writer** thread (serializes replies onto the socket),
//! joined by a channel of pre-encoded frames. That split is what makes
//! pipelining work: a v2 client may have up to
//! [`ServerConfig::max_inflight`] score requests outstanding, their
//! replies are produced on engine worker threads in completion order, and
//! the writer interleaves them safely with whatever the reader answers
//! inline (stats, refusals).
//!
//! v1 requests keep their one-at-a-time, in-order semantics: the reader
//! blocks on the engine before reading the next frame, exactly as the
//! pre-pipelining server did.

use crate::durability::DurabilityControl;
use crate::engine::{Engine, EngineConfig, Outcome, SubmitError};
use crate::obs::ServeObs;
use crate::protocol::{
    decode_request, encode_abort_ok, encode_adapt_ok, encode_commit_ok, encode_drain_ok,
    encode_flight_ok, encode_metrics_ok, encode_ping_ok, encode_rollback_ok, encode_rollback_to_ok,
    encode_score_ok, encode_score_ok_traced, encode_score_ok_v2, encode_stage_ok, encode_stats_ok,
    encode_stats_ok_v2, encode_status, encode_status_v2, encode_wal_status_ok, read_frame,
    write_frame, AdaptReport, PingReport, Request, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED,
    STATUS_INTERNAL, STATUS_OK, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN, STATUS_UNSUPPORTED,
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
    /// Most v2 score requests one connection may have outstanding; the
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
        hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        let ServerHooks {
            tap,
            control,
            fleet,
            durability,
            obs,
        } = hooks;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::start_observed(cfg.engine, handle, tap, obs.clone()));
        let stopping = Arc::new(AtomicBool::new(false));
        let max_inflight = cfg.max_inflight.max(1);
        let max_global = if cfg.max_global_inflight == 0 {
            usize::MAX
        } else {
            cfg.max_global_inflight
        };
        let global_inflight = Arc::new(AtomicUsize::new(0));
        let accept = {
            let engine = Arc::clone(&engine);
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let engine = Arc::clone(&engine);
                    let stopping = Arc::clone(&stopping);
                    let global_inflight = Arc::clone(&global_inflight);
                    let control = control.clone();
                    let fleet = fleet.clone();
                    let durability = durability.clone();
                    let obs = obs.clone();
                    std::thread::spawn(move || {
                        handle_connection(
                            stream,
                            engine,
                            stopping,
                            addr,
                            max_inflight,
                            global_inflight,
                            max_global,
                            control,
                            fleet,
                            durability,
                            obs,
                        )
                    });
                }
            })
        };
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

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    mut stream: TcpStream,
    engine: Arc<Engine>,
    stopping: Arc<AtomicBool>,
    addr: SocketAddr,
    max_inflight: usize,
    global_inflight: Arc<AtomicUsize>,
    max_global: usize,
    control: Option<Arc<dyn AdaptControl>>,
    fleet: Option<Arc<dyn FleetControl>>,
    durability: Option<Arc<dyn DurabilityControl>>,
    obs: Option<Arc<ServeObs>>,
) {
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

    // Outstanding v2 requests on this connection. Only the reader
    // increments, so a plain load-then-add admits at most `max_inflight`.
    let inflight = Arc::new(AtomicUsize::new(0));

    // Set when this connection carried a shutdown request; acted on only
    // after the ack has been flushed to the socket.
    let mut shutdown_requested = false;

    // Anything but a complete frame — clean close, torn connection,
    // oversized length prefix — ends the conversation.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let reply = match decode_request(&frame) {
            // v1: answered in order, next frame not read until resolved.
            Ok(Request::Score { samples }) => {
                if !try_acquire_global(&global_inflight, max_global) {
                    engine.note_shed_global();
                    encode_status(STATUS_OVERLOADED)
                } else {
                    let result = engine.score_blocking(samples);
                    global_inflight.fetch_sub(1, Ordering::AcqRel);
                    match result {
                        Ok(Outcome::Scored(scored)) => encode_score_ok(&scored),
                        // v1 requests carry no deadline; typed all the same.
                        Ok(Outcome::DeadlineExceeded) => encode_status(STATUS_DEADLINE_EXCEEDED),
                        Ok(Outcome::Failed) => encode_status(STATUS_INTERNAL),
                        Err(SubmitError::Overloaded) => encode_status(STATUS_OVERLOADED),
                        Err(SubmitError::ShuttingDown) => encode_status(STATUS_SHUTTING_DOWN),
                    }
                }
            }
            Ok(Request::Stats) => encode_stats_ok(&engine.stats()),
            Ok(Request::StatsV2) => encode_stats_ok_v2(&engine.stats()),
            // Answered inline on the reader, like stats: one cycle runs
            // synchronously and the report comes back in request order.
            Ok(Request::Adapt) => match &control {
                Some(c) => encode_adapt_ok(&c.adapt_now()),
                None => encode_status(STATUS_UNSUPPORTED),
            },
            // The health probe never touches the scoring queue: it is
            // derived from the engine's counters on the reader thread, so
            // it stays answerable while the queue is saturated.
            Ok(Request::Ping) => encode_ping_ok(&PingReport::from_stats(&engine.stats())),
            // The fleet-rollout tags are answered inline like stats; each
            // is refused `STATUS_UNSUPPORTED` without a fleet hook.
            Ok(Request::DrainVotes { peek, min }) => match &fleet {
                Some(f) => encode_drain_ok(&f.drain_votes(peek, min)),
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::StageBundle { sealed }) => match &fleet {
                Some(f) => match f.stage(&sealed) {
                    Ok(checksum) => encode_stage_ok(checksum),
                    Err(status) => encode_status(status),
                },
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::CommitStaged) => match &fleet {
                Some(f) => match f.commit() {
                    Ok((generation, checksum)) => encode_commit_ok(generation, checksum),
                    Err(status) => encode_status(status),
                },
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::AbortStaged) => match &fleet {
                Some(f) => encode_abort_ok(f.abort()),
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::Rollback) => match &fleet {
                Some(f) => {
                    let (rolled, generation) = f.rollback();
                    encode_rollback_ok(rolled, generation)
                }
                None => encode_status(STATUS_UNSUPPORTED),
            },
            // Only the router's front tier aggregates a fleet; a replica
            // (or single server) has nothing to answer with.
            Ok(Request::FleetStats) => encode_status(STATUS_UNSUPPORTED),
            // Durability tags are answered inline from the WAL/lineage
            // indexes (cheap, no scoring-queue involvement). The deep
            // rollback runs synchronously like `Adapt`: it swaps a model
            // and the requester wants the outcome in request order.
            Ok(Request::WalStatus) => match &durability {
                Some(d) => encode_wal_status_ok(&d.wal_status()),
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::RollbackTo { generation }) => match &durability {
                Some(d) => match d.rollback_to(generation) {
                    Ok((gen_restored, serving, checksum)) => {
                        encode_rollback_to_ok(gen_restored, serving, checksum)
                    }
                    Err(status) => encode_status(status),
                },
                None => encode_status(STATUS_UNSUPPORTED),
            },
            // Telemetry tags are answered inline from the registry /
            // recorder snapshots — no scoring-queue involvement.
            Ok(Request::StatsV3) => match &obs {
                Some(o) => encode_metrics_ok(&o.registry.snapshot()),
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::Flight { drain }) => match &obs {
                Some(o) => {
                    let events = if drain {
                        o.flight.drain()
                    } else {
                        o.flight.peek()
                    };
                    encode_flight_ok(&events)
                }
                None => encode_status(STATUS_UNSUPPORTED),
            },
            Ok(Request::Shutdown) => {
                // Acknowledge, then stop accepting; `Server::join` drains
                // the engine. The stop itself is deferred until after the
                // writer joins below — flipping `stopping` first lets the
                // accept loop (and the process) exit while the ack is still
                // queued on this handler's reply lane, and the requester
                // reads EOF instead of STATUS_OK.
                let _ = reply_tx.send(encode_status(STATUS_OK));
                shutdown_requested = true;
                break;
            }
            Ok(Request::ScoreV2 {
                id,
                deadline_ms,
                samples,
            }) => {
                if inflight.load(Ordering::Acquire) >= max_inflight {
                    // Window violation: shed before the queue even sees it.
                    engine.note_shed();
                    encode_status_v2(id, STATUS_OVERLOADED)
                } else if !try_acquire_global(&global_inflight, max_global) {
                    // Within this connection's window but the server-wide
                    // cap is spent: shed and attribute it separately.
                    engine.note_shed_global();
                    encode_status_v2(id, STATUS_OVERLOADED)
                } else {
                    inflight.fetch_add(1, Ordering::AcqRel);
                    let deadline =
                        (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                    let cb_tx = reply_tx.clone();
                    let cb_inflight = Arc::clone(&inflight);
                    let cb_global = Arc::clone(&global_inflight);
                    let submitted = engine.submit_with(samples, deadline, move |outcome| {
                        let frame = match outcome {
                            Outcome::Scored(s) => encode_score_ok_v2(id, &s),
                            Outcome::DeadlineExceeded => {
                                encode_status_v2(id, STATUS_DEADLINE_EXCEEDED)
                            }
                            Outcome::Failed => encode_status_v2(id, STATUS_INTERNAL),
                        };
                        cb_inflight.fetch_sub(1, Ordering::AcqRel);
                        cb_global.fetch_sub(1, Ordering::AcqRel);
                        let _ = cb_tx.send(frame);
                    });
                    match submitted {
                        Ok(()) => continue, // reply arrives via the callback
                        Err(e) => {
                            // The job (and its callback) was dropped
                            // unfired; the reader owns the refusal.
                            inflight.fetch_sub(1, Ordering::AcqRel);
                            global_inflight.fetch_sub(1, Ordering::AcqRel);
                            let status = match e {
                                SubmitError::Overloaded => STATUS_OVERLOADED,
                                SubmitError::ShuttingDown => STATUS_SHUTTING_DOWN,
                            };
                            encode_status_v2(id, status)
                        }
                    }
                }
            }
            // Same admission path as ScoreV2 (window, then global cap),
            // plus the trace id that makes the engine stamp a span.
            Ok(Request::ScoreTraced {
                id,
                deadline_ms,
                trace_id,
                samples,
            }) => {
                if inflight.load(Ordering::Acquire) >= max_inflight {
                    engine.note_shed();
                    encode_status_v2(id, STATUS_OVERLOADED)
                } else if !try_acquire_global(&global_inflight, max_global) {
                    engine.note_shed_global();
                    encode_status_v2(id, STATUS_OVERLOADED)
                } else {
                    inflight.fetch_add(1, Ordering::AcqRel);
                    let deadline =
                        (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                    // A zero id asks the server to mint one (single-server
                    // clients; the router mints before forwarding).
                    let trace_id = if trace_id == 0 {
                        mint_trace_id()
                    } else {
                        trace_id
                    };
                    let cb_tx = reply_tx.clone();
                    let cb_inflight = Arc::clone(&inflight);
                    let cb_global = Arc::clone(&global_inflight);
                    let submitted =
                        engine.submit_traced(samples, deadline, trace_id, move |outcome| {
                            let frame = match outcome {
                                Outcome::Scored(s) => encode_score_ok_traced(id, trace_id, &s),
                                Outcome::DeadlineExceeded => {
                                    encode_status_v2(id, STATUS_DEADLINE_EXCEEDED)
                                }
                                Outcome::Failed => encode_status_v2(id, STATUS_INTERNAL),
                            };
                            cb_inflight.fetch_sub(1, Ordering::AcqRel);
                            cb_global.fetch_sub(1, Ordering::AcqRel);
                            let _ = cb_tx.send(frame);
                        });
                    match submitted {
                        Ok(()) => continue,
                        Err(e) => {
                            inflight.fetch_sub(1, Ordering::AcqRel);
                            global_inflight.fetch_sub(1, Ordering::AcqRel);
                            let status = match e {
                                SubmitError::Overloaded => STATUS_OVERLOADED,
                                SubmitError::ShuttingDown => STATUS_SHUTTING_DOWN,
                            };
                            encode_status_v2(id, status)
                        }
                    }
                }
            }
            Err(_) => {
                let _ = reply_tx.send(encode_status(STATUS_BAD_REQUEST));
                break;
            }
        };
        if reply_tx.send(reply).is_err() {
            break;
        }
    }

    // Drop the reader's sender; the writer exits once the last in-flight
    // callback has fired and released its clone.
    drop(reply_tx);
    let _ = writer.join();

    // Only now — with every queued reply (the shutdown ack included) on
    // the wire — is it safe to stop the accept loop and let the process
    // exit. Triggering earlier races the detached writer thread against
    // process teardown and can strand the ack.
    if shutdown_requested {
        trigger_stop(&stopping, addr);
    }
}
