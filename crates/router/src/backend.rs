//! One routed replica: a pipelined data connection, the pending-reply
//! map that matches backend replies to waiting clients, and the
//! health/backoff state the router's health thread drives.
//!
//! ## The id rewrite
//!
//! Client request ids are only unique per client connection, but one
//! backend connection carries requests from every client, so the router
//! re-tags each forwarded request with a backend-unique id and patches
//! the original id back into the reply. Both request and reply carry the
//! id as a raw little-endian `u64` at [`SCORE_ID`] of the payload (right
//! after the tag or status byte), so the rewrite is a 8-byte splice — the
//! score body itself is forwarded untouched, which is what preserves the
//! fleet's bit-identity contract through the router for free.
//!
//! ## Failure semantics
//!
//! A request that was fully written to a replica that then dies is
//! failed fast with `STATUS_INTERNAL` under the client's id — never
//! silently dropped, and never re-routed (the replica may have scored
//! it; "answered exactly once" beats "maybe scored twice"). A request
//! whose *write* failed is safe to re-route: the replica saw at most a
//! torn frame, which it discards without scoring by the malformed-input
//! contract. A replica that refuses a score `shutting down` has stopped:
//! it leaves rotation at once, and its connection stays up for the
//! replies it still owes.

use crate::router::RouterObs;
use lre_obs::{Counter, FlightRecorder, Histogram, EV_EJECT, EV_READMIT};
use lre_serve::protocol::{
    decode_reply, encode_request, encode_status_v2, read_frame, write_frame, AbortAck, CommitAck,
    DrainReply, MetricsDump, Request, RollbackAck, StageAck, SCORE_ID, STATUS_INTERNAL,
    STATUS_SHUTTING_DOWN,
};
use lre_serve::server::Lane;
use lre_serve::{Client, FleetControl, StatsSnapshot, VoteRecord};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reply waiting to come back from this replica.
pub struct Pending {
    /// The id the client sent; spliced back into the reply.
    pub client_id: u64,
    /// The client connection's reply lane, holding the request's window
    /// slot.
    pub lane: Lane,
    /// When the request was handed to this backend (per-backend routed
    /// latency, forward-write to reply-match).
    pub sent: Instant,
}

/// Reconnect/backoff state, advanced by the health thread.
struct Probe {
    /// Consecutive failed health probes while healthy.
    strikes: u32,
    /// Earliest next re-admission probe while unhealthy.
    next_probe: Instant,
    /// Current re-admission backoff (doubles per failed probe).
    backoff: Duration,
}

/// A forward whose write failed before the frame was fully on the wire:
/// the request was not scored and may be re-routed, and both halves come
/// back for that.
pub struct ForwardFailed {
    pub pending: Pending,
    /// The frame exactly as it was handed to [`Backend::forward`].
    pub frame: Vec<u8>,
}

pub const INITIAL_BACKOFF: Duration = Duration::from_millis(100);
pub const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// One replica as the router sees it.
pub struct Backend {
    pub addr: String,
    /// Write half of the live data connection (`None` while ejected).
    conn: Mutex<Option<TcpStream>>,
    /// The data connection's reader: at most one, joined before the next
    /// is spawned.
    reader: Mutex<Option<JoinHandle<()>>>,
    pending: Mutex<HashMap<u64, Pending>>,
    next_id: AtomicU64,
    healthy: AtomicBool,
    probe: Mutex<Probe>,
    /// The stats-v3 dump of the most recent probe that answered: the
    /// router's fleet rows for a replica that does not answer now, and the
    /// generation the replica reports to an adaptation coordinator.
    last_probe: Mutex<Option<Arc<MetricsDump>>>,
    /// `router.backend.{addr}.latency_us`: forward-write to reply-match.
    /// Its count is the replies this backend returned to clients.
    latency_us: Arc<Histogram>,
    /// `router.backend.ejected` / `.readmitted`, shared by every backend.
    ejected: Arc<Counter>,
    readmitted: Arc<Counter>,
    /// Where eject and re-admit events go.
    flight: Arc<FlightRecorder>,
}

impl Backend {
    /// A backend for the replica at `addr`, recording into the router's
    /// `obs`: its own routed-latency histogram, the shared eject/re-admit
    /// counters and the flight recorder.
    pub fn new(addr: String, obs: &RouterObs) -> Backend {
        Backend {
            latency_us: obs
                .registry
                .histogram(&format!("router.backend.{addr}.latency_us")),
            ejected: obs.registry.counter("router.backend.ejected"),
            readmitted: obs.registry.counter("router.backend.readmitted"),
            flight: Arc::clone(&obs.flight),
            addr,
            conn: Mutex::new(None),
            reader: Mutex::new(None),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            healthy: AtomicBool::new(false),
            probe: Mutex::new(Probe {
                strikes: 0,
                next_probe: Instant::now(),
                backoff: INITIAL_BACKOFF,
            }),
            last_probe: Mutex::new(None),
        }
    }

    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Requests currently awaiting a reply from this replica.
    pub fn inflight(&self) -> usize {
        self.pending.lock().expect("pending poisoned").len()
    }

    /// The dump of the most recent probe that answered.
    pub fn last_probe(&self) -> Option<Arc<MetricsDump>> {
        self.last_probe
            .lock()
            .expect("probe cache poisoned")
            .clone()
    }

    /// Scrape the replica's stats-v3 dump over a throwaway connection
    /// with `timeout` on connect, write and read, so a wedged replica
    /// cannot hang the caller. A dump that answers is cached as
    /// [`Backend::last_probe`] and returned. The health thread and the
    /// router's stats-v3 handler both probe through here.
    pub fn probe(&self, timeout: Duration) -> Option<Arc<MetricsDump>> {
        let reply = probe_round_trip(&self.addr, &Request::StatsV3, timeout).ok()?;
        let dump = Arc::new(decode_reply::<MetricsDump>(&reply).ok()?.ok()?);
        *self.last_probe.lock().expect("probe cache poisoned") = Some(Arc::clone(&dump));
        Some(dump)
    }

    /// One request/reply on a fresh control connection.
    fn call<T>(&self, ask: impl FnOnce(&mut Client) -> io::Result<T>) -> Option<T> {
        Client::connect(&self.addr)
            .and_then(|mut c| ask(&mut c))
            .ok()
    }

    /// Establish (or re-establish) the data connection of an unrouted
    /// backend and spawn its reader, once the previous connection's reader
    /// is joined: a backend leaves rotation only by an eject, which shuts
    /// that connection down, or by its replica stopping, which closes it.
    /// On success the backend is healthy and routable.
    pub fn connect(self: &Arc<Self>) -> io::Result<()> {
        let stream = connect_to(&self.addr, Duration::from_secs(2))?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        self.join_reader();
        *self.conn.lock().expect("conn poisoned") = Some(stream);
        self.healthy.store(true, Ordering::Release);
        {
            let mut probe = self.probe.lock().expect("probe poisoned");
            probe.strikes = 0;
            probe.backoff = INITIAL_BACKOFF;
        }
        let me = Arc::clone(self);
        let reader = std::thread::spawn(move || me.read_replies(read_half));
        *self.reader.lock().expect("reader poisoned") = Some(reader);
        Ok(())
    }

    fn join_reader(&self) {
        let reader = self.reader.lock().expect("reader poisoned").take();
        if let Some(reader) = reader {
            let _ = reader.join();
        }
    }

    /// Close the data connection for good and join its reader (the
    /// router's exit). Not counted as an eject.
    pub fn close(&self) {
        self.healthy.store(false, Ordering::Release);
        self.eject();
        self.join_reader();
    }

    /// The data connection's reader: match replies to pending requests,
    /// splice the client id back in, hand the frame to the client's
    /// writer. Exits when the connection dies, failing whatever is still
    /// pending.
    fn read_replies(self: Arc<Self>, mut stream: TcpStream) {
        while let Ok(Some(mut frame)) = read_frame(&mut stream) {
            let Some(id_bytes) = frame.get(SCORE_ID) else {
                break; // not a score reply; the stream is corrupt
            };
            let backend_id = u64::from_le_bytes(id_bytes.try_into().expect("an 8-byte span"));
            let entry = self
                .pending
                .lock()
                .expect("pending poisoned")
                .remove(&backend_id);
            // A replica that refuses `shutting down` has stopped: nothing
            // more is routed to it, and its connection stays up for the
            // replies it still owes.
            if frame[0] == STATUS_SHUTTING_DOWN && self.healthy.swap(false, Ordering::AcqRel) {
                self.record_eject(0);
            }
            if let Some(p) = entry {
                frame[SCORE_ID].copy_from_slice(&p.client_id.to_le_bytes());
                self.latency_us.record(p.sent.elapsed().as_micros() as u64);
                p.lane.reply(frame);
            }
        }
        self.eject();
    }

    /// Forward one score frame (`frame[SCORE_ID]` holds the client id,
    /// which this rewrites; a failed write puts it back). The pending entry
    /// is registered before the write so the reply cannot race the
    /// bookkeeping.
    pub fn forward(&self, mut frame: Vec<u8>, pending: Pending) -> Result<(), ForwardFailed> {
        let backend_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        frame[SCORE_ID].copy_from_slice(&backend_id.to_le_bytes());
        self.pending
            .lock()
            .expect("pending poisoned")
            .insert(backend_id, pending);
        let write_ok = {
            let mut conn = self.conn.lock().expect("conn poisoned");
            match conn.as_mut() {
                Some(stream) => write_frame(stream, &frame).is_ok(),
                None => false,
            }
        };
        if write_ok {
            return Ok(());
        }
        // This request is taken back before the eject fails every other
        // one in flight. If the entry is gone, the reader's teardown beat
        // us to it and already answered the client with a typed failure —
        // re-routing now would answer twice.
        let mine = self
            .pending
            .lock()
            .expect("pending poisoned")
            .remove(&backend_id);
        self.eject();
        match mine {
            Some(pending) => {
                frame[SCORE_ID].copy_from_slice(&pending.client_id.to_le_bytes());
                Err(ForwardFailed { pending, frame })
            }
            None => Ok(()),
        }
    }

    /// Take the replica out of rotation: shut the data connection down
    /// both ways (its reader ends, and so does the replica's side) and fail
    /// every in-flight request typed, under its client id. Safe to call
    /// from any thread, repeatedly.
    pub fn eject(&self) {
        let was_healthy = self.healthy.swap(false, Ordering::AcqRel);
        if let Some(conn) = self.conn.lock().expect("conn poisoned").take() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let orphans: Vec<Pending> = {
            let mut pending = self.pending.lock().expect("pending poisoned");
            pending.drain().map(|(_, p)| p).collect()
        };
        // Only the transition records: eject is idempotent and re-entered
        // by the reader teardown and the health thread.
        if was_healthy {
            self.record_eject(orphans.len());
        }
        for p in orphans {
            p.lane.reply(encode_status_v2(p.client_id, STATUS_INTERNAL));
        }
    }

    /// Count one transition out of rotation, failing `failed` requests.
    fn record_eject(&self, failed: usize) {
        self.ejected.incr();
        self.flight
            .record(EV_EJECT, &self.addr, failed as u64, 0, 0.0, 0.0);
    }

    /// One health-thread step. Healthy: [`Backend::probe`]; two
    /// consecutive failures eject. Unhealthy: once the backoff expires,
    /// probe and — on success — reconnect the data path; each failed
    /// probe doubles the backoff up to [`MAX_BACKOFF`].
    pub fn health_step(self: &Arc<Self>, probe_timeout: Duration) {
        if self.is_healthy() {
            match self.probe(probe_timeout) {
                Some(_) => self.probe.lock().expect("probe poisoned").strikes = 0,
                None => {
                    let strikes = {
                        let mut probe = self.probe.lock().expect("probe poisoned");
                        probe.strikes += 1;
                        probe.strikes
                    };
                    if strikes >= 2 {
                        self.eject();
                    }
                }
            }
            return;
        }
        let due = {
            let probe = self.probe.lock().expect("probe poisoned");
            Instant::now() >= probe.next_probe
        };
        if !due {
            return;
        }
        if self.probe(probe_timeout).is_some() && self.connect().is_ok() {
            self.readmitted.incr();
            self.flight.record(EV_READMIT, &self.addr, 0, 0, 0.0, 0.0);
        } else {
            let mut probe = self.probe.lock().expect("probe poisoned");
            probe.next_probe = Instant::now() + probe.backoff;
            probe.backoff = (probe.backoff * 2).min(MAX_BACKOFF);
        }
    }
}

/// The remote replica an adaptation coordinator drives: each call is one
/// [`Client`] round trip on a fresh control connection. A replica that
/// cannot be reached answers like one that refused — nothing drained,
/// staged, committed, aborted or rolled back.
impl FleetControl for Backend {
    fn drain_votes(&self, peek: bool, min: u32) -> Result<Vec<VoteRecord>, u32> {
        self.call(|c| c.drain_votes(peek, min))
            .map_or(Err(0), DrainReply::unseal)
    }

    fn stage(&self, sealed: &[u8]) -> Result<StageAck, u8> {
        self.call(|c| c.stage_bundle(sealed))
            .unwrap_or(Err(STATUS_INTERNAL))
    }

    fn commit(&self) -> Result<CommitAck, u8> {
        self.call(Client::commit_staged)
            .unwrap_or(Err(STATUS_INTERNAL))
    }

    fn abort(&self) -> AbortAck {
        self.call(Client::abort_staged)
            .unwrap_or(AbortAck { had_staged: false })
    }

    fn rollback(&self) -> RollbackAck {
        self.call(Client::rollback).unwrap_or(RollbackAck {
            rolled: false,
            generation: 0,
        })
    }

    /// As of the last probe that answered.
    fn generation(&self) -> u64 {
        let last = self.last_probe().unwrap_or_default();
        StatsSnapshot::from_dump(&last).map_or(0, |s| s.generation)
    }

    fn is_healthy(&self) -> bool {
        Backend::is_healthy(self)
    }
}

/// `TcpStream::connect` with a timeout, resolving `host:port` first.
pub fn connect_to(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sock: SocketAddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    TcpStream::connect_timeout(&sock, timeout)
}

/// One-shot request/reply on a fresh control connection with read/write
/// timeouts — the health thread must never hang on a wedged replica.
pub fn probe_round_trip(addr: &str, req: &Request, timeout: Duration) -> io::Result<Vec<u8>> {
    let mut stream = connect_to(addr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_frame(&mut stream, &encode_request(req))?;
    read_frame(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "replica closed on probe"))
}

#[cfg(test)]
impl Backend {
    /// Route to this backend without a data connection: its next forward
    /// fails at the write.
    pub(crate) fn route_unconnected(&self) {
        self.healthy.store(true, Ordering::Release);
    }
}
