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
//! contract.

use lre_obs::{Counter, FlightRecorder, Histogram, EV_EJECT, EV_READMIT};
use lre_serve::protocol::{
    decode_reply, encode_request, encode_status_v2, read_frame, write_frame, PingReport, Request,
    SAMPLES_AT_V2, SCORE_ID, STATUS_INTERNAL,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A reply waiting to come back from this replica.
pub struct Pending {
    /// The id the client sent; spliced back into the reply.
    pub client_id: u64,
    /// The client connection's writer lane.
    pub reply_tx: mpsc::Sender<Vec<u8>>,
    /// Per-client-connection inflight window counter.
    pub window: Arc<AtomicUsize>,
    /// Router-wide inflight counter.
    pub global: Arc<AtomicUsize>,
    /// When the request was handed to this backend (per-backend routed
    /// latency, forward-write to reply-match).
    pub sent: Instant,
}

impl Pending {
    fn release(&self) {
        self.window.fetch_sub(1, Ordering::AcqRel);
        self.global.fetch_sub(1, Ordering::AcqRel);
    }
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

/// Why a forward attempt did not take.
#[derive(Debug)]
pub enum ForwardError {
    /// The write failed before the frame was fully on the wire; the
    /// request was not scored and may be re-routed.
    WriteFailed,
}

pub const INITIAL_BACKOFF: Duration = Duration::from_millis(100);
pub const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Telemetry hooks a router attaches to a backend at startup: the
/// per-replica routed-latency histogram, the fleet-wide eject/re-admit
/// counters (shared across backends), and the flight recorder that
/// keeps the structured eject/re-admit events.
pub struct BackendTelemetry {
    pub latency_us: Arc<Histogram>,
    pub ejected: Arc<Counter>,
    pub readmitted: Arc<Counter>,
    pub flight: Arc<FlightRecorder>,
}

/// One replica as the router sees it.
pub struct Backend {
    pub addr: String,
    /// Write half of the live data connection (`None` while ejected).
    conn: Mutex<Option<TcpStream>>,
    /// Bumps on every disconnect so a stale reader thread can tell it
    /// lost the race against a reconnect and must not touch shared state.
    epoch: AtomicU64,
    pending: Mutex<HashMap<u64, Pending>>,
    next_id: AtomicU64,
    healthy: AtomicBool,
    probe: Mutex<Probe>,
    /// Most recent successful health probe (router ping aggregation).
    last_ping: Mutex<Option<PingReport>>,
    /// Replies this backend returned to clients through the router.
    pub completed: AtomicU64,
    /// Requests failed typed (`STATUS_INTERNAL`) because the replica died
    /// with them in flight.
    pub failed_inflight: AtomicU64,
    /// Set once by the hosting router when telemetry is on; absent, the
    /// backend records nothing (the unit-test path).
    telemetry: OnceLock<BackendTelemetry>,
}

impl Backend {
    pub fn new(addr: String) -> Backend {
        Backend {
            addr,
            conn: Mutex::new(None),
            epoch: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            healthy: AtomicBool::new(false),
            probe: Mutex::new(Probe {
                strikes: 0,
                next_probe: Instant::now(),
                backoff: INITIAL_BACKOFF,
            }),
            last_ping: Mutex::new(None),
            completed: AtomicU64::new(0),
            failed_inflight: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach telemetry (at most once; later calls are ignored).
    pub fn set_telemetry(&self, t: BackendTelemetry) {
        let _ = self.telemetry.set(t);
    }

    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Requests currently awaiting a reply from this replica.
    pub fn inflight(&self) -> usize {
        self.pending.lock().expect("pending poisoned").len()
    }

    pub fn last_ping(&self) -> Option<PingReport> {
        *self.last_ping.lock().expect("ping poisoned")
    }

    pub fn record_ping(&self, p: PingReport) {
        *self.last_ping.lock().expect("ping poisoned") = Some(p);
    }

    /// Establish (or re-establish) the data connection and spawn its
    /// reader. On success the backend is healthy and routable.
    pub fn connect(self: &Arc<Self>) -> io::Result<()> {
        let stream = connect_to(&self.addr, Duration::from_secs(2))?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        *self.conn.lock().expect("conn poisoned") = Some(stream);
        self.healthy.store(true, Ordering::Release);
        {
            let mut probe = self.probe.lock().expect("probe poisoned");
            probe.strikes = 0;
            probe.backoff = INITIAL_BACKOFF;
        }
        let me = Arc::clone(self);
        std::thread::spawn(move || me.read_replies(read_half, epoch));
        Ok(())
    }

    /// The data connection's reader: match replies to pending requests,
    /// splice the client id back in, hand the frame to the client's
    /// writer. Exits when the connection dies, failing whatever is still
    /// pending.
    fn read_replies(self: Arc<Self>, mut stream: TcpStream, my_epoch: u64) {
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
            if let Some(p) = entry {
                frame[SCORE_ID].copy_from_slice(&p.client_id.to_le_bytes());
                p.release();
                self.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = self.telemetry.get() {
                    t.latency_us.record(p.sent.elapsed().as_micros() as u64);
                }
                let _ = p.reply_tx.send(frame); // client may have left; fine
            }
        }
        // Only the reader that still owns the current epoch may tear the
        // backend down — a stale reader waking up after a reconnect must
        // not fail the new connection's pending requests.
        if self.epoch.load(Ordering::Acquire) == my_epoch {
            self.eject();
        }
    }

    /// Forward one score frame of either tag (`frame[SCORE_ID]` holds the
    /// client id, which this rewrites). The pending entry is registered
    /// before the write so the reply cannot race the bookkeeping.
    pub fn forward(
        &self,
        mut frame: Vec<u8>,
        pending: Pending,
    ) -> Result<(), (ForwardError, Pending)> {
        debug_assert!(
            frame.len() > SAMPLES_AT_V2,
            "caller decoded this as a score"
        );
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
        self.eject();
        // If the entry is gone, the reader's teardown beat us to it and
        // already answered the client with a typed failure — re-routing
        // now would answer twice.
        match self
            .pending
            .lock()
            .expect("pending poisoned")
            .remove(&backend_id)
        {
            Some(p) => Err((ForwardError::WriteFailed, p)),
            None => Ok(()),
        }
    }

    /// Take the replica out of rotation: close the data connection and
    /// fail every in-flight request typed, under its client id. Safe to
    /// call from any thread, repeatedly.
    pub fn eject(&self) {
        let was_healthy = self.healthy.swap(false, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        *self.conn.lock().expect("conn poisoned") = None;
        let orphans: Vec<Pending> = {
            let mut pending = self.pending.lock().expect("pending poisoned");
            pending.drain().map(|(_, p)| p).collect()
        };
        // Only the transition records: eject is idempotent and re-entered
        // by the reader teardown and the health thread.
        if was_healthy {
            if let Some(t) = self.telemetry.get() {
                t.ejected.incr();
                t.flight
                    .record(EV_EJECT, &self.addr, orphans.len() as u64, 0, 0.0, 0.0);
            }
        }
        for p in orphans {
            p.release();
            self.failed_inflight.fetch_add(1, Ordering::Relaxed);
            let _ = p
                .reply_tx
                .send(encode_status_v2(p.client_id, STATUS_INTERNAL));
        }
    }

    /// One health-thread step. Healthy: ping through a throwaway control
    /// connection; two consecutive failures eject. Unhealthy: once the
    /// backoff expires, probe and — on success — reconnect the data
    /// path; each failed probe doubles the backoff up to [`MAX_BACKOFF`].
    pub fn health_step(self: &Arc<Self>, probe_timeout: Duration) {
        if self.is_healthy() {
            match probe_ping(&self.addr, probe_timeout) {
                Ok(p) => {
                    self.record_ping(p);
                    self.probe.lock().expect("probe poisoned").strikes = 0;
                }
                Err(_) => {
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
        let readmitted = probe_ping(&self.addr, probe_timeout).is_ok() && self.connect().is_ok();
        if readmitted {
            if let Some(t) = self.telemetry.get() {
                t.readmitted.incr();
                t.flight.record(EV_READMIT, &self.addr, 0, 0, 0.0, 0.0);
            }
        }
        if !readmitted {
            let mut probe = self.probe.lock().expect("probe poisoned");
            probe.next_probe = Instant::now() + probe.backoff;
            probe.backoff = (probe.backoff * 2).min(MAX_BACKOFF);
        }
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

/// Health probe: ping over a throwaway connection.
pub fn probe_ping(addr: &str, timeout: Duration) -> io::Result<PingReport> {
    let reply = probe_round_trip(addr, &Request::Ping, timeout)?;
    decode_reply(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        .map_err(|status| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ping refused (status {status})"),
            )
        })
}
