//! The blocking TCP client for the scoring protocol.
//!
//! One connection type, [`Client`]. Score requests are pipelined: each is
//! tagged with a `u64` id, up to the server's inflight window may be
//! outstanding, and replies are matched by the echoed id as they arrive
//! (possibly out of submission order). Control requests (stats, adapt,
//! rollout, telemetry, shutdown) are one request → one reply and carry no
//! id, so they are only valid while no score reply is outstanding. The
//! engine counters, the health summary, the fleet breakdown and the WAL
//! summary are views the client computes from the peer's stats-v3 dump.

use crate::engine::ScoredUtt;
use crate::obs::{FleetStats, PingReport, StatsSnapshot, WalStatusInfo};
use crate::protocol::{
    decode_reply, decode_score_reply_v2, encode_request, read_frame, write_frame, AbortAck, Ack,
    AdaptReport, CommitAck, DrainReply, MetricsDump, Request, RollbackAck, RollbackToAck, StageAck,
    Wire, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_INTERNAL, STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN, STATUS_UNSUPPORTED,
};
use lre_obs::FlightEvent;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Outcome of a score request.
#[derive(Clone, Debug, PartialEq)]
pub enum ScoreReply {
    Scored(ScoredUtt),
    /// The server shed this request (queue or inflight window full); retry
    /// after backoff.
    Overloaded,
    /// The server is draining; no further requests will be accepted.
    ShuttingDown,
    /// The request's deadline passed before a worker reached it.
    DeadlineExceeded,
    /// The server's scorer failed internally; the request is lost but the
    /// connection is still usable.
    Failed,
    /// The server refused the samples (see `lre_serve::server::admissible`):
    /// too few for a frame, not finite, or too loud. The connection is
    /// still usable.
    BadRequest,
}

impl ScoreReply {
    fn from_wire(reply: Result<ScoredUtt, u8>) -> io::Result<ScoreReply> {
        match reply {
            Ok(scored) => Ok(ScoreReply::Scored(scored)),
            Err(STATUS_OVERLOADED) => Ok(ScoreReply::Overloaded),
            Err(STATUS_SHUTTING_DOWN) => Ok(ScoreReply::ShuttingDown),
            Err(STATUS_DEADLINE_EXCEEDED) => Ok(ScoreReply::DeadlineExceeded),
            Err(STATUS_INTERNAL) => Ok(ScoreReply::Failed),
            Err(STATUS_BAD_REQUEST) => Ok(ScoreReply::BadRequest),
            Err(s) => Err(proto_err(format!("server refused request (status {s})"))),
        }
    }
}

fn proto_err(what: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A refusal the caller has no typed use for becomes an I/O error.
fn accepted<T>(reply: Result<T, u8>, what: &str) -> io::Result<T> {
    reply.map_err(|s| proto_err(format!("{what} refused (status {s})")))
}

/// `unsupported` means the peer lacks the hook, which callers treat as
/// `None`; any other refusal is an error.
fn if_supported<T>(reply: Result<T, u8>, what: &str) -> io::Result<Option<T>> {
    match reply {
        Err(STATUS_UNSUPPORTED) => Ok(None),
        other => accepted(other, what).map(Some),
    }
}

/// The wire form of a deadline: whole milliseconds, `0` = none. `None`, a
/// zero duration and anything beyond `u32::MAX` ms mean no deadline; any
/// other duration under a millisecond rounds *up* to 1 so the tightest
/// deadlines are not the ones silently dropped.
pub fn deadline_to_wire_ms(deadline: Option<Duration>) -> u32 {
    match deadline {
        Some(d) if !d.is_zero() => u32::try_from(d.as_millis()).map_or(0, |ms| ms.max(1)),
        _ => 0,
    }
}

/// One connection to a scoring server or router.
///
/// ```text
/// let mut c = Client::connect(addr)?;
/// for u in &utts { c.submit(u, None)?; }          // fill the window
/// while c.inflight() > 0 { let (id, r) = c.recv()?; ... }
/// ```
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    inflight: usize,
}

/// The name the pipelined half of the client had while there were two.
/// Nothing in the workspace uses it; the benchmark package (`bench-e2e`)
/// still does, so it goes with the next change to that package.
pub type PipelinedClient = Client;

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            next_id: 0,
            inflight: 0,
        })
    }

    /// Requests currently outstanding (submitted, reply not yet received).
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Submit one utterance without waiting for its reply; returns the
    /// request id this client assigned (sequential from 0). See
    /// [`deadline_to_wire_ms`] for how the deadline travels.
    pub fn submit(&mut self, samples: &[f32], deadline: Option<Duration>) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::ScoreV2 {
            id,
            deadline_ms: deadline_to_wire_ms(deadline),
            samples: samples.to_vec(),
        };
        write_frame(&mut self.stream, &encode_request(&request))?;
        self.inflight += 1;
        Ok(id)
    }

    /// Block for the next score reply, whichever request it answers. A
    /// scored one carries its stage-timestamped span.
    pub fn recv(&mut self) -> io::Result<(u64, ScoreReply)> {
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| proto_err("server closed with replies outstanding"))?;
        self.inflight = self.inflight.saturating_sub(1);
        let (id, reply) = decode_score_reply_v2(&frame).map_err(proto_err)?;
        Ok((id, ScoreReply::from_wire(reply)?))
    }

    /// Score one utterance and wait for its reply.
    pub fn score(&mut self, samples: &[f32]) -> io::Result<ScoreReply> {
        self.idle("score")?;
        self.submit(samples, None)?;
        Ok(self.recv()?.1)
    }

    /// Drive a whole workload through a fixed window: keep `window`
    /// requests outstanding until every utterance is submitted, then drain.
    /// Replies are returned **in submission order** regardless of the order
    /// the server produced them.
    pub fn score_all(
        &mut self,
        utts: &[Vec<f32>],
        window: usize,
        deadline: Option<Duration>,
    ) -> io::Result<Vec<ScoreReply>> {
        let window = window.max(1);
        let base = self.next_id;
        let mut replies: Vec<Option<ScoreReply>> = vec![None; utts.len()];
        let mut submitted = 0usize;
        let mut received = 0usize;
        while received < utts.len() {
            while submitted < utts.len() && self.inflight < window {
                self.submit(&utts[submitted], deadline)?;
                submitted += 1;
            }
            let (id, reply) = self.recv()?;
            let slot = id
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < utts.len() && replies[i].is_none())
                .ok_or_else(|| proto_err("reply id matches no outstanding request"))?;
            replies[slot] = Some(reply);
            received += 1;
        }
        Ok(replies
            .into_iter()
            .map(|r| r.expect("all received"))
            .collect())
    }

    /// Control replies carry no id: with score replies outstanding the
    /// next frame could be either, so the call is refused instead.
    fn idle(&self, what: &str) -> io::Result<()> {
        if self.inflight != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{what} with score replies outstanding would misattribute frames"),
            ));
        }
        Ok(())
    }

    /// One control round trip: `Ok(Ok(body))`, or `Ok(Err(status))` for a
    /// typed refusal. Only valid while no score replies are outstanding.
    pub fn call<T: Wire>(&mut self, req: &Request) -> io::Result<Result<T, u8>> {
        self.idle("a control request")?;
        write_frame(&mut self.stream, &encode_request(req))?;
        let frame =
            read_frame(&mut self.stream)?.ok_or_else(|| proto_err("server closed mid-request"))?;
        decode_reply(&frame).map_err(proto_err)
    }

    /// The engine counters: the [`StatsSnapshot::from_dump`] view of the
    /// peer's stats-v3 dump. A router's dump has no engine series, so from
    /// a router this is the [`FleetStats`] aggregate of the same dump.
    pub fn stats_v2(&mut self) -> io::Result<StatsSnapshot> {
        let dump = self.metrics()?.unwrap_or_default();
        StatsSnapshot::from_dump(&dump)
            .or_else(|| FleetStats::from_dump(&dump).map(|f| f.aggregate))
            .ok_or_else(|| proto_err("stats: the peer's dump has no engine or router series"))
    }

    /// Ask the server to run one adaptation cycle now; blocks until the
    /// cycle resolves and returns its report. Servers without an
    /// adaptation controller refuse with `STATUS_UNSUPPORTED`.
    pub fn adapt(&mut self) -> io::Result<AdaptReport> {
        accepted(self.call(&Request::Adapt)?, "adapt")
    }

    /// Generation, inflight, shed and completed: the
    /// [`PingReport::from_stats`] view of [`Client::stats_v2`] — a server's
    /// own counters, or a router's fleet aggregate.
    pub fn ping(&mut self) -> io::Result<PingReport> {
        Ok(PingReport::from_stats(&self.stats_v2()?))
    }

    /// Fleet-wide counters with a per-replica breakdown: the
    /// [`FleetStats::from_dump`] view of the peer's stats-v3 dump.
    /// `Ok(None)` when the peer is a bare replica rather than a router.
    pub fn try_fleet_stats(&mut self) -> io::Result<Option<FleetStats>> {
        Ok(self
            .metrics()?
            .and_then(|dump| FleetStats::from_dump(&dump)))
    }

    /// Peek at (or all-or-nothing drain) the peer's vote log.
    pub fn drain_votes(&mut self, peek: bool, min: u32) -> io::Result<DrainReply> {
        accepted(self.call(&Request::DrainVotes { peek, min })?, "vote drain")
    }

    /// Stage a sealed candidate bundle (two-phase rollout, phase one).
    /// `Err(status)` surfaces a typed refusal (`STATUS_CONFLICT` for a
    /// bundle that failed validation).
    pub fn stage_bundle(&mut self, sealed: &[u8]) -> io::Result<Result<StageAck, u8>> {
        self.call(&Request::StageBundle {
            sealed: sealed.to_vec(),
        })
    }

    /// Commit the staged bundle (phase two); `Err(status)` on a typed
    /// refusal (`STATUS_CONFLICT` with nothing staged).
    pub fn commit_staged(&mut self) -> io::Result<Result<CommitAck, u8>> {
        self.call(&Request::CommitStaged)
    }

    /// Discard the staged bundle; reports whether one existed.
    pub fn abort_staged(&mut self) -> io::Result<AbortAck> {
        accepted(self.call(&Request::AbortStaged)?, "abort")
    }

    /// Reinstall the model displaced by the last commit.
    pub fn rollback(&mut self) -> io::Result<RollbackAck> {
        accepted(self.call(&Request::Rollback)?, "rollback")
    }

    /// The peer's WAL + lineage summary: the [`WalStatusInfo::from_dump`]
    /// view of its stats-v3 dump. `Ok(None)` when the peer runs without a
    /// WAL (no `--wal-dir`, or a router).
    pub fn wal_status(&mut self) -> io::Result<Option<WalStatusInfo>> {
        Ok(self
            .metrics()?
            .and_then(|dump| WalStatusInfo::from_dump(&dump)))
    }

    /// Deep rollback: restore lineage generation `generation` into
    /// serving. `Err(status)` is a typed refusal (unknown/pruned
    /// generation, or a peer without a lineage store).
    pub fn rollback_to(&mut self, generation: u64) -> io::Result<Result<RollbackToAck, u8>> {
        self.call(&Request::RollbackTo { generation })
    }

    /// Dump the peer's telemetry registry (stats-v3): name-sorted
    /// counters, gauges, histogram summaries, and sketches. `Ok(None)`
    /// when the peer predates the stats-v3 tag.
    pub fn metrics(&mut self) -> io::Result<Option<MetricsDump>> {
        if_supported(self.call(&Request::StatsV3)?, "metrics")
    }

    /// Fetch the peer's flight-recorder events, oldest first. `drain`
    /// empties the ring; otherwise the events stay buffered. `Ok(None)`
    /// when the peer predates the flight tag.
    pub fn flight(&mut self, drain: bool) -> io::Result<Option<Vec<FlightEvent>>> {
        if_supported(self.call(&Request::Flight { drain })?, "flight dump")
    }

    /// Request a graceful server shutdown; resolves once acknowledged.
    pub fn shutdown(&mut self) -> io::Result<()> {
        accepted(self.call::<Ack>(&Request::Shutdown)?, "shutdown").map(|Ack| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_millisecond_deadlines_round_up_instead_of_vanishing() {
        let ms = |d| deadline_to_wire_ms(Some(d));
        assert_eq!(deadline_to_wire_ms(None), 0);
        assert_eq!(ms(Duration::ZERO), 0, "zero still means no deadline");
        assert_eq!(ms(Duration::from_nanos(1)), 1);
        assert_eq!(ms(Duration::from_micros(500)), 1);
        assert_eq!(ms(Duration::from_micros(999)), 1);
        assert_eq!(ms(Duration::from_millis(1)), 1);
        assert_eq!(ms(Duration::from_micros(2_500)), 2);
        assert_eq!(ms(Duration::from_millis(u64::from(u32::MAX))), u32::MAX);
        assert_eq!(
            ms(Duration::from_millis(u64::from(u32::MAX) + 1)),
            0,
            "beyond the field's range is documented as no deadline"
        );
    }
}
