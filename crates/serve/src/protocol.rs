//! The wire protocol: length-prefixed frames of `lre-artifact` payloads.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by that many payload bytes. Payloads are packed with the
//! artifact writer/reader primitives (little-endian integers, IEEE-754 bit
//! patterns for floats), so both sides share the corpus of checked-read
//! code with the on-disk bundles. The full layout is documented in
//! `docs/SERVING.md`.
//!
//! Two protocol generations share the tag space, and a server accepts both
//! on the same connection:
//!
//! **v1** (one request in flight, replies in order):
//! - [`REQ_SCORE`] — `f32` slice of raw 8 kHz samples;
//! - [`REQ_STATS`] — empty;
//! - [`REQ_SHUTDOWN`] — empty.
//!
//! **v2** (pipelined: up to the server's inflight window outstanding,
//! replies tagged and possibly out of order):
//! - [`REQ_SCORE_V2`] — client-chosen `u64` request id, `u32` deadline in
//!   milliseconds (0 = none), then the sample slice. The reply echoes the
//!   id after the status byte, so a client can keep many requests
//!   outstanding and match replies as they arrive.
//! - [`REQ_STATS_V2`] — empty; the reply carries the extended counter set
//!   (deadline expirations, internal scoring failures, global-admission
//!   sheds, and the model generation/swap/rollback counters).
//! - [`REQ_ADAPT`] — empty; ask the server to run one adaptation cycle
//!   now (drain the vote log, retrain, guard, maybe swap). Answered
//!   inline like stats; servers without an adaptation controller refuse
//!   it with [`STATUS_UNSUPPORTED`].
//!
//! Replies start with a status byte ([`STATUS_OK`] / [`STATUS_OVERLOADED`]
//! / [`STATUS_BAD_REQUEST`] / [`STATUS_SHUTTING_DOWN`] /
//! [`STATUS_DEADLINE_EXCEEDED`] / [`STATUS_INTERNAL`] /
//! [`STATUS_UNSUPPORTED`]); v2 score replies follow it with the echoed
//! `u64` request id. An `OK` v1 score body is: `f32` slice of per-language
//! LLRs, `u32` decision index, one reserved `u32`. A v2 score body
//! appends the `u64` model generation that produced the row (v1 bodies
//! stay byte-identical so v1 clients keep working unchanged).

use crate::engine::{ScoredUtt, StatsSnapshot};
use lre_artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
use lre_obs::{FlightEvent, HistogramSummary, MetricValue, SketchSummary, TraceSpan, STAGE_REPLY};
use std::io::{self, Read, Write};

pub const REQ_SCORE: u8 = 1;
pub const REQ_STATS: u8 = 2;
pub const REQ_SHUTDOWN: u8 = 3;
pub const REQ_SCORE_V2: u8 = 4;
pub const REQ_STATS_V2: u8 = 5;
pub const REQ_ADAPT: u8 = 6;
/// Lightweight health probe: the reply carries the serving generation,
/// requests currently in flight, and the shed counters — cheap enough for
/// a router to send every health interval. Answered inline on the reader
/// thread without touching the scoring queue.
pub const REQ_PING: u8 = 7;
/// Drain (or peek at) the replica's vote log. Body: `u8` peek flag +
/// `u32` min-records floor. The drain is all-or-nothing: below the floor
/// the log is untouched and only the buffered count comes back.
pub const REQ_DRAIN_VOTES: u8 = 8;
/// Phase one of a two-phase rollout: stage a sealed candidate bundle on
/// the replica (decode + validate, hold unserved). Body: the sealed bytes
/// as a blob. Replying OK is the replica's promise that a commit cannot
/// fail on decode.
pub const REQ_STAGE_BUNDLE: u8 = 9;
/// Phase two: atomically swap the staged bundle into serving. Refused
/// `STATUS_CONFLICT` when nothing is staged.
pub const REQ_COMMIT_STAGED: u8 = 10;
/// Discard a staged bundle without serving it (rollout abort path).
/// Idempotent; the reply reports whether anything was staged.
pub const REQ_ABORT_STAGED: u8 = 11;
/// Reinstall the model displaced by the last commit (one-deep,
/// bit-identical, under a fresh generation).
pub const REQ_ROLLBACK: u8 = 12;
/// Router-only: aggregate fleet counters plus a per-replica breakdown
/// (health, generation, inflight). Single replicas refuse it
/// `STATUS_UNSUPPORTED`.
pub const REQ_FLEET_STATS: u8 = 13;
/// Dump the telemetry registry (stats-v3): every counter, gauge,
/// histogram summary, and sketch, name-sorted. Servers running without a
/// telemetry bundle refuse it `STATUS_UNSUPPORTED`.
pub const REQ_STATS_V3: u8 = 14;
/// Peek at (flag 0) or drain (flag 1) the flight recorder's event ring.
/// Refused `STATUS_UNSUPPORTED` without a telemetry bundle.
pub const REQ_FLIGHT: u8 = 15;
/// [`REQ_SCORE_V2`] plus a `u64` trace id after the deadline. The OK
/// reply appends the trace id and the stage-timestamped span to the v2
/// score body. A zero trace id asks the server to mint one. The request
/// id stays at bytes 1..9 — the router's id-splicing works unchanged.
pub const REQ_SCORE_TRACED: u8 = 16;
/// Report the durability tier's state: write-ahead-log watermarks,
/// segment counts, replay/torn counters from the last recovery, and the
/// generation-lineage chain summary. Empty body. Servers running without
/// a WAL refuse it `STATUS_UNSUPPORTED`.
pub const REQ_WAL_STATUS: u8 = 17;
/// Deep rollback: restore a specific previously served generation from
/// the lineage store, bit-identically. Body: `u64` generation. Refused
/// `STATUS_CONFLICT` when the generation is unknown or its bytes were
/// garbage-collected, `STATUS_UNSUPPORTED` without a lineage store.
pub const REQ_ROLLBACK_TO: u8 = 18;

pub const STATUS_OK: u8 = 0;
pub const STATUS_OVERLOADED: u8 = 1;
pub const STATUS_BAD_REQUEST: u8 = 2;
pub const STATUS_SHUTTING_DOWN: u8 = 3;
/// The request's deadline passed before a worker reached it; the server
/// shed it without scoring (v2 only — v1 requests carry no deadline).
pub const STATUS_DEADLINE_EXCEEDED: u8 = 4;
/// The scorer itself failed (e.g. a lazily mapped bundle section failed to
/// decode). The request is lost but the connection stays usable.
pub const STATUS_INTERNAL: u8 = 5;
/// The server understood the request but has no handler for it (e.g.
/// [`REQ_ADAPT`] against a server started without an adaptation
/// controller).
pub const STATUS_UNSUPPORTED: u8 = 6;
/// The request is well-formed and supported but the replica's state does
/// not allow it right now (e.g. [`REQ_COMMIT_STAGED`] with nothing
/// staged, or a stage that failed validation). The connection stays
/// usable.
pub const STATUS_CONFLICT: u8 = 7;

/// Refuse frames above this size (16 MiB ≈ a half-hour utterance) so a
/// corrupt or hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Sentinel in the score body's `u32` decision field marking an open-set
/// `unknown` reply: the utterance was scored (the LLR slice is present as
/// usual) but its best LLR fell below the server's `--unknown-threshold`,
/// so no target language is claimed. Decoders recover the arg-max index
/// locally from the LLRs (bit-identical to what the server computed) and
/// set [`ScoredUtt::unknown`]. Servers running closed-set (no threshold)
/// never emit it, which keeps their v1/v2 bodies byte-identical to the
/// pre-open-set wire.
pub const DECISION_UNKNOWN: u32 = u32::MAX;

/// A decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// v1: score one utterance of raw samples (reply carries no id).
    Score { samples: Vec<f32> },
    /// Report engine counters (v1 nine-counter reply).
    Stats,
    /// Gracefully stop the server.
    Shutdown,
    /// v2: pipelined score. `deadline_ms == 0` means no deadline.
    ScoreV2 {
        id: u64,
        deadline_ms: u32,
        samples: Vec<f32>,
    },
    /// Report the extended engine counters (v2 reply).
    StatsV2,
    /// Run one adaptation cycle now (reply: [`AdaptReport`], or
    /// [`STATUS_UNSUPPORTED`] without a controller).
    Adapt,
    /// Health probe (reply: [`PingReport`]).
    Ping,
    /// Drain the vote log all-or-nothing, or just peek at its depth.
    DrainVotes { peek: bool, min: u32 },
    /// Stage a sealed candidate bundle (two-phase rollout, phase one).
    StageBundle { sealed: Vec<u8> },
    /// Swap the staged bundle into serving (phase two).
    CommitStaged,
    /// Discard the staged bundle (rollout abort).
    AbortStaged,
    /// Reinstall the model displaced by the last commit.
    Rollback,
    /// Aggregate + per-replica fleet counters (router only).
    FleetStats,
    /// Dump the telemetry registry (stats-v3 reply).
    StatsV3,
    /// Peek at or drain the flight recorder.
    Flight { drain: bool },
    /// v2 score carrying a trace id (0 = server mints one); the reply
    /// appends the stage-timestamped span.
    ScoreTraced {
        id: u64,
        deadline_ms: u32,
        trace_id: u64,
        samples: Vec<f32>,
    },
    /// Report WAL + lineage durability state ([`WalStatusInfo`] reply).
    WalStatus,
    /// Restore a specific retained generation from the lineage store.
    RollbackTo { generation: u64 },
}

/// How a requested adaptation cycle ended.
pub const ADAPT_PROMOTED: u8 = 0;
/// The retrained candidate regressed the guard metrics; serving model,
/// generation and scores are unchanged.
pub const ADAPT_REJECTED_GUARD: u8 = 1;
/// The vote log held too few confidently pseudo-labelled utterances;
/// records were returned to the log for a later cycle.
pub const ADAPT_INSUFFICIENT_DATA: u8 = 2;
/// The cycle failed internally (e.g. undecodable parent bundle bytes).
pub const ADAPT_FAILED: u8 = 3;

/// Result of one on-demand adaptation cycle ([`Request::Adapt`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptReport {
    /// One of the `ADAPT_*` constants.
    pub outcome: u8,
    /// Serving generation after the cycle.
    pub generation: u64,
    /// Utterances selected by the Eq. 13 vote this cycle.
    pub selected: u32,
    /// Vote-log records drained (pre-dedup) this cycle.
    pub drained: u32,
}

/// Write one frame: `u32` LE length + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF (peer closed between frames).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean close arrives as EOF on the first header byte; EOF anywhere
    // later is a truncated frame and stays an error.
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => got += n,
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    match req {
        Request::Score { samples } => {
            w.put_u8(REQ_SCORE);
            w.put_f32_slice(samples);
        }
        Request::Stats => w.put_u8(REQ_STATS),
        Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
        Request::ScoreV2 {
            id,
            deadline_ms,
            samples,
        } => {
            w.put_u8(REQ_SCORE_V2);
            w.put_u64(*id);
            w.put_u32(*deadline_ms);
            w.put_f32_slice(samples);
        }
        Request::StatsV2 => w.put_u8(REQ_STATS_V2),
        Request::Adapt => w.put_u8(REQ_ADAPT),
        Request::Ping => w.put_u8(REQ_PING),
        Request::DrainVotes { peek, min } => {
            w.put_u8(REQ_DRAIN_VOTES);
            w.put_u8(u8::from(*peek));
            w.put_u32(*min);
        }
        Request::StageBundle { sealed } => {
            w.put_u8(REQ_STAGE_BUNDLE);
            w.put_blob(sealed);
        }
        Request::CommitStaged => w.put_u8(REQ_COMMIT_STAGED),
        Request::AbortStaged => w.put_u8(REQ_ABORT_STAGED),
        Request::Rollback => w.put_u8(REQ_ROLLBACK),
        Request::FleetStats => w.put_u8(REQ_FLEET_STATS),
        Request::StatsV3 => w.put_u8(REQ_STATS_V3),
        Request::Flight { drain } => {
            w.put_u8(REQ_FLIGHT);
            w.put_u8(u8::from(*drain));
        }
        Request::ScoreTraced {
            id,
            deadline_ms,
            trace_id,
            samples,
        } => {
            w.put_u8(REQ_SCORE_TRACED);
            w.put_u64(*id);
            w.put_u32(*deadline_ms);
            w.put_u64(*trace_id);
            w.put_f32_slice(samples);
        }
        Request::WalStatus => w.put_u8(REQ_WAL_STATUS),
        Request::RollbackTo { generation } => {
            w.put_u8(REQ_ROLLBACK_TO);
            w.put_u64(*generation);
        }
    }
    w.into_bytes()
}

pub fn decode_request(bytes: &[u8]) -> Result<Request, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let req = match r.get_u8()? {
        REQ_SCORE => Request::Score {
            samples: r.get_f32_slice()?,
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_SCORE_V2 => Request::ScoreV2 {
            id: r.get_u64()?,
            deadline_ms: r.get_u32()?,
            samples: r.get_f32_slice()?,
        },
        REQ_STATS_V2 => Request::StatsV2,
        REQ_ADAPT => Request::Adapt,
        REQ_PING => Request::Ping,
        REQ_DRAIN_VOTES => {
            let peek = match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(ArtifactError::Corrupt("drain peek flag out of range")),
            };
            Request::DrainVotes {
                peek,
                min: r.get_u32()?,
            }
        }
        REQ_STAGE_BUNDLE => Request::StageBundle {
            sealed: r.get_blob()?.to_vec(),
        },
        REQ_COMMIT_STAGED => Request::CommitStaged,
        REQ_ABORT_STAGED => Request::AbortStaged,
        REQ_ROLLBACK => Request::Rollback,
        REQ_FLEET_STATS => Request::FleetStats,
        REQ_STATS_V3 => Request::StatsV3,
        REQ_FLIGHT => {
            let drain = match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(ArtifactError::Corrupt("flight drain flag out of range")),
            };
            Request::Flight { drain }
        }
        REQ_SCORE_TRACED => Request::ScoreTraced {
            id: r.get_u64()?,
            deadline_ms: r.get_u32()?,
            trace_id: r.get_u64()?,
            samples: r.get_f32_slice()?,
        },
        REQ_WAL_STATUS => Request::WalStatus,
        REQ_ROLLBACK_TO => Request::RollbackTo {
            generation: r.get_u64()?,
        },
        _ => return Err(ArtifactError::Corrupt("unknown request tag")),
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(req)
}

/// A bare status reply (v1 errors, and the shutdown acknowledgement).
pub fn encode_status(status: u8) -> Vec<u8> {
    vec![status]
}

/// A v2 status-only reply: status byte + echoed request id.
pub fn encode_status_v2(id: u64, status: u8) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(status);
    w.put_u64(id);
    w.into_bytes()
}

/// `with_generation` distinguishes the v2 body (trailing `u64` model
/// generation) from the v1 body, which must stay byte-identical to the
/// pre-adaptation wire format.
fn put_score_body(w: &mut ArtifactWriter, scored: &ScoredUtt, with_generation: bool) {
    w.put_f32_slice(&scored.llrs);
    w.put_u32(if scored.unknown {
        DECISION_UNKNOWN
    } else {
        scored.decision as u32
    });
    // Reserved (was the batch size) until the tag-table rewrite: written
    // as 1, ignored on decode, so body offsets stay where routers splice.
    w.put_u32(1);
    if with_generation {
        w.put_u64(scored.generation);
    }
}

fn get_score_body(
    r: &mut ArtifactReader,
    with_generation: bool,
) -> Result<ScoredUtt, ArtifactError> {
    let scored = get_score_body_inner(r, with_generation)?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(scored)
}

/// The score body alone, leaving the reader positioned after it (the
/// traced reply appends the span behind the body).
fn get_score_body_inner(
    r: &mut ArtifactReader,
    with_generation: bool,
) -> Result<ScoredUtt, ArtifactError> {
    let llrs = r.get_f32_slice()?;
    let decision_wire = r.get_u32()?;
    r.get_u32()?; // reserved, see `put_score_body`
                  // v1 replies predate hot swapping; report them as generation 0.
    let generation = if with_generation { r.get_u64()? } else { 0 };
    let unknown = decision_wire == DECISION_UNKNOWN;
    let decision = if unknown {
        // The sentinel claims no language; recover the best in-set guess
        // from the LLRs themselves (same arg-max the server computed).
        if llrs.is_empty() {
            return Err(ArtifactError::Corrupt("unknown reply with no LLRs"));
        }
        crate::engine::decision(&llrs)
    } else {
        let decision = decision_wire as usize;
        if decision >= llrs.len().max(1) {
            return Err(ArtifactError::Corrupt("decision index out of range"));
        }
        decision
    };
    Ok(ScoredUtt {
        llrs,
        decision,
        generation,
        span: None,
        unknown,
    })
}

pub fn encode_score_ok(scored: &ScoredUtt) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    put_score_body(&mut w, scored, false);
    w.into_bytes()
}

/// A v2 score success: status + echoed id + score body (with generation).
pub fn encode_score_ok_v2(id: u64, scored: &ScoredUtt) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(id);
    put_score_body(&mut w, scored, true);
    w.into_bytes()
}

/// `Ok(Ok(scored))` on success, `Ok(Err(status))` on a refusal status.
pub fn decode_score_reply(bytes: &[u8]) -> Result<Result<ScoredUtt, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    Ok(Ok(get_score_body(&mut r, false)?))
}

/// Decode a v2 score reply: `(request id, Ok(scored) | Err(status))`.
pub fn decode_score_reply_v2(bytes: &[u8]) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    let id = r.get_u64()?;
    if status != STATUS_OK {
        if r.remaining() != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        return Ok((id, Err(status)));
    }
    Ok((id, Ok(get_score_body(&mut r, true)?)))
}

/// A traced score success: the v2 reply plus `u64` trace id, `u32` stage
/// count, then per stage a `u8` stage id and `u64` offset (µs from engine
/// admission). `trace_id` is passed separately because refusals (which
/// use [`encode_status_v2`]) leave `scored.span` unset.
pub fn encode_score_ok_traced(id: u64, trace_id: u64, scored: &ScoredUtt) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(id);
    put_score_body(&mut w, scored, true);
    w.put_u64(trace_id);
    let stages: &[(u8, u64)] = scored.span.as_ref().map_or(&[], |s| &s.stages);
    w.put_u32(stages.len() as u32);
    for &(stage, offset_us) in stages {
        w.put_u8(stage);
        w.put_u64(offset_us);
    }
    w.into_bytes()
}

/// Decode a traced score reply: `(request id, Ok(scored with span) |
/// Err(status))`. A malformed span (unknown stage id, non-increasing
/// stages, decreasing offsets) is a protocol error, not a refusal.
pub fn decode_score_reply_traced(
    bytes: &[u8],
) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    let id = r.get_u64()?;
    if status != STATUS_OK {
        if r.remaining() != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        return Ok((id, Err(status)));
    }
    let mut scored = get_score_body_inner(&mut r, true)?;
    let trace_id = r.get_u64()?;
    let n_stages = r.get_u32()?;
    let mut span = TraceSpan::new(trace_id);
    for _ in 0..n_stages {
        let stage = r.get_u8()?;
        if stage > STAGE_REPLY {
            return Err(ArtifactError::Corrupt("span stage id out of range"));
        }
        span.mark(stage, r.get_u64()?);
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    if !span.is_well_formed() {
        return Err(ArtifactError::Corrupt("span stages out of order"));
    }
    scored.span = Some(span);
    Ok((id, Ok(scored)))
}

/// The nine v1 counters, in declaration order (a v1 client must keep
/// decoding stats replies unchanged).
const V1_COUNTERS: usize = 9;

fn put_stats(w: &mut ArtifactWriter, s: &StatsSnapshot, extended: bool) {
    let mut vals = vec![
        s.requests,
        s.completed,
        s.rejected,
        // Slots 4–5 are reserved (were the batch counters) until the
        // tag-table rewrite: written as 0, ignored on decode.
        0,
        0,
        s.max_queue_depth,
        s.latency_us_sum,
        s.latency_us_max,
        s.uptime_us,
    ];
    debug_assert_eq!(vals.len(), V1_COUNTERS);
    if extended {
        vals.push(s.expired);
        vals.push(s.failed);
        vals.push(s.shed_global);
        vals.push(s.generation);
        vals.push(s.swaps);
        vals.push(s.rollbacks);
        vals.push(s.fast_math);
        vals.push(s.unknown);
    }
    for v in vals {
        w.put_u64(v);
    }
}

pub fn encode_stats_ok(s: &StatsSnapshot) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    put_stats(&mut w, s, false);
    w.into_bytes()
}

/// Extended (v2) stats reply: the nine v1 counters plus deadline
/// expirations, internal failures, global-admission sheds, the model
/// generation / swap / rollback counters, and the fast-math flag.
pub fn encode_stats_ok_v2(s: &StatsSnapshot) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    put_stats(&mut w, s, true);
    w.into_bytes()
}

fn get_stats(r: &mut ArtifactReader, extended: bool) -> Result<StatsSnapshot, ArtifactError> {
    let s = get_stats_counters(r, extended)?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(s)
}

/// The counter block alone, leaving the reader positioned after it (the
/// fleet-stats reply appends per-replica rows behind the aggregate).
fn get_stats_counters(
    r: &mut ArtifactReader,
    extended: bool,
) -> Result<StatsSnapshot, ArtifactError> {
    let (requests, completed, rejected) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
    // Reserved slots 4–5, see `put_stats`.
    r.get_u64()?;
    r.get_u64()?;
    let mut s = StatsSnapshot {
        requests,
        completed,
        rejected,
        max_queue_depth: r.get_u64()?,
        latency_us_sum: r.get_u64()?,
        latency_us_max: r.get_u64()?,
        uptime_us: r.get_u64()?,
        expired: 0,
        failed: 0,
        shed_global: 0,
        generation: 0,
        swaps: 0,
        rollbacks: 0,
        fast_math: 0,
        unknown: 0,
    };
    if extended {
        s.expired = r.get_u64()?;
        s.failed = r.get_u64()?;
        s.shed_global = r.get_u64()?;
        s.generation = r.get_u64()?;
        s.swaps = r.get_u64()?;
        s.rollbacks = r.get_u64()?;
        s.fast_math = r.get_u64()?;
        s.unknown = r.get_u64()?;
    }
    Ok(s)
}

/// `Ok(Ok(snapshot))` on success, `Ok(Err(status))` on a refusal status.
pub fn decode_stats_reply(bytes: &[u8]) -> Result<Result<StatsSnapshot, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    Ok(Ok(get_stats(&mut r, false)?))
}

/// Decode the extended (v2) stats reply.
pub fn decode_stats_reply_v2(bytes: &[u8]) -> Result<Result<StatsSnapshot, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    Ok(Ok(get_stats(&mut r, true)?))
}

/// A successful adaptation-cycle reply.
pub fn encode_adapt_ok(report: &AdaptReport) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u8(report.outcome);
    w.put_u64(report.generation);
    w.put_u32(report.selected);
    w.put_u32(report.drained);
    w.into_bytes()
}

/// `Ok(Ok(report))` on success, `Ok(Err(status))` on a refusal status
/// (notably [`STATUS_UNSUPPORTED`]).
pub fn decode_adapt_reply(bytes: &[u8]) -> Result<Result<AdaptReport, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let outcome = r.get_u8()?;
    if outcome > ADAPT_FAILED {
        return Err(ArtifactError::Corrupt("unknown adaptation outcome"));
    }
    let report = AdaptReport {
        outcome,
        generation: r.get_u64()?,
        selected: r.get_u32()?,
        drained: r.get_u32()?,
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(report))
}

/// The health-probe reply body ([`Request::Ping`]). Everything a router's
/// health loop needs in four counters, computed from the engine's stats
/// snapshot without touching the scoring queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PingReport {
    /// Serving model generation.
    pub generation: u64,
    /// Requests admitted but not yet resolved (completed/rejected/
    /// expired/failed).
    pub inflight: u64,
    /// Load-shedding refusals so far (queue-full rejections + deadline
    /// expirations + global-admission sheds) — the router's overload
    /// signal.
    pub shed: u64,
    /// Successfully scored utterances so far.
    pub completed: u64,
}

impl PingReport {
    /// Derive the probe body from an engine stats snapshot.
    pub fn from_stats(s: &StatsSnapshot) -> PingReport {
        PingReport {
            generation: s.generation,
            inflight: s
                .requests
                .saturating_sub(s.completed + s.rejected + s.expired + s.failed),
            shed: s.rejected + s.expired + s.shed_global,
            completed: s.completed,
        }
    }
}

pub fn encode_ping_ok(p: &PingReport) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(p.generation);
    w.put_u64(p.inflight);
    w.put_u64(p.shed);
    w.put_u64(p.completed);
    w.into_bytes()
}

/// `Ok(Ok(report))` on success, `Ok(Err(status))` on a refusal status.
pub fn decode_ping_reply(bytes: &[u8]) -> Result<Result<PingReport, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let report = PingReport {
        generation: r.get_u64()?,
        inflight: r.get_u64()?,
        shed: r.get_u64()?,
        completed: r.get_u64()?,
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(report))
}

/// A drain (or peek) reply: how many records were buffered, and — when the
/// drain went through — the sealed `VLOG` snapshot bytes of everything
/// taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainReply {
    /// Records buffered at request time (post-drain the log holds zero).
    pub buffered: u32,
    /// `Some(sealed VLOG bytes)` when the drain happened; `None` on a
    /// peek, or when the buffer was below the requested floor.
    pub sealed: Option<Vec<u8>>,
}

pub fn encode_drain_ok(reply: &DrainReply) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u32(reply.buffered);
    match &reply.sealed {
        Some(bytes) => {
            w.put_u8(1);
            w.put_blob(bytes);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

/// `Ok(Ok(reply))` on success, `Ok(Err(status))` on a refusal status.
pub fn decode_drain_reply(bytes: &[u8]) -> Result<Result<DrainReply, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let buffered = r.get_u32()?;
    let sealed = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_blob()?.to_vec()),
        _ => return Err(ArtifactError::Corrupt("drain reply flag out of range")),
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(DrainReply { buffered, sealed }))
}

/// A stage acknowledgement: the replica decoded and validated the
/// candidate and holds it unserved. The checksum lets the coordinator
/// confirm every replica staged the *same* bytes before committing any.
pub fn encode_stage_ok(checksum: u32) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u32(checksum);
    w.into_bytes()
}

/// `Ok(Ok(checksum))` on success, `Ok(Err(status))` on a refusal.
pub fn decode_stage_reply(bytes: &[u8]) -> Result<Result<u32, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let checksum = r.get_u32()?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(checksum))
}

/// A commit acknowledgement: the staged bundle is serving under
/// `generation`; `checksum` echoes the staged bundle's checksum.
pub fn encode_commit_ok(generation: u64, checksum: u32) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(generation);
    w.put_u32(checksum);
    w.into_bytes()
}

/// `Ok(Ok((generation, checksum)))` on success, `Ok(Err(status))` on a
/// refusal (notably [`STATUS_CONFLICT`] with nothing staged).
pub fn decode_commit_reply(bytes: &[u8]) -> Result<Result<(u64, u32), u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let generation = r.get_u64()?;
    let checksum = r.get_u32()?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok((generation, checksum)))
}

/// An abort acknowledgement: `had_staged` reports whether anything was
/// actually discarded (the request is idempotent either way).
pub fn encode_abort_ok(had_staged: bool) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u8(u8::from(had_staged));
    w.into_bytes()
}

/// `Ok(Ok(had_staged))` on success, `Ok(Err(status))` on a refusal.
pub fn decode_abort_reply(bytes: &[u8]) -> Result<Result<bool, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let had_staged = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(ArtifactError::Corrupt("abort reply flag out of range")),
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(had_staged))
}

/// A rollback acknowledgement: `rolled` reports whether a displaced model
/// existed to restore; `generation` is the serving generation afterwards.
pub fn encode_rollback_ok(rolled: bool, generation: u64) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u8(u8::from(rolled));
    w.put_u64(generation);
    w.into_bytes()
}

/// `Ok(Ok((rolled, generation)))` on success, `Ok(Err(status))` on a
/// refusal.
pub fn decode_rollback_reply(bytes: &[u8]) -> Result<Result<(bool, u64), u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let rolled = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(ArtifactError::Corrupt("rollback reply flag out of range")),
    };
    let generation = r.get_u64()?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok((rolled, generation)))
}

/// The durability tier's state: WAL watermarks and recovery counters
/// plus the generation-lineage chain summary ([`Request::WalStatus`]
/// reply body). Replicas without a lineage store report zeroed lineage
/// fields with `chain_ok` true (an empty chain is a sound chain).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStatusInfo {
    /// Total vote records ever appended (the WAL's next sequence number).
    pub appended: u64,
    /// First sequence number still logically in the log.
    pub low_water: u64,
    /// Records currently buffered in the WAL (`appended - low_water`).
    pub buffered: u64,
    /// Live segment files, open + sealed.
    pub segments: u64,
    /// Of those, sealed (compressed, immutable).
    pub sealed_segments: u64,
    /// Records replayed by this process's crash recovery.
    pub replayed: u64,
    /// Torn tail records skipped by this process's crash recovery.
    pub torn: u64,
    /// fsyncs issued since this process opened the WAL.
    pub fsyncs: u64,
    /// Newest generation in the lineage chain.
    pub lineage_head: u64,
    /// Chain entries, pruned included.
    pub lineage_entries: u32,
    /// Entries whose sealed bundle bytes are still on disk.
    pub lineage_retained: u32,
    /// Bytes held by retained generations.
    pub lineage_bytes: u64,
    /// Whether the chain validated (contiguous, acyclic, files present).
    pub chain_ok: bool,
}

/// A wal-status reply body.
pub fn encode_wal_status_ok(info: &WalStatusInfo) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(info.appended);
    w.put_u64(info.low_water);
    w.put_u64(info.buffered);
    w.put_u64(info.segments);
    w.put_u64(info.sealed_segments);
    w.put_u64(info.replayed);
    w.put_u64(info.torn);
    w.put_u64(info.fsyncs);
    w.put_u64(info.lineage_head);
    w.put_u32(info.lineage_entries);
    w.put_u32(info.lineage_retained);
    w.put_u64(info.lineage_bytes);
    w.put_u8(u8::from(info.chain_ok));
    w.into_bytes()
}

/// `Ok(Ok(info))` on success, `Ok(Err(status))` on a refusal (notably
/// [`STATUS_UNSUPPORTED`] from a server running without a WAL).
pub fn decode_wal_status_reply(bytes: &[u8]) -> Result<Result<WalStatusInfo, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let info = WalStatusInfo {
        appended: r.get_u64()?,
        low_water: r.get_u64()?,
        buffered: r.get_u64()?,
        segments: r.get_u64()?,
        sealed_segments: r.get_u64()?,
        replayed: r.get_u64()?,
        torn: r.get_u64()?,
        fsyncs: r.get_u64()?,
        lineage_head: r.get_u64()?,
        lineage_entries: r.get_u32()?,
        lineage_retained: r.get_u32()?,
        lineage_bytes: r.get_u64()?,
        chain_ok: match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(ArtifactError::Corrupt("chain_ok flag out of range")),
        },
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(info))
}

/// A deep-rollback acknowledgement: the requested generation is serving
/// again; `generation` is the (monotonic) serving generation counter
/// afterwards, `restored` the lineage generation that was restored, and
/// `checksum` its bundle checksum — the coordinator checks it against
/// the chain entry it asked for.
pub fn encode_rollback_to_ok(generation: u64, restored: u64, checksum: u32) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u64(generation);
    w.put_u64(restored);
    w.put_u32(checksum);
    w.into_bytes()
}

/// `Ok(Ok((generation, restored, checksum)))` on success, `Ok(Err(status))`
/// on a refusal ([`STATUS_CONFLICT`] for unknown or pruned generations).
pub fn decode_rollback_to_reply(
    bytes: &[u8],
) -> Result<Result<(u64, u64, u32), u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let generation = r.get_u64()?;
    let restored = r.get_u64()?;
    let checksum = r.get_u32()?;
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok((generation, restored, checksum)))
}

/// One replica's row in a fleet-stats breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStat {
    /// Backend address as the router dials it (e.g. `127.0.0.1:7701`).
    pub addr: String,
    /// Whether the router currently routes to this replica.
    pub healthy: bool,
    /// The replica's serving model generation at its last health probe.
    pub generation: u64,
    /// Requests the router currently has outstanding on this replica.
    pub inflight: u64,
    /// Utterances this replica has scored (from its last probe).
    pub completed: u64,
    /// Load-shedding refusals this replica has issued (from its last
    /// probe).
    pub shed: u64,
}

/// The router's fleet-stats reply: the aggregate extended counter set
/// (summed over replicas, `generation` = the minimum replica generation so
/// a mixed fleet is visible) plus the per-replica breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetStats {
    pub aggregate: StatsSnapshot,
    pub replicas: Vec<ReplicaStat>,
}

pub fn encode_fleet_stats_ok(f: &FleetStats) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    put_stats(&mut w, &f.aggregate, true);
    w.put_u32(f.replicas.len() as u32);
    for rep in &f.replicas {
        w.put_str(&rep.addr);
        w.put_u8(u8::from(rep.healthy));
        w.put_u64(rep.generation);
        w.put_u64(rep.inflight);
        w.put_u64(rep.completed);
        w.put_u64(rep.shed);
    }
    w.into_bytes()
}

/// `Ok(Ok(stats))` on success, `Ok(Err(status))` on a refusal (notably
/// [`STATUS_UNSUPPORTED`] from a bare replica).
pub fn decode_fleet_stats_reply(bytes: &[u8]) -> Result<Result<FleetStats, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let aggregate = get_stats_counters(&mut r, true)?;
    let n = r.get_u32()? as usize;
    let mut replicas = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let addr = r.get_str()?;
        let healthy = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(ArtifactError::Corrupt("replica health flag out of range")),
        };
        replicas.push(ReplicaStat {
            addr,
            healthy,
            generation: r.get_u64()?,
            inflight: r.get_u64()?,
            completed: r.get_u64()?,
            shed: r.get_u64()?,
        });
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(FleetStats {
        aggregate,
        replicas,
    }))
}

/// The stats-v3 reply: every registered series, name-sorted. Entry
/// layout: `u8` kind (0 counter / 1 gauge / 2 histogram / 3 sketch), the
/// name, then the kind's payload — a `u64` for counters and gauges; the
/// seven histogram-summary `u64`s (count, sum, max, p50, p90, p99,
/// p99.9); or a sketch's `u64` count plus mean and M2 as `f64` bit
/// patterns. Names must be strictly increasing; the decoder enforces it.
pub fn encode_metrics_ok(entries: &[(String, MetricValue)]) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u32(entries.len() as u32);
    for (name, value) in entries {
        w.put_u8(value.kind());
        w.put_str(name);
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => w.put_u64(*v),
            MetricValue::Histogram(h) => {
                for v in [h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999] {
                    w.put_u64(v);
                }
            }
            MetricValue::Sketch(s) => {
                w.put_u64(s.count);
                w.put_u64(s.mean.to_bits());
                w.put_u64(s.m2.to_bits());
            }
        }
    }
    w.into_bytes()
}

/// `Ok(Ok(entries))` on success, `Ok(Err(status))` on a refusal (notably
/// [`STATUS_UNSUPPORTED`] from a server running without telemetry).
#[allow(clippy::type_complexity)]
pub fn decode_metrics_reply(
    bytes: &[u8],
) -> Result<Result<Vec<(String, MetricValue)>, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let n = r.get_u32()? as usize;
    let mut entries: Vec<(String, MetricValue)> = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind = r.get_u8()?;
        let name = r.get_str()?;
        if let Some((prev, _)) = entries.last() {
            if *prev >= name {
                return Err(ArtifactError::Corrupt("metric names out of order"));
            }
        }
        let value = match kind {
            0 => MetricValue::Counter(r.get_u64()?),
            1 => MetricValue::Gauge(r.get_u64()?),
            2 => MetricValue::Histogram(HistogramSummary {
                count: r.get_u64()?,
                sum: r.get_u64()?,
                max: r.get_u64()?,
                p50: r.get_u64()?,
                p90: r.get_u64()?,
                p99: r.get_u64()?,
                p999: r.get_u64()?,
            }),
            3 => MetricValue::Sketch(SketchSummary {
                count: r.get_u64()?,
                mean: f64::from_bits(r.get_u64()?),
                m2: f64::from_bits(r.get_u64()?),
            }),
            _ => return Err(ArtifactError::Corrupt("metric kind out of range")),
        };
        entries.push((name, value));
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(entries))
}

/// A flight-recorder reply: the buffered events, oldest first.
pub fn encode_flight_ok(events: &[FlightEvent]) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    w.put_u32(events.len() as u32);
    for ev in events {
        w.put_u64(ev.seq);
        w.put_u64(ev.at_us);
        w.put_u8(ev.kind);
        w.put_str(&ev.detail);
        w.put_u64(ev.a);
        w.put_u64(ev.b);
        w.put_u64(ev.x.to_bits());
        w.put_u64(ev.y.to_bits());
    }
    w.into_bytes()
}

/// `Ok(Ok(events))` on success, `Ok(Err(status))` on a refusal.
pub fn decode_flight_reply(bytes: &[u8]) -> Result<Result<Vec<FlightEvent>, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let status = r.get_u8()?;
    if status != STATUS_OK {
        return Ok(Err(status));
    }
    let n = r.get_u32()? as usize;
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        events.push(FlightEvent {
            seq: r.get_u64()?,
            at_us: r.get_u64()?,
            kind: r.get_u8()?,
            detail: r.get_str()?,
            a: r.get_u64()?,
            b: r.get_u64()?,
            x: f64::from_bits(r.get_u64()?),
            y: f64::from_bits(r.get_u64()?),
        });
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(Ok(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Score {
                samples: vec![0.5, -1.25, f32::MIN_POSITIVE],
            },
            Request::Stats,
            Request::Shutdown,
            Request::ScoreV2 {
                id: u64::MAX,
                deadline_ms: 250,
                samples: vec![0.0, -0.0, f32::NAN],
            },
            Request::StatsV2,
            Request::Adapt,
            Request::Ping,
            Request::DrainVotes { peek: true, min: 0 },
            Request::DrainVotes {
                peek: false,
                min: 200,
            },
            Request::StageBundle {
                sealed: vec![0xAB; 37],
            },
            Request::CommitStaged,
            Request::AbortStaged,
            Request::Rollback,
            Request::FleetStats,
            Request::StatsV3,
            Request::Flight { drain: false },
            Request::Flight { drain: true },
            Request::ScoreTraced {
                id: 9,
                deadline_ms: 100,
                trace_id: 0xCAFE,
                samples: vec![0.25, -0.5],
            },
            Request::WalStatus,
            Request::RollbackTo { generation: 7 },
            Request::RollbackTo { generation: 0 },
        ] {
            let back = decode_request(&encode_request(&req)).unwrap();
            // NaN breaks derived PartialEq; compare the sample bits instead.
            match (&req, &back) {
                (
                    Request::ScoreV2 {
                        id: a,
                        deadline_ms: da,
                        samples: sa,
                    },
                    Request::ScoreV2 {
                        id: b,
                        deadline_ms: db,
                        samples: sb,
                    },
                ) => {
                    assert_eq!((a, da), (b, db));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(sa), bits(sb));
                }
                _ => assert_eq!(back, req),
            }
        }
    }

    #[test]
    fn score_reply_roundtrip_is_bit_exact() {
        let scored = ScoredUtt {
            llrs: vec![1.5, -0.0, f32::NAN, 3.25e-9],
            decision: 3,
            generation: 5,
            span: None,
            unknown: false,
        };
        let back = decode_score_reply(&encode_score_ok(&scored))
            .unwrap()
            .unwrap();
        assert_eq!(back.decision, 3);
        // v1 bodies carry no generation; it decodes as 0.
        assert_eq!(back.generation, 0);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.llrs), bits(&scored.llrs));
    }

    #[test]
    fn unknown_reply_roundtrips_via_the_decision_sentinel() {
        // Open-set servers flag an unknown by writing DECISION_UNKNOWN in
        // the decision slot; decoders recover the local argmax from the
        // LLRs so `decision` stays meaningful either way.
        let scored = ScoredUtt {
            llrs: vec![-3.0, -1.5, -7.0],
            decision: 1,
            generation: 9,
            span: None,
            unknown: true,
        };
        let back = decode_score_reply(&encode_score_ok(&scored))
            .unwrap()
            .unwrap();
        assert!(back.unknown);
        assert_eq!(back.decision, 1);

        let (id, r) = decode_score_reply_v2(&encode_score_ok_v2(7, &scored)).unwrap();
        assert_eq!(id, 7);
        let back = r.unwrap();
        assert!(back.unknown);
        assert_eq!(back.decision, 1);
        assert_eq!(back.generation, 9);

        // A closed-set reply with the same LLRs is byte-identical to what
        // pre-open-set servers emitted: the sentinel never appears.
        let closed = ScoredUtt {
            unknown: false,
            ..scored.clone()
        };
        let body = encode_score_ok(&closed);
        assert!(!body.windows(4).any(|w| w == DECISION_UNKNOWN.to_le_bytes()));

        // The sentinel with no LLRs is a protocol error, not a panic.
        let empty = ScoredUtt {
            llrs: Vec::new(),
            ..scored
        };
        assert!(decode_score_reply(&encode_score_ok(&empty)).is_err());
    }

    #[test]
    fn v2_score_reply_echoes_the_request_id_and_generation() {
        let scored = ScoredUtt {
            llrs: vec![0.25, -1.0],
            decision: 0,
            generation: 42,
            span: None,
            unknown: false,
        };
        let (id, r) = decode_score_reply_v2(&encode_score_ok_v2(0xDEAD_BEEF, &scored)).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(r.unwrap(), scored);

        let (id, r) =
            decode_score_reply_v2(&encode_status_v2(77, STATUS_DEADLINE_EXCEEDED)).unwrap();
        assert_eq!(id, 77);
        assert_eq!(r, Err(STATUS_DEADLINE_EXCEEDED));
    }

    #[test]
    fn traced_request_keeps_the_id_at_bytes_1_to_9() {
        // The router rewrites request ids by splicing frame[1..9]; a traced
        // score must keep that invariant or fleet routing breaks.
        let frame = encode_request(&Request::ScoreTraced {
            id: 0x1122_3344_5566_7788,
            deadline_ms: 9,
            trace_id: 42,
            samples: vec![1.0],
        });
        assert_eq!(frame[0], REQ_SCORE_TRACED);
        assert_eq!(
            u64::from_le_bytes(frame[1..9].try_into().unwrap()),
            0x1122_3344_5566_7788
        );
    }

    #[test]
    fn traced_score_reply_carries_the_span() {
        use lre_obs::{STAGE_DECODE, STAGE_QUEUE, STAGE_SCORE};
        let mut span = TraceSpan::new(0xCAFE);
        span.mark(STAGE_QUEUE, 100);
        span.mark(STAGE_DECODE, 120);
        span.mark(STAGE_SCORE, 900);
        span.mark(STAGE_REPLY, 950);
        let scored = ScoredUtt {
            llrs: vec![0.25, -1.0],
            decision: 0,
            generation: 42,
            span: Some(span.clone()),
            unknown: false,
        };
        let frame = encode_score_ok_traced(11, 0xCAFE, &scored);
        let (id, r) = decode_score_reply_traced(&frame).unwrap();
        assert_eq!(id, 11);
        assert_eq!(r.unwrap().span, Some(span));

        // Refusals stay the v2 status shape.
        let (id, r) = decode_score_reply_traced(&encode_status_v2(12, STATUS_OVERLOADED)).unwrap();
        assert_eq!((id, r), (12, Err(STATUS_OVERLOADED)));

        // A span whose offsets go backwards is a protocol error.
        let mut bad_span = TraceSpan::new(1);
        bad_span.mark(STAGE_QUEUE, 100);
        bad_span.mark(STAGE_DECODE, 50);
        let bad = ScoredUtt {
            span: Some(bad_span),
            ..scored.clone()
        };
        assert!(decode_score_reply_traced(&encode_score_ok_traced(1, 1, &bad)).is_err());

        // An out-of-range stage id too.
        let mut alien = TraceSpan::new(1);
        alien.mark(99, 5);
        let bad = ScoredUtt {
            span: Some(alien),
            ..scored
        };
        assert!(decode_score_reply_traced(&encode_score_ok_traced(1, 1, &bad)).is_err());
    }

    #[test]
    fn metrics_reply_roundtrip_and_order_enforcement() {
        let entries = vec![
            (
                "engine.latency_us".to_string(),
                MetricValue::Histogram(HistogramSummary {
                    count: 3,
                    sum: 600,
                    max: 300,
                    p50: 200,
                    p90: 300,
                    p99: 300,
                    p999: 300,
                }),
            ),
            ("engine.traced".to_string(), MetricValue::Counter(17)),
            ("router.shed".to_string(), MetricValue::Gauge(2)),
            (
                "score.llr.top1.lang00".to_string(),
                MetricValue::Sketch(SketchSummary {
                    count: 5,
                    mean: 1.25,
                    m2: 0.5,
                }),
            ),
        ];
        let back = decode_metrics_reply(&encode_metrics_ok(&entries))
            .unwrap()
            .unwrap();
        assert_eq!(back, entries);
        assert_eq!(
            decode_metrics_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        // Out-of-order (or duplicate) names are a protocol error, so every
        // consumer can merge dumps with a single pass.
        let shuffled = vec![entries[2].clone(), entries[0].clone()];
        assert!(decode_metrics_reply(&encode_metrics_ok(&shuffled)).is_err());
        // Truncation is an error, not a short dump.
        let mut cut = encode_metrics_ok(&entries);
        cut.truncate(cut.len() - 3);
        assert!(decode_metrics_reply(&cut).is_err());
    }

    #[test]
    fn flight_reply_roundtrip() {
        use lre_obs::{EV_EJECT, EV_GUARD_REJECT};
        let events = vec![
            FlightEvent {
                seq: 7,
                at_us: 1_000,
                kind: EV_EJECT,
                detail: "127.0.0.1:7701".to_string(),
                a: 3,
                b: 0,
                x: 0.0,
                y: 0.0,
            },
            FlightEvent {
                seq: 8,
                at_us: 2_000,
                kind: EV_GUARD_REJECT,
                detail: String::new(),
                a: 4,
                b: 5,
                x: 0.0125,
                y: -0.003,
            },
        ];
        let back = decode_flight_reply(&encode_flight_ok(&events))
            .unwrap()
            .unwrap();
        assert_eq!(back, events);
        assert_eq!(
            decode_flight_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        let mut cut = encode_flight_ok(&events);
        cut.truncate(cut.len() - 1);
        assert!(decode_flight_reply(&cut).is_err());
    }

    #[test]
    fn stats_reply_roundtrip() {
        let s = StatsSnapshot {
            requests: 100,
            completed: 90,
            rejected: 10,
            max_queue_depth: 12,
            latency_us_sum: 123_456,
            latency_us_max: 9_999,
            uptime_us: u64::MAX,
            expired: 0,
            failed: 0,
            shed_global: 0,
            generation: 0,
            swaps: 0,
            rollbacks: 0,
            fast_math: 0,
            unknown: 0,
        };
        assert_eq!(
            decode_stats_reply(&encode_stats_ok(&s)).unwrap().unwrap(),
            s
        );
        // The extended reply carries the new counters…
        let mut ext = s;
        ext.expired = 4;
        ext.failed = 1;
        ext.shed_global = 3;
        ext.generation = 2;
        ext.swaps = 3;
        ext.rollbacks = 1;
        ext.fast_math = 1;
        ext.unknown = 6;
        assert_eq!(
            decode_stats_reply_v2(&encode_stats_ok_v2(&ext))
                .unwrap()
                .unwrap(),
            ext
        );
        // …and a v1 decoder never sees them (wire compatibility).
        assert_eq!(
            decode_stats_reply(&encode_stats_ok(&ext)).unwrap().unwrap(),
            s
        );
    }

    #[test]
    fn adapt_reply_roundtrip_and_refusal() {
        let report = AdaptReport {
            outcome: ADAPT_PROMOTED,
            generation: 7,
            selected: 120,
            drained: 150,
        };
        assert_eq!(
            decode_adapt_reply(&encode_adapt_ok(&report))
                .unwrap()
                .unwrap(),
            report
        );
        assert_eq!(
            decode_adapt_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        // Unknown outcome tags are typed errors.
        let mut bad = encode_adapt_ok(&report);
        bad[1] = 9;
        assert!(decode_adapt_reply(&bad).is_err());
        // Truncation too.
        let mut cut = encode_adapt_ok(&report);
        cut.truncate(cut.len() - 2);
        assert!(decode_adapt_reply(&cut).is_err());
    }

    #[test]
    fn ping_reply_roundtrip_and_derivation() {
        let s = StatsSnapshot {
            requests: 100,
            completed: 80,
            rejected: 5,
            max_queue_depth: 12,
            latency_us_sum: 1,
            latency_us_max: 1,
            uptime_us: 1,
            expired: 3,
            failed: 2,
            shed_global: 7,
            generation: 4,
            swaps: 3,
            rollbacks: 0,
            fast_math: 0,
            unknown: 0,
        };
        let p = PingReport::from_stats(&s);
        // 100 admitted, 80+5+3+2 resolved → 10 in flight; shed counts
        // queue rejections + expirations + global sheds.
        assert_eq!(
            p,
            PingReport {
                generation: 4,
                inflight: 10,
                shed: 15,
                completed: 80,
            }
        );
        assert_eq!(decode_ping_reply(&encode_ping_ok(&p)).unwrap().unwrap(), p);
        assert_eq!(
            decode_ping_reply(&encode_status(STATUS_SHUTTING_DOWN)).unwrap(),
            Err(STATUS_SHUTTING_DOWN)
        );
        let mut cut = encode_ping_ok(&p);
        cut.truncate(cut.len() - 1);
        assert!(decode_ping_reply(&cut).is_err());
    }

    #[test]
    fn drain_reply_roundtrip() {
        for reply in [
            DrainReply {
                buffered: 42,
                sealed: None,
            },
            DrainReply {
                buffered: 42,
                sealed: Some(vec![1, 2, 3, 4, 5]),
            },
            DrainReply {
                buffered: 0,
                sealed: Some(Vec::new()),
            },
        ] {
            assert_eq!(
                decode_drain_reply(&encode_drain_ok(&reply))
                    .unwrap()
                    .unwrap(),
                reply
            );
        }
        assert_eq!(
            decode_drain_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        // Out-of-range presence flag is a typed error.
        let mut bad = encode_drain_ok(&DrainReply {
            buffered: 1,
            sealed: None,
        });
        *bad.last_mut().unwrap() = 7;
        assert!(decode_drain_reply(&bad).is_err());
    }

    #[test]
    fn rollout_acks_roundtrip() {
        assert_eq!(
            decode_stage_reply(&encode_stage_ok(0xC0FFEE)).unwrap(),
            Ok(0xC0FFEE)
        );
        assert_eq!(
            decode_stage_reply(&encode_status(STATUS_CONFLICT)).unwrap(),
            Err(STATUS_CONFLICT)
        );
        assert_eq!(
            decode_commit_reply(&encode_commit_ok(9, 0xC0FFEE)).unwrap(),
            Ok((9, 0xC0FFEE))
        );
        assert_eq!(
            decode_commit_reply(&encode_status(STATUS_CONFLICT)).unwrap(),
            Err(STATUS_CONFLICT)
        );
        assert_eq!(
            decode_abort_reply(&encode_abort_ok(true)).unwrap(),
            Ok(true)
        );
        assert_eq!(
            decode_abort_reply(&encode_abort_ok(false)).unwrap(),
            Ok(false)
        );
        assert_eq!(
            decode_rollback_reply(&encode_rollback_ok(true, 11)).unwrap(),
            Ok((true, 11))
        );
        // Truncations are typed errors, not panics.
        let mut cut = encode_commit_ok(9, 1);
        cut.truncate(cut.len() - 2);
        assert!(decode_commit_reply(&cut).is_err());
        let mut cut = encode_rollback_ok(false, 2);
        cut.truncate(2);
        assert!(decode_rollback_reply(&cut).is_err());
        // Out-of-range flags too.
        let mut bad = encode_abort_ok(true);
        bad[1] = 3;
        assert!(decode_abort_reply(&bad).is_err());
    }

    #[test]
    fn wal_status_and_rollback_to_reply_roundtrip() {
        let info = WalStatusInfo {
            appended: 1234,
            low_water: 1000,
            buffered: 234,
            segments: 3,
            sealed_segments: 2,
            replayed: 900,
            torn: 1,
            fsyncs: 55,
            lineage_head: 6,
            lineage_entries: 7,
            lineage_retained: 4,
            lineage_bytes: 32_768,
            chain_ok: true,
        };
        assert_eq!(
            decode_wal_status_reply(&encode_wal_status_ok(&info))
                .unwrap()
                .unwrap(),
            info
        );
        assert_eq!(
            decode_wal_status_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        // Truncation and trailing bytes are typed errors.
        let mut cut = encode_wal_status_ok(&info);
        cut.truncate(cut.len() - 1);
        assert!(decode_wal_status_reply(&cut).is_err());
        let mut long = encode_wal_status_ok(&info);
        long.push(0);
        assert!(decode_wal_status_reply(&long).is_err());
        // So is an out-of-range chain_ok flag.
        let mut bad = encode_wal_status_ok(&info);
        *bad.last_mut().unwrap() = 9;
        assert!(decode_wal_status_reply(&bad).is_err());

        assert_eq!(
            decode_rollback_to_reply(&encode_rollback_to_ok(4, 9, 0xC0FFEE)).unwrap(),
            Ok((4, 9, 0xC0FFEE))
        );
        assert_eq!(
            decode_rollback_to_reply(&encode_status(STATUS_CONFLICT)).unwrap(),
            Err(STATUS_CONFLICT)
        );
        let mut cut = encode_rollback_to_ok(4, 9, 1);
        cut.truncate(cut.len() - 2);
        assert!(decode_rollback_to_reply(&cut).is_err());
    }

    #[test]
    fn fleet_stats_roundtrip() {
        let mut aggregate = StatsSnapshot {
            requests: 300,
            completed: 290,
            rejected: 4,
            max_queue_depth: 9,
            latency_us_sum: 5_000,
            latency_us_max: 80,
            uptime_us: 1_000_000,
            expired: 2,
            failed: 1,
            shed_global: 3,
            generation: 2,
            swaps: 2,
            rollbacks: 0,
            fast_math: 0,
            unknown: 0,
        };
        let f = FleetStats {
            aggregate,
            replicas: vec![
                ReplicaStat {
                    addr: "127.0.0.1:7701".into(),
                    healthy: true,
                    generation: 2,
                    inflight: 3,
                    completed: 150,
                    shed: 1,
                },
                ReplicaStat {
                    addr: "127.0.0.1:7702".into(),
                    healthy: false,
                    generation: 1,
                    inflight: 0,
                    completed: 140,
                    shed: 8,
                },
            ],
        };
        assert_eq!(
            decode_fleet_stats_reply(&encode_fleet_stats_ok(&f))
                .unwrap()
                .unwrap(),
            f
        );
        // An empty fleet still roundtrips.
        aggregate.requests = 0;
        let empty = FleetStats {
            aggregate,
            replicas: Vec::new(),
        };
        assert_eq!(
            decode_fleet_stats_reply(&encode_fleet_stats_ok(&empty))
                .unwrap()
                .unwrap(),
            empty
        );
        // Replicas refuse the tag; the refusal passes through typed.
        assert_eq!(
            decode_fleet_stats_reply(&encode_status(STATUS_UNSUPPORTED)).unwrap(),
            Err(STATUS_UNSUPPORTED)
        );
        // Truncating mid-replica-row is a typed error.
        let mut cut = encode_fleet_stats_ok(&f);
        cut.truncate(cut.len() - 5);
        assert!(decode_fleet_stats_reply(&cut).is_err());
    }

    #[test]
    fn malformed_fleet_requests_are_typed_errors() {
        // Drain with a truncated min floor.
        let mut drain = encode_request(&Request::DrainVotes {
            peek: false,
            min: 500,
        });
        drain.truncate(3);
        assert!(decode_request(&drain).is_err());
        // Drain with an out-of-range peek flag.
        let mut bad_flag = encode_request(&Request::DrainVotes {
            peek: false,
            min: 1,
        });
        bad_flag[1] = 9;
        assert!(decode_request(&bad_flag).is_err());
        // Stage whose blob length outruns the payload.
        let mut stage = encode_request(&Request::StageBundle {
            sealed: vec![7; 64],
        });
        stage.truncate(stage.len() - 10);
        assert!(decode_request(&stage).is_err());
        // Ping / fleet-stats with trailing junk.
        for req in [Request::Ping, Request::FleetStats, Request::CommitStaged] {
            let mut padded = encode_request(&req);
            padded.push(0);
            assert!(decode_request(&padded).is_err());
        }
    }

    #[test]
    fn refusal_statuses_pass_through() {
        assert_eq!(
            decode_score_reply(&encode_status(STATUS_OVERLOADED)).unwrap(),
            Err(STATUS_OVERLOADED)
        );
        assert_eq!(
            decode_stats_reply(&encode_status(STATUS_SHUTTING_DOWN)).unwrap(),
            Err(STATUS_SHUTTING_DOWN)
        );
    }

    #[test]
    fn malformed_messages_are_typed_errors_not_panics() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        // Truncated sample slice.
        let mut good = encode_request(&Request::Score {
            samples: vec![1.0; 16],
        });
        good.truncate(good.len() - 3);
        assert!(decode_request(&good).is_err());
        // Trailing junk after a well-formed request.
        let mut padded = encode_request(&Request::Stats);
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        assert!(decode_score_reply(&[]).is_err());
        // v2 with the id truncated away.
        let mut v2 = encode_request(&Request::ScoreV2 {
            id: 1,
            deadline_ms: 0,
            samples: vec![1.0; 4],
        });
        v2.truncate(5);
        assert!(decode_request(&v2).is_err());
        // v2 reply missing its id.
        assert!(decode_score_reply_v2(&[STATUS_OK]).is_err());
        // v2 refusal with trailing junk.
        let mut bad = encode_status_v2(9, STATUS_OVERLOADED);
        bad.push(1);
        assert!(decode_score_reply_v2(&bad).is_err());
    }

    #[test]
    fn framing_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }
}
