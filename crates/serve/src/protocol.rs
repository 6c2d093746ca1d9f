//! The wire protocol: length-prefixed frames of `lre-artifact` payloads,
//! described once by the tag table below.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by that many payload bytes. Payloads are packed with the
//! artifact writer/reader primitives (little-endian integers, IEEE-754 bit
//! patterns for floats), so both sides share the corpus of checked-read
//! code with the on-disk bundles.
//!
//! **Requests** start with a tag byte. `tag_table!` holds one row per
//! tag: its number, its name, its fields in wire order, the body type of
//! its `OK` reply and who answers it. [`Request`], [`encode_request`],
//! [`decode_request`], the `REQ_*` constants and [`TAG_TABLE`] are all
//! generated from those rows; the score-frame offsets the router splices at
//! ([`SCORE_ID`], [`TRACE_ID`], [`SAMPLES_AT_V2`], [`SAMPLES_AT_TRACED`])
//! are computed from [`TAG_TABLE`] at compile time; `fuzz::malformed_corpus`
//! derives its per-tag cases from it and `docs/SERVING.md` is held to it by
//! a test. Adding a tag is one row plus the handler arm in `server.rs`
//! (and `router.rs`, if routers answer it).
//!
//! **Replies** start with a status byte. Every control reply is
//! `STATUS_OK` + a body implementing [`Wire`], or a bare refusal status:
//! [`encode_ok`] / [`decode_reply`] own that rule for all of them. Score
//! replies ([`REQ_SCORE_V2`], [`REQ_SCORE_TRACED`]) echo the request's
//! `u64` id right after the status byte — on refusals too — so a client
//! can keep a window of requests outstanding and match replies as they
//! arrive; the traced reply appends the stage-timestamped span.
//!
//! Tags 1 and 2 (the one-request-in-flight score and nine-counter stats of
//! the first protocol generation) are retired: they decode as unknown tags.

use crate::engine::{ScoredUtt, StatsSnapshot};
use lre_artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
use lre_obs::{FlightEvent, HistogramSummary, MetricValue, SketchSummary, TraceSpan, STAGE_REPLY};
use std::io::{self, Read, Write};
use std::ops::Range;

pub const STATUS_OK: u8 = 0;
pub const STATUS_OVERLOADED: u8 = 1;
pub const STATUS_BAD_REQUEST: u8 = 2;
pub const STATUS_SHUTTING_DOWN: u8 = 3;
/// The request's deadline passed before a worker reached it; the server
/// shed it without scoring.
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
/// never emit it.
pub const DECISION_UNKNOWN: u32 = u32::MAX;

/// Tag numbers that once meant something and must never be reused.
pub const RETIRED_TAGS: &[u8] = &[1, 2];

/// A value with one byte layout: a request field or a reply body.
pub trait Wire: Sized {
    fn put(&self, w: &mut ArtifactWriter);
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError>;
}

macro_rules! wire_primitive {
    ($($t:ty => $put:ident / $get:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut ArtifactWriter) {
                w.$put(*self)
            }
            fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
                r.$get()
            }
        }
    )*};
}
wire_primitive!(u8 => put_u8 / get_u8, u32 => put_u32 / get_u32, u64 => put_u64 / get_u64,
    f64 => put_f64 / get_f64);

/// A flag is strictly 0 or 1: anything else is a corrupted stream, and
/// acting on a guess (draining, rolling back) would destroy evidence.
impl Wire for bool {
    fn put(&self, w: &mut ArtifactWriter) {
        w.put_u8(u8::from(*self))
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ArtifactError::Corrupt("flag out of range")),
        }
    }
}

/// Length-prefixed `f32` slice, decoded in one bulk read after the count
/// has been checked against the bytes actually present.
impl Wire for Vec<f32> {
    fn put(&self, w: &mut ArtifactWriter) {
        w.put_f32_slice(self)
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        r.get_f32_slice()
    }
}

/// Length-prefixed opaque blob (a sealed artifact).
impl Wire for Vec<u8> {
    fn put(&self, w: &mut ArtifactWriter) {
        w.put_blob(self)
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        Ok(r.get_blob()?.to_vec())
    }
}

impl Wire for String {
    fn put(&self, w: &mut ArtifactWriter) {
        w.put_str(self)
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        r.get_str()
    }
}

/// Presence flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ArtifactWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// `u32` count, then the items. The count is attacker-controlled, so it
/// bounds no allocation beyond a small reserve.
fn put_list<T: Wire>(items: &[T], w: &mut ArtifactWriter) {
    w.put_u32(items.len() as u32);
    for item in items {
        item.put(w);
    }
}

fn get_list<T: Wire>(r: &mut ArtifactReader) -> Result<Vec<T>, ArtifactError> {
    let n = r.get_u32()? as usize;
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// Give structs their wire form: the fields, in declaration order.
/// `wire_struct! { pub struct … }` declares the struct as well, so the
/// layout is stated once; `impl Name { fields }` serves a struct declared
/// elsewhere; `list of Item` is a `u32` count followed by the items.
macro_rules! wire_struct {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident : $ty:ty),* $(,)? }
    )*) => {$(
        $(#[$meta])*
        pub struct $name { $($(#[$fmeta])* pub $field: $ty),* }
        wire_struct!(impl $name { $($field),* });
    )*};
    (impl $name:ident { $($field:ident),* }) => {
        impl Wire for $name {
            fn put(&self, w: &mut ArtifactWriter) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
                Ok($name { $($field: Wire::get(r)?),* })
            }
        }
    };
    (list of $item:ty) => {
        impl Wire for Vec<$item> {
            fn put(&self, w: &mut ArtifactWriter) {
                put_list(self, w)
            }
            fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
                get_list(r)
            }
        }
    };
}

/// The five shapes a request field takes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// One byte, strictly 0 or 1.
    Flag,
    U32,
    U64,
    /// `u32` element count, then that many `f32` bit patterns.
    F32Slice,
    /// `u32` byte count, then that many bytes.
    Blob,
}

impl FieldKind {
    /// Bytes the field occupies when that does not depend on its value.
    pub const fn fixed_len(self) -> Option<usize> {
        match self {
            FieldKind::Flag => Some(1),
            FieldKind::U32 => Some(4),
            FieldKind::U64 => Some(8),
            FieldKind::F32Slice | FieldKind::Blob => None,
        }
    }
}

/// The Rust types a request row may use for a field.
pub trait RequestField: Wire {
    const KIND: FieldKind;
}

macro_rules! request_field {
    ($($t:ty => $kind:ident),*) => {$(
        impl RequestField for $t {
            const KIND: FieldKind = FieldKind::$kind;
        }
    )*};
}
request_field!(bool => Flag, u32 => U32, u64 => U64, Vec<f32> => F32Slice, Vec<u8> => Blob);

/// One request field as the table describes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: &'static str,
    pub kind: FieldKind,
}

/// One row of the tag table, for code that walks the protocol instead of
/// speaking it: the fuzz corpus, the docs test, the layout constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagRow {
    pub tag: u8,
    pub name: &'static str,
    /// Request fields after the tag byte, in wire order.
    pub fields: &'static [Field],
    /// The `OK` reply's body type.
    pub reply: &'static str,
    pub answered_by: &'static str,
}

/// `tag CONST Variant "name" { field: type, … } => ReplyBody, "answered by";`
macro_rules! tag_table {
    ($(
        $(#[$doc:meta])*
        $tag:literal $konst:ident $variant:ident $name:literal
        $({ $($field:ident : $ty:ty),* })? => $reply:ty, $who:literal;
    )*) => {
        $($(#[$doc])* pub const $konst: u8 = $tag;)*

        /// A decoded request.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Request {
            $($(#[$doc])* $variant $({ $($field: $ty),* })?,)*
        }

        /// The table itself, one row per live tag, in tag order.
        pub const TAG_TABLE: &[TagRow] = &[$(TagRow {
            tag: $tag,
            name: $name,
            fields: &[$($(Field {
                name: stringify!($field),
                kind: <$ty as RequestField>::KIND,
            }),*)?],
            reply: stringify!($reply),
            answered_by: $who,
        }),*];

        // Every row's reply body has a wire form.
        const _: fn() = || {
            fn is_wire<T: Wire>() {}
            $(is_wire::<$reply>();)*
        };

        pub fn encode_request(req: &Request) -> Vec<u8> {
            let mut w = ArtifactWriter::new();
            match req {
                $(Request::$variant $({ $($field),* })? => {
                    w.put_u8($konst);
                    $($($field.put(&mut w);)*)?
                })*
            }
            w.into_bytes()
        }

        pub fn decode_request(bytes: &[u8]) -> Result<Request, ArtifactError> {
            let mut r = ArtifactReader::new(bytes);
            let req = match r.get_u8()? {
                $($konst => Request::$variant $({ $($field: Wire::get(&mut r)?),* })?,)*
                _ => return Err(ArtifactError::Corrupt("unknown request tag")),
            };
            finish(&r)?;
            Ok(req)
        }
    };
}

tag_table! {
    /// Gracefully stop the server. A router relays it to every replica.
    3 REQ_SHUTDOWN Shutdown "shutdown" => Ack, "server · router (relays to every replica)";
    /// Pipelined score: client-chosen request id, deadline in milliseconds
    /// (`0` = none), raw 8 kHz samples. Up to the server's inflight window
    /// may be outstanding; replies echo the id and may arrive out of order.
    4 REQ_SCORE_V2 ScoreV2 "score-v2" { id: u64, deadline_ms: u32, samples: Vec<f32> }
        => ScoredUtt, "server · router (forwards to a replica)";
    /// Report the engine counters. A router answers the fleet aggregate.
    5 REQ_STATS_V2 StatsV2 "stats-v2" => StatsSnapshot, "server · router (fleet aggregate)";
    /// Run one adaptation cycle now (drain the vote log, retrain, guard,
    /// maybe swap), synchronously on the connection's reader.
    6 REQ_ADAPT Adapt "adapt" => AdaptReport, "adaptd · router started with --bundle/--guard";
    /// Lightweight health probe, answered from the engine counters without
    /// touching the scoring queue — cheap enough for a router to send
    /// every health interval.
    7 REQ_PING Ping "ping" => PingReport, "server · router";
    /// Drain (or peek at) the replica's vote log. The drain is
    /// all-or-nothing: below the `min` floor the log is untouched and only
    /// the buffered count comes back.
    8 REQ_DRAIN_VOTES DrainVotes "drain-votes" { peek: bool, min: u32 }
        => DrainReply, "fleet replica";
    /// Phase one of a two-phase rollout: stage a sealed candidate bundle on
    /// the replica (decode + validate, hold unserved). Replying OK is the
    /// replica's promise that a commit cannot fail on decode.
    9 REQ_STAGE_BUNDLE StageBundle "stage-bundle" { sealed: Vec<u8> }
        => StageAck, "fleet replica";
    /// Phase two: atomically swap the staged bundle into serving. Refused
    /// `STATUS_CONFLICT` when nothing is staged.
    10 REQ_COMMIT_STAGED CommitStaged "commit-staged" => CommitAck, "fleet replica";
    /// Discard a staged bundle without serving it (rollout abort path).
    /// Idempotent.
    11 REQ_ABORT_STAGED AbortStaged "abort-staged" => AbortAck, "fleet replica";
    /// Reinstall the model displaced by the last commit (one-deep,
    /// bit-identical, under a fresh generation).
    12 REQ_ROLLBACK Rollback "rollback" => RollbackAck, "fleet replica · router (fans out)";
    /// Aggregate fleet counters plus a per-replica breakdown.
    13 REQ_FLEET_STATS FleetStats "fleet-stats" => FleetStats, "router";
    /// Dump the telemetry registry: every counter, gauge, histogram
    /// summary and sketch, name-sorted.
    14 REQ_STATS_V3 StatsV3 "stats-v3" => MetricsDump, "server · router";
    /// Peek at (flag 0) or drain (flag 1) the flight recorder's event ring.
    15 REQ_FLIGHT Flight "flight" { drain: bool } => Vec<FlightEvent>, "server · router";
    /// [`Request::ScoreV2`] plus a trace id after the deadline (`0` = the
    /// serving tier mints one). The OK reply appends the stage-timestamped
    /// span to the score body. The request id stays where `ScoreV2` has
    /// it, so a router splices both the same way.
    16 REQ_SCORE_TRACED ScoreTraced "score-traced"
        { id: u64, deadline_ms: u32, trace_id: u64, samples: Vec<f32> }
        => ScoredUtt, "server · router (mints the trace id, forwards)";
    /// Report the durability tier's state: write-ahead-log watermarks,
    /// recovery counters and the generation-lineage chain summary.
    17 REQ_WAL_STATUS WalStatus "wal-status"
        => WalStatusInfo, "server started with --wal-dir · router (proxies to the first such replica)";
    /// Deep rollback: restore a specific previously served generation from
    /// the lineage store, bit-identically. Refused `STATUS_CONFLICT` when
    /// the generation is unknown or its bytes were garbage-collected.
    18 REQ_ROLLBACK_TO RollbackTo "rollback-to" { generation: u64 }
        => RollbackToAck, "adaptd started with --wal-dir";
}

const fn same_str(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

/// Where `field` of request `tag` sits in the payload (for a slice or blob:
/// where its length prefix sits). Evaluated at compile time; a field that
/// follows a variable-length one has no fixed place and fails the build.
const fn field_span(tag: u8, field: &str) -> Range<usize> {
    let mut t = 0;
    while t < TAG_TABLE.len() {
        let fields = TAG_TABLE[t].fields;
        let (mut f, mut at) = (0, 1);
        while TAG_TABLE[t].tag == tag && f < fields.len() {
            let len = fields[f].kind.fixed_len();
            if same_str(fields[f].name, field) {
                return at..at + if let Some(n) = len { n } else { 4 };
            }
            at += len.expect("no fixed offset after a variable-length field");
            f += 1;
        }
        t += 1;
    }
    panic!("no such tag or field in the tag table")
}

/// The request id of both score tags. Score replies carry it in the same
/// place (status byte instead of tag byte), so routers splice ids here in
/// both directions without decoding anything behind it.
pub const SCORE_ID: Range<usize> = field_span(REQ_SCORE_V2, "id");
/// The trace id of a [`REQ_SCORE_TRACED`] request.
pub const TRACE_ID: Range<usize> = field_span(REQ_SCORE_TRACED, "trace_id");
/// Where the sample slice (its length prefix first) starts.
pub const SAMPLES_AT_V2: usize = field_span(REQ_SCORE_V2, "samples").start;
pub const SAMPLES_AT_TRACED: usize = field_span(REQ_SCORE_TRACED, "samples").start;
const _: () = {
    let traced = field_span(REQ_SCORE_TRACED, "id");
    assert!(traced.start == SCORE_ID.start && traced.end == SCORE_ID.end);
};

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

/// Every message ends where its last field ends.
fn finish(r: &ArtifactReader) -> Result<(), ArtifactError> {
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(())
}

/// A bare refusal of a control request.
pub fn encode_status(status: u8) -> Vec<u8> {
    vec![status]
}

/// A successful control reply: `STATUS_OK` + the body.
pub fn encode_ok<T: Wire>(body: &T) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u8(STATUS_OK);
    body.put(&mut w);
    w.into_bytes()
}

/// Decode a control reply: `Ok(Ok(body))` on success, `Ok(Err(status))` on
/// a refusal, `Err` when the bytes are neither.
pub fn decode_reply<T: Wire>(bytes: &[u8]) -> Result<Result<T, u8>, ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let reply = match r.get_u8()? {
        STATUS_OK => Ok(T::get(&mut r)?),
        status => Err(status),
    };
    finish(&r)?;
    Ok(reply)
}

/// The shutdown acknowledgement: `STATUS_OK` and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack;

impl Wire for Ack {
    fn put(&self, _: &mut ArtifactWriter) {}
    fn get(_: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        Ok(Ack)
    }
}

/// Score body: `f32` slice of per-language LLRs, `u32` decision index (or
/// [`DECISION_UNKNOWN`]), `u64` generation of the model that scored it.
/// The span is not part of the body; see [`encode_score_ok_traced`].
impl Wire for ScoredUtt {
    fn put(&self, w: &mut ArtifactWriter) {
        self.llrs.put(w);
        w.put_u32(if self.unknown {
            DECISION_UNKNOWN
        } else {
            self.decision as u32
        });
        self.generation.put(w);
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let llrs = Vec::<f32>::get(r)?;
        let decision_wire = r.get_u32()?;
        let generation = r.get_u64()?;
        let unknown = decision_wire == DECISION_UNKNOWN;
        let decision = if unknown {
            // The sentinel claims no language; recover the best in-set guess
            // from the LLRs themselves (same arg-max the server computed).
            if llrs.is_empty() {
                return Err(ArtifactError::Corrupt("unknown reply with no LLRs"));
            }
            crate::engine::decision(&llrs)
        } else if (decision_wire as usize) < llrs.len().max(1) {
            decision_wire as usize
        } else {
            return Err(ArtifactError::Corrupt("decision index out of range"));
        };
        Ok(ScoredUtt {
            llrs,
            decision,
            generation,
            span: None,
            unknown,
        })
    }
}

/// `u64` trace id, `u32` stage count, then per stage a `u8` stage id and a
/// `u64` offset (µs from engine admission). An unknown stage id or stages
/// out of order are protocol errors.
impl Wire for TraceSpan {
    fn put(&self, w: &mut ArtifactWriter) {
        self.trace_id.put(w);
        w.put_u32(self.stages.len() as u32);
        for &(stage, offset_us) in &self.stages {
            w.put_u8(stage);
            w.put_u64(offset_us);
        }
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let mut span = TraceSpan::new(r.get_u64()?);
        for _ in 0..r.get_u32()? {
            let stage = r.get_u8()?;
            if stage > STAGE_REPLY {
                return Err(ArtifactError::Corrupt("span stage id out of range"));
            }
            span.mark(stage, r.get_u64()?);
        }
        if !span.is_well_formed() {
            return Err(ArtifactError::Corrupt("span stages out of order"));
        }
        Ok(span)
    }
}

fn score_reply_head(status: u8, id: u64) -> ArtifactWriter {
    let mut w = ArtifactWriter::new();
    w.put_u8(status);
    w.put_u64(id);
    w
}

/// A score refusal (either score tag): status byte + echoed request id.
pub fn encode_status_v2(id: u64, status: u8) -> Vec<u8> {
    score_reply_head(status, id).into_bytes()
}

/// A [`REQ_SCORE_V2`] success: status + echoed id + score body.
pub fn encode_score_ok_v2(id: u64, scored: &ScoredUtt) -> Vec<u8> {
    let mut w = score_reply_head(STATUS_OK, id);
    scored.put(&mut w);
    w.into_bytes()
}

/// A [`REQ_SCORE_TRACED`] success: the [`REQ_SCORE_V2`] reply plus
/// `scored.span`.
pub fn encode_score_ok_traced(id: u64, scored: &ScoredUtt) -> Vec<u8> {
    let mut w = score_reply_head(STATUS_OK, id);
    scored.put(&mut w);
    match &scored.span {
        Some(span) => span.put(&mut w),
        None => TraceSpan::default().put(&mut w),
    }
    w.into_bytes()
}

fn decode_score(bytes: &[u8], traced: bool) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let (status, id) = (r.get_u8()?, r.get_u64()?);
    let reply = if status == STATUS_OK {
        let mut scored = ScoredUtt::get(&mut r)?;
        if traced {
            scored.span = Some(TraceSpan::get(&mut r)?);
        }
        Ok(scored)
    } else {
        Err(status)
    };
    finish(&r)?;
    Ok((id, reply))
}

/// Decode a [`REQ_SCORE_V2`] reply: `(request id, Ok(scored) | Err(status))`.
pub fn decode_score_reply_v2(bytes: &[u8]) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    decode_score(bytes, false)
}

/// Decode a [`REQ_SCORE_TRACED`] reply; a scored one carries its span.
pub fn decode_score_reply_traced(
    bytes: &[u8],
) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    decode_score(bytes, true)
}

// The stats-v2 body: every counter as a `u64`, in declaration order.
wire_struct!(impl StatsSnapshot {
    requests,
    completed,
    rejected,
    max_queue_depth,
    latency_us_sum,
    latency_us_max,
    uptime_us,
    expired,
    failed,
    shed_global,
    generation,
    swaps,
    rollbacks,
    unknown
});

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

impl Wire for AdaptReport {
    fn put(&self, w: &mut ArtifactWriter) {
        self.outcome.put(w);
        self.generation.put(w);
        self.selected.put(w);
        self.drained.put(w);
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let outcome = r.get_u8()?;
        if outcome > ADAPT_FAILED {
            return Err(ArtifactError::Corrupt("unknown adaptation outcome"));
        }
        Ok(AdaptReport {
            outcome,
            generation: r.get_u64()?,
            selected: r.get_u32()?,
            drained: r.get_u32()?,
        })
    }
}

wire_struct! {
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

    /// A drain (or peek) reply: how many records were buffered, and — when
    /// the drain went through — the sealed `VLOG` snapshot bytes of
    /// everything taken.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DrainReply {
        /// Records buffered at request time (post-drain the log holds zero).
        pub buffered: u32,
        /// `Some(sealed VLOG bytes)` when the drain happened; `None` on a
        /// peek, or when the buffer was below the requested floor.
        pub sealed: Option<Vec<u8>>,
    }

    /// A stage acknowledgement: the replica decoded and validated the
    /// candidate and holds it unserved. The checksum lets the coordinator
    /// confirm every replica staged the *same* bytes before committing any.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct StageAck {
        pub checksum: u32,
    }

    /// A commit acknowledgement: the staged bundle is serving under
    /// `generation`; `checksum` echoes the staged bundle's checksum.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CommitAck {
        pub generation: u64,
        pub checksum: u32,
    }

    /// An abort acknowledgement: `had_staged` reports whether anything was
    /// actually discarded (the request is idempotent either way).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct AbortAck {
        pub had_staged: bool,
    }

    /// A rollback acknowledgement: `rolled` reports whether a displaced
    /// model existed to restore; `generation` is the serving generation
    /// afterwards.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RollbackAck {
        pub rolled: bool,
        pub generation: u64,
    }

    /// A deep-rollback acknowledgement: lineage generation `restored` is
    /// serving again, under the (monotonic) serving generation `serving`;
    /// `checksum` is the restored bundle's, which the requester checks
    /// against the chain entry it asked for.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RollbackToAck {
        pub restored: u64,
        pub serving: u64,
        pub checksum: u32,
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
        /// Log files holding records: 1, or 0 while the log is empty.
        pub segments: u64,
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

    /// The router's fleet-stats reply: the aggregate counter set (summed
    /// over replicas, `generation` = the minimum replica generation so a
    /// mixed fleet is visible) plus the per-replica breakdown.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FleetStats {
        pub aggregate: StatsSnapshot,
        pub replicas: Vec<ReplicaStat>,
    }
}
wire_struct!(list of ReplicaStat);

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

wire_struct!(impl HistogramSummary {
    count,
    sum,
    max,
    p50,
    p90,
    p99,
    p999
});
wire_struct!(impl SketchSummary { count, mean, m2 });

/// One stats-v3 entry: `u8` kind (0 counter / 1 gauge / 2 histogram /
/// 3 sketch), the name, then the kind's payload — a `u64` for counters and
/// gauges; the seven histogram-summary `u64`s; or a sketch's `u64` count
/// plus mean and M2 as `f64` bit patterns.
impl Wire for (String, MetricValue) {
    fn put(&self, w: &mut ArtifactWriter) {
        let (name, value) = self;
        value.kind().put(w);
        name.put(w);
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v.put(w),
            MetricValue::Histogram(h) => h.put(w),
            MetricValue::Sketch(s) => s.put(w),
        }
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let (kind, name) = (r.get_u8()?, r.get_str()?);
        let value = match kind {
            0 => MetricValue::Counter(r.get_u64()?),
            1 => MetricValue::Gauge(r.get_u64()?),
            2 => MetricValue::Histogram(Wire::get(r)?),
            3 => MetricValue::Sketch(Wire::get(r)?),
            _ => return Err(ArtifactError::Corrupt("metric kind out of range")),
        };
        Ok((name, value))
    }
}

/// The stats-v3 reply body: every registered series. Names are strictly
/// increasing — the decoder enforces it, so every consumer can merge dumps
/// in a single pass.
pub type MetricsDump = Vec<(String, MetricValue)>;

impl Wire for MetricsDump {
    fn put(&self, w: &mut ArtifactWriter) {
        put_list(self, w)
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let entries: MetricsDump = get_list(r)?;
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(ArtifactError::Corrupt("metric names out of order"));
        }
        Ok(entries)
    }
}

// The flight-recorder reply body: the buffered events, oldest first.
wire_struct!(impl FlightEvent {
    seq,
    at_us,
    kind,
    detail,
    a,
    b,
    x,
    y
});
wire_struct!(list of FlightEvent);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::example_request;
    use proptest::prelude::*;
    use std::fmt::Debug;

    const REFUSALS: [u8; 7] = [
        STATUS_OVERLOADED,
        STATUS_BAD_REQUEST,
        STATUS_SHUTTING_DOWN,
        STATUS_DEADLINE_EXCEEDED,
        STATUS_INTERNAL,
        STATUS_UNSUPPORTED,
        STATUS_CONFLICT,
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn scored(llrs: Vec<f32>, decision: usize, generation: u64) -> ScoredUtt {
        ScoredUtt {
            llrs,
            decision,
            generation,
            span: None,
            unknown: false,
        }
    }

    // ------------------------------------------------ requests, per row

    #[test]
    fn every_row_round_trips_and_refuses_prefixes_and_trailing_bytes() {
        for row in TAG_TABLE {
            let (payload, _) = example_request(row);
            let req = decode_request(&payload).expect(row.name);
            assert_eq!(encode_request(&req), payload, "{}", row.name);
            // Every proper prefix is a typed error: no panic, and no
            // allocation sized by a length the bytes cannot back.
            for cut in 0..payload.len() {
                assert!(
                    decode_request(&payload[..cut]).is_err(),
                    "{} decodes from its first {cut} bytes",
                    row.name
                );
            }
            let padded = [&payload[..], &[0]].concat();
            assert!(
                matches!(decode_request(&padded), Err(ArtifactError::TrailingBytes)),
                "{} accepts a trailing byte",
                row.name
            );
        }
    }

    #[test]
    fn table_is_in_tag_order_and_skips_the_retired_tags() {
        assert!(TAG_TABLE.windows(2).all(|w| w[0].tag < w[1].tag));
        for &tag in RETIRED_TAGS.iter().chain(&[0, 99, 255]) {
            assert!(TAG_TABLE.iter().all(|row| row.tag != tag));
            assert!(
                matches!(
                    decode_request(&[tag]),
                    Err(ArtifactError::Corrupt("unknown request tag"))
                ),
                "tag {tag} must decode as unknown"
            );
        }
        // What a first-generation client sent as a score is refused whole.
        let (v2, starts) = example_request(&TAG_TABLE[1]);
        let v1_score = [&[1u8][..], &v2[starts[2]..]].concat();
        assert!(decode_request(&v1_score).is_err());
    }

    #[test]
    fn sample_bits_survive_the_request_codec() {
        let samples = vec![0.0, -0.0, f32::NAN, f32::MIN_POSITIVE, -1.25];
        for req in [
            Request::ScoreV2 {
                id: u64::MAX,
                deadline_ms: 250,
                samples: samples.clone(),
            },
            Request::ScoreTraced {
                id: 9,
                deadline_ms: 0,
                trace_id: 0xCAFE,
                samples: samples.clone(),
            },
        ] {
            match decode_request(&encode_request(&req)).unwrap() {
                Request::ScoreV2 { samples: back, .. }
                | Request::ScoreTraced { samples: back, .. } => {
                    assert_eq!(bits(&back), bits(&samples))
                }
                other => panic!("decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn layout_constants_are_where_the_encoder_puts_the_fields() {
        let v2 = encode_request(&Request::ScoreV2 {
            id: 0x1122_3344_5566_7788,
            deadline_ms: 9,
            samples: vec![1.0],
        });
        let traced = encode_request(&Request::ScoreTraced {
            id: 0x1122_3344_5566_7788,
            deadline_ms: 9,
            trace_id: 0xAABB_CCDD_EEFF_0011,
            samples: vec![1.0],
        });
        for frame in [&v2, &traced] {
            assert_eq!(frame[SCORE_ID], 0x1122_3344_5566_7788u64.to_le_bytes());
        }
        assert_eq!(traced[TRACE_ID], 0xAABB_CCDD_EEFF_0011u64.to_le_bytes());
        assert_eq!(v2[SAMPLES_AT_V2..][..4], 1u32.to_le_bytes());
        assert_eq!(traced[SAMPLES_AT_TRACED..][..4], 1u32.to_le_bytes());
        // Replies echo the id in the same place, refusals included.
        let ok = encode_score_ok_v2(77, &scored(vec![0.5], 0, 1));
        let refused = encode_status_v2(77, STATUS_OVERLOADED);
        for frame in [&ok, &refused] {
            assert_eq!(frame[SCORE_ID], 77u64.to_le_bytes());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // Mutate valid frames of every row: whatever comes out decodes to a
        // typed error or to a request whose encoding is exactly those bytes
        // (one byte string per request: nothing is guessed or normalised).
        #[test]
        fn mutated_frames_decode_canonically_or_not_at_all(
            row in 0..TAG_TABLE.len(),
            donor in 0..TAG_TABLE.len(),
            mutation in 0u32..3,
            at in any::<u32>(),
            value in any::<u32>(),
        ) {
            let (mut frame, _) = example_request(&TAG_TABLE[row]);
            let at = at as usize % frame.len();
            match mutation {
                // bit flip
                0 => frame[at] ^= 1 << (value % 8),
                // splice: the tail of another row's frame from `at` on
                1 => {
                    let (other, _) = example_request(&TAG_TABLE[donor]);
                    frame.truncate(at);
                    frame.extend_from_slice(&other[at.min(other.len())..]);
                }
                // length inflate: a large little-endian u32 anywhere
                _ => {
                    let inflated = (value | 0x8000_0000).to_le_bytes();
                    let end = (at + 4).min(frame.len());
                    frame[at..end].copy_from_slice(&inflated[..end - at]);
                }
            }
            if let Ok(req) = decode_request(&frame) {
                prop_assert_eq!(encode_request(&req), frame);
            }
        }
    }

    // ------------------------------------------------- replies, per row

    /// Round trip, prefixes, trailing byte and refusals for one body type.
    fn check_reply<T: Wire + PartialEq + Debug>(examples: Vec<T>) {
        for status in REFUSALS {
            assert_eq!(
                decode_reply::<T>(&encode_status(status)).unwrap(),
                Err(status)
            );
            assert!(decode_reply::<T>(&[status, 0]).is_err());
        }
        assert!(decode_reply::<T>(&[]).is_err());
        for body in examples {
            let frame = encode_ok(&body);
            for cut in 0..frame.len() {
                assert!(
                    decode_reply::<T>(&frame[..cut]).is_err(),
                    "{body:?} decodes from its first {cut} bytes"
                );
            }
            assert!(matches!(
                decode_reply::<T>(&[&frame[..], &[0]].concat()),
                Err(ArtifactError::TrailingBytes)
            ));
            assert_eq!(decode_reply::<T>(&frame).unwrap(), Ok(body));
        }
    }

    fn stats_example() -> StatsSnapshot {
        StatsSnapshot {
            requests: 100,
            completed: 80,
            rejected: 5,
            max_queue_depth: 12,
            latency_us_sum: 123_456,
            latency_us_max: 9_999,
            uptime_us: u64::MAX,
            expired: 3,
            failed: 2,
            shed_global: 7,
            generation: 4,
            swaps: 3,
            rollbacks: 1,
            unknown: 6,
        }
    }

    fn metrics_example() -> MetricsDump {
        vec![
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
        ]
    }

    #[test]
    fn every_reply_body_round_trips_and_refuses_prefixes_and_trailing_bytes() {
        use lre_obs::{EV_EJECT, EV_GUARD_REJECT};
        macro_rules! checks {
            ($($t:ty => $examples:expr;)*) => {
                [$((stringify!($t), (|| check_reply::<$t>($examples)) as fn())),*]
            };
        }
        fn replica(addr: &str, healthy: bool) -> ReplicaStat {
            ReplicaStat {
                addr: addr.into(),
                healthy,
                generation: 2,
                inflight: 3,
                completed: 150,
                shed: 1,
            }
        }
        let checks = checks! {
            Ack => vec![Ack];
            ScoredUtt => vec![scored(vec![0.25, -1.0], 1, 42), scored(Vec::new(), 0, 0)];
            StatsSnapshot => vec![stats_example(), StatsSnapshot::default()];
            AdaptReport => vec![AdaptReport {
                outcome: ADAPT_PROMOTED,
                generation: 7,
                selected: 120,
                drained: 150,
            }];
            PingReport => vec![PingReport::from_stats(&stats_example())];
            DrainReply => vec![
                DrainReply { buffered: 42, sealed: None },
                DrainReply { buffered: 42, sealed: Some(vec![1, 2, 3, 4, 5]) },
                DrainReply { buffered: 0, sealed: Some(Vec::new()) },
            ];
            StageAck => vec![StageAck { checksum: 0xC0FFEE }];
            CommitAck => vec![CommitAck { generation: 9, checksum: 0xC0FFEE }];
            AbortAck => vec![AbortAck { had_staged: true }, AbortAck { had_staged: false }];
            RollbackAck => vec![RollbackAck { rolled: true, generation: 11 }];
            FleetStats => vec![
                FleetStats {
                    aggregate: stats_example(),
                    replicas: vec![replica("127.0.0.1:7701", true), replica("127.0.0.1:7702", false)],
                },
                FleetStats { aggregate: StatsSnapshot::default(), replicas: Vec::new() },
            ];
            MetricsDump => vec![metrics_example(), Vec::new()];
            Vec<FlightEvent> => vec![vec![
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
            ]];
            WalStatusInfo => vec![WalStatusInfo {
                appended: 1234,
                low_water: 1000,
                buffered: 234,
                segments: 1,
                replayed: 900,
                torn: 1,
                fsyncs: 55,
                lineage_head: 6,
                lineage_entries: 7,
                lineage_retained: 4,
                lineage_bytes: 32_768,
                chain_ok: true,
            }];
            RollbackToAck => vec![RollbackToAck { restored: 4, serving: 9, checksum: 0xC0FFEE }];
        };
        for row in TAG_TABLE {
            let (_, check) = checks
                .iter()
                .find(|(name, _)| *name == row.reply)
                .unwrap_or_else(|| panic!("no reply check for {}'s {}", row.name, row.reply));
            check();
        }
    }

    #[test]
    fn rollback_to_ack_puts_the_restored_generation_first() {
        // The wire order every producer and consumer has always used:
        // restored lineage generation, then serving generation, checksum.
        let frame = encode_ok(&RollbackToAck {
            restored: 4,
            serving: 9,
            checksum: 1,
        });
        assert_eq!(frame[1..9], 4u64.to_le_bytes());
        assert_eq!(frame[9..17], 9u64.to_le_bytes());
    }

    #[test]
    fn out_of_range_flags_kinds_and_outcomes_in_replies_are_typed_errors() {
        let mut drain = encode_ok(&DrainReply {
            buffered: 1,
            sealed: None,
        });
        *drain.last_mut().unwrap() = 7;
        assert!(decode_reply::<DrainReply>(&drain).is_err());
        let mut abort = encode_ok(&AbortAck { had_staged: true });
        abort[1] = 3;
        assert!(decode_reply::<AbortAck>(&abort).is_err());
        let mut adapt = encode_ok(&AdaptReport {
            outcome: ADAPT_FAILED,
            generation: 0,
            selected: 0,
            drained: 0,
        });
        adapt[1] = ADAPT_FAILED + 1;
        assert!(decode_reply::<AdaptReport>(&adapt).is_err());
        let mut metrics = encode_ok(&vec![("a".to_string(), MetricValue::Counter(1))]);
        metrics[5] = 4; // the entry's kind byte, after status and count
        assert!(decode_reply::<MetricsDump>(&metrics).is_err());
    }

    #[test]
    fn metric_names_must_be_strictly_increasing() {
        let entries = metrics_example();
        let shuffled = vec![entries[2].clone(), entries[0].clone()];
        assert!(decode_reply::<MetricsDump>(&encode_ok(&shuffled)).is_err());
        let repeated = vec![entries[1].clone(), entries[1].clone()];
        assert!(decode_reply::<MetricsDump>(&encode_ok(&repeated)).is_err());
    }

    /// The stats body is fourteen `u64`s. The previous format's fifteen (a
    /// mode flag sat before `unknown`) must fail as trailing bytes, not
    /// decode with the flag read as the unknown count.
    #[test]
    fn stats_body_is_fourteen_words_and_fifteen_are_refused() {
        let frame = encode_ok(&stats_example());
        assert_eq!(frame.len(), 1 + 14 * 8);
        let mut previous = frame[..1 + 13 * 8].to_vec();
        previous.extend(1u64.to_le_bytes());
        previous.extend(6u64.to_le_bytes());
        assert!(matches!(
            decode_reply::<StatsSnapshot>(&previous),
            Err(ArtifactError::TrailingBytes)
        ));
    }

    #[test]
    fn ping_report_is_derived_from_the_counters() {
        // 100 admitted, 80+5+3+2 resolved → 10 in flight; shed counts
        // queue rejections + expirations + global sheds.
        assert_eq!(
            PingReport::from_stats(&stats_example()),
            PingReport {
                generation: 4,
                inflight: 10,
                shed: 15,
                completed: 80,
            }
        );
    }

    // ----------------------------------------------------- score replies

    #[test]
    fn score_replies_echo_the_id_and_are_bit_exact() {
        let body = scored(vec![1.5, -0.0, f32::NAN, 3.25e-9], 3, 42);
        let (id, back) = decode_score_reply_v2(&encode_score_ok_v2(0xDEAD_BEEF, &body)).unwrap();
        let back = back.unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!((back.decision, back.generation), (3, 42));
        assert_eq!(bits(&back.llrs), bits(&body.llrs));

        for status in REFUSALS {
            for decode in [decode_score_reply_v2, decode_score_reply_traced] {
                let frame = encode_status_v2(77, status);
                assert_eq!(decode(&frame).unwrap(), (77, Err(status)));
                assert!(decode(&[&frame[..], &[1]].concat()).is_err());
                assert!(decode(&frame[..frame.len() - 1]).is_err());
            }
        }
        let frame = encode_score_ok_v2(1, &body);
        for cut in 0..frame.len() {
            assert!(decode_score_reply_v2(&frame[..cut]).is_err());
        }
        assert!(decode_score_reply_v2(&[&frame[..], &[0]].concat()).is_err());
    }

    #[test]
    fn unknown_reply_roundtrips_via_the_decision_sentinel() {
        // Open-set servers flag an unknown by writing DECISION_UNKNOWN in
        // the decision slot; decoders recover the local argmax from the
        // LLRs so `decision` stays meaningful either way.
        let unknown = ScoredUtt {
            unknown: true,
            ..scored(vec![-3.0, -1.5, -7.0], 1, 9)
        };
        let (_, back) = decode_score_reply_v2(&encode_score_ok_v2(7, &unknown)).unwrap();
        assert_eq!(back.unwrap(), unknown);

        // A closed-set reply never carries the sentinel.
        let closed = encode_score_ok_v2(7, &scored(vec![-3.0, -1.5, -7.0], 1, 9));
        assert!(!closed
            .windows(4)
            .any(|w| w == DECISION_UNKNOWN.to_le_bytes()));

        // The sentinel with no LLRs is a protocol error, not a panic; so
        // is a decision index past the LLRs.
        let empty = ScoredUtt {
            llrs: Vec::new(),
            ..unknown
        };
        assert!(decode_score_reply_v2(&encode_score_ok_v2(7, &empty)).is_err());
        assert!(decode_score_reply_v2(&encode_score_ok_v2(7, &scored(vec![0.5], 1, 0))).is_err());
    }

    #[test]
    fn traced_score_reply_carries_the_span() {
        use lre_obs::{STAGE_DECODE, STAGE_QUEUE, STAGE_SCORE};
        let spanned = |marks: &[(u8, u64)]| {
            let mut span = TraceSpan::new(0xCAFE);
            for &(stage, at) in marks {
                span.mark(stage, at);
            }
            ScoredUtt {
                span: Some(span),
                ..scored(vec![0.25, -1.0], 0, 42)
            }
        };
        let good = spanned(&[
            (STAGE_QUEUE, 100),
            (STAGE_DECODE, 120),
            (STAGE_SCORE, 900),
            (STAGE_REPLY, 950),
        ]);
        let frame = encode_score_ok_traced(11, &good);
        assert_eq!(decode_score_reply_traced(&frame).unwrap(), (11, Ok(good)));
        for cut in 0..frame.len() {
            assert!(decode_score_reply_traced(&frame[..cut]).is_err());
        }
        // The two score replies are different shapes: neither decoder
        // takes the other's frame.
        assert!(decode_score_reply_v2(&frame).is_err());
        assert!(decode_score_reply_traced(&encode_score_ok_v2(11, &spanned(&[]))).is_err());

        // Offsets going backwards and unknown stage ids are protocol errors.
        let backwards = spanned(&[(STAGE_QUEUE, 100), (STAGE_DECODE, 50)]);
        assert!(decode_score_reply_traced(&encode_score_ok_traced(1, &backwards)).is_err());
        let alien = spanned(&[(99, 5)]);
        assert!(decode_score_reply_traced(&encode_score_ok_traced(1, &alien)).is_err());
    }

    // ----------------------------------------------------------- framing

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

    // -------------------------------------------------------------- docs

    /// The request table of `docs/SERVING.md`, as that file should have it.
    fn documented_rows() -> Vec<String> {
        let kind = |k: FieldKind| match k {
            FieldKind::Flag => "flag",
            FieldKind::U32 => "u32",
            FieldKind::U64 => "u64",
            FieldKind::F32Slice => "f32 slice",
            FieldKind::Blob => "blob",
        };
        let mut rows: Vec<(u8, String)> = RETIRED_TAGS
            .iter()
            .map(|&tag| (tag, format!("| `{tag}` | *retired* | — | — | nobody: refused `bad request` like any unknown tag |")))
            .collect();
        for row in TAG_TABLE {
            let body: Vec<String> = row
                .fields
                .iter()
                .map(|f| format!("`{}` {}", f.name, kind(f.kind)))
                .collect();
            let body = if body.is_empty() {
                "empty".to_string()
            } else {
                body.join(" · ")
            };
            rows.push((
                row.tag,
                format!(
                    "| `{}` | {} | {body} | `{}` | {} |",
                    row.tag, row.name, row.reply, row.answered_by
                ),
            ));
        }
        rows.sort();
        rows.into_iter().map(|(_, line)| line).collect()
    }

    #[test]
    fn serving_md_request_table_matches_the_tag_table() {
        let doc = include_str!("../../../docs/SERVING.md");
        let header = "| tag | request | body | `OK` reply body | answered by |";
        let table: Vec<&str> = doc
            .lines()
            .skip_while(|line| *line != header)
            .skip(2) // the header and its |---| rule
            .take_while(|line| line.starts_with('|'))
            .collect();
        let want = documented_rows();
        assert!(
            table == want,
            "docs/SERVING.md's request table is not what the tag table says.\n\
             It should read:\n{header}\n|---|---|---|---|---|\n{}\n\nbut reads:\n{}",
            want.join("\n"),
            table.join("\n")
        );
    }
}
