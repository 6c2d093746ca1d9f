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
//! generated from those rows; the one score-frame offset the router splices
//! at, [`SCORE_ID`], is computed from [`TAG_TABLE`] at compile time;
//! `fuzz::malformed_corpus`
//! derives its per-tag cases from it and `docs/SERVING.md` is held to it by
//! a test. Adding a tag is one row plus the handler arm in `server.rs`
//! (and `router.rs`, if routers answer it).
//!
//! **Replies** start with a status byte. Every control reply is
//! `STATUS_OK` + a body implementing [`Wire`], or a bare refusal status:
//! [`encode_ok`] / [`decode_reply`] own that rule for all of them. A score
//! reply ([`REQ_SCORE_V2`]) echoes the request's `u64` id right after the
//! status byte — on refusals too — so a client can keep a window of
//! requests outstanding and match replies as they arrive; a scored one
//! carries the stage-timestamped span after the score body.
//!
//! Retired tags decode as unknown tags: 1 and 2 (the one-request-in-flight
//! score and nine-counter stats of the first protocol generation), 5, 7,
//! 13 and 17 (stats-v2, ping, fleet-stats and wal-status, whose bodies are
//! now client-side views over the stats-v3 dump in [`crate::obs`]), and 16
//! (score-traced, whose span every score reply now carries).

use crate::engine::ScoredUtt;
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

/// The largest sealed `VLOG` one [`DrainReply`] frame can carry: the
/// frame cap less the status byte, `buffered`, the presence flag and the
/// blob's length prefix. A vote log never holds a window that seals
/// larger, so every drain fits one reply.
pub const MAX_DRAIN_VLOG_LEN: usize = MAX_FRAME_LEN - (1 + 4 + 1 + 4);

/// Sentinel in the score body's `u32` decision field marking an open-set
/// `unknown` reply: the utterance was scored (the LLR slice is present as
/// usual) but its best LLR fell below the server's `--unknown-threshold`,
/// so no target language is claimed. Decoders recover the arg-max index
/// locally from the LLRs (bit-identical to what the server computed) and
/// set [`ScoredUtt::unknown`]. Servers running closed-set (no threshold)
/// never emit it.
pub const DECISION_UNKNOWN: u32 = u32::MAX;

/// Tag numbers that once meant something and must never be reused.
pub const RETIRED_TAGS: &[u8] = &[1, 2, 5, 7, 13, 16, 17];

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
/// elsewhere.
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
    /// may be outstanding; replies echo the id and may arrive out of order,
    /// and a scored one carries the request's stage-timestamped span.
    4 REQ_SCORE_V2 ScoreV2 "score-v2" { id: u64, deadline_ms: u32, samples: Vec<f32> }
        => ScoredUtt, "server · router (forwards to a replica)";
    /// Run one adaptation cycle now (drain the vote log, retrain, guard,
    /// maybe swap), synchronously on the connection's reader.
    6 REQ_ADAPT Adapt "adapt" => AdaptReport, "adaptd · router started with --bundle/--guard";
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
    /// Dump the telemetry registry: every counter, gauge, histogram
    /// summary and sketch, name-sorted.
    14 REQ_STATS_V3 StatsV3 "stats-v3" => MetricsDump, "server · router";
    /// Peek at (flag 0) or drain (flag 1) the flight recorder's event ring.
    15 REQ_FLIGHT Flight "flight" { drain: bool } => Vec<FlightEvent>, "server · router";
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

/// The request id of a score request. Score replies carry it in the same
/// place (status byte instead of tag byte), so routers splice ids here in
/// both directions without decoding anything behind it.
pub const SCORE_ID: Range<usize> = field_span(REQ_SCORE_V2, "id");

/// Where a score request's samples start: their `u32` count.
const SCORE_SAMPLES: usize = field_span(REQ_SCORE_V2, "samples").start;

/// A request as a front door admits it: a score by its fixed fields only
/// (its samples stay in the frame), anything else decoded whole.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestHead {
    Score { id: u64, deadline_ms: u32 },
    Other(Request),
}

/// [`decode_request`] without building a score's samples: the same bytes
/// are refused with the same error, and a score's sample count is checked
/// against the frame exactly as the full decode checks it. A router needs
/// no samples; a server takes them with [`score_samples`].
pub fn decode_request_head(frame: &[u8]) -> Result<RequestHead, ArtifactError> {
    if frame.first() != Some(&REQ_SCORE_V2) {
        return decode_request(frame).map(RequestHead::Other);
    }
    let mut r = ArtifactReader::new(&frame[1..]);
    let (id, deadline_ms) = (r.get_u64()?, r.get_u32()?);
    let n = r.get_count(4)?;
    r.get_bytes(n * 4)?;
    finish(&r)?;
    Ok(RequestHead::Score { id, deadline_ms })
}

/// The samples of a score frame [`decode_request_head`] accepted.
pub fn score_samples(frame: &[u8]) -> Result<Vec<f32>, ArtifactError> {
    let mut r = ArtifactReader::new(frame.get(SCORE_SAMPLES..).unwrap_or_default());
    let samples = r.get_f32_slice()?;
    finish(&r)?;
    Ok(samples)
}

/// Write one frame: `u32` LE length + payload. A payload over
/// [`MAX_FRAME_LEN`], which every peer's [`read_frame`] would refuse, is
/// refused here instead, before a byte is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            ),
        ));
    }
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
/// [`DECISION_UNKNOWN`]), `u64` generation of the model that scored it,
/// then the request's [`TraceSpan`].
impl Wire for ScoredUtt {
    fn put(&self, w: &mut ArtifactWriter) {
        self.llrs.put(w);
        w.put_u32(if self.unknown {
            DECISION_UNKNOWN
        } else {
            self.decision as u32
        });
        self.generation.put(w);
        self.span.put(w);
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
            span: TraceSpan::get(r)?,
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

/// A score refusal: status byte + echoed request id.
pub fn encode_status_v2(id: u64, status: u8) -> Vec<u8> {
    score_reply_head(status, id).into_bytes()
}

/// A [`REQ_SCORE_V2`] success: status + echoed id + score body (its span
/// included).
pub fn encode_score_ok_v2(id: u64, scored: &ScoredUtt) -> Vec<u8> {
    let mut w = score_reply_head(STATUS_OK, id);
    scored.put(&mut w);
    w.into_bytes()
}

/// Decode a [`REQ_SCORE_V2`] reply: `(request id, Ok(scored) | Err(status))`.
pub fn decode_score_reply_v2(bytes: &[u8]) -> Result<(u64, Result<ScoredUtt, u8>), ArtifactError> {
    let mut r = ArtifactReader::new(bytes);
    let (status, id) = (r.get_u8()?, r.get_u64()?);
    let reply = match status {
        STATUS_OK => Ok(ScoredUtt::get(&mut r)?),
        status => Err(status),
    };
    finish(&r)?;
    Ok((id, reply))
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
impl Wire for Vec<FlightEvent> {
    fn put(&self, w: &mut ArtifactWriter) {
        put_list(self, w)
    }
    fn get(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        get_list(r)
    }
}

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

    fn span(trace_id: u64, marks: &[(u8, u64)]) -> TraceSpan {
        let mut span = TraceSpan::new(trace_id);
        for &(stage, at) in marks {
            span.mark(stage, at);
        }
        span
    }

    /// The span a real scorer's reply carries: all five stages.
    fn five_marks() -> TraceSpan {
        use lre_obs::{STAGE_DECODE, STAGE_QUEUE, STAGE_SCORE, STAGE_SUPERVECTOR};
        span(
            0xCAFE,
            &[
                (STAGE_QUEUE, 100),
                (STAGE_DECODE, 120),
                (STAGE_SUPERVECTOR, 700),
                (STAGE_SCORE, 900),
                (STAGE_REPLY, 950),
            ],
        )
    }

    /// A mock scorer reports no decode / supervector split.
    fn three_marks() -> TraceSpan {
        use lre_obs::{STAGE_QUEUE, STAGE_SCORE};
        span(
            0xF00D,
            &[(STAGE_QUEUE, 3), (STAGE_SCORE, 40), (STAGE_REPLY, 41)],
        )
    }

    fn scored(llrs: Vec<f32>, decision: usize, generation: u64) -> ScoredUtt {
        ScoredUtt {
            llrs,
            decision,
            generation,
            span: five_marks(),
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
        let req = Request::ScoreV2 {
            id: u64::MAX,
            deadline_ms: 250,
            samples: samples.clone(),
        };
        match decode_request(&encode_request(&req)).unwrap() {
            Request::ScoreV2 { samples: back, .. } => assert_eq!(bits(&back), bits(&samples)),
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn score_id_is_where_the_encoder_puts_the_id() {
        let request = encode_request(&Request::ScoreV2 {
            id: 0x1122_3344_5566_7788,
            deadline_ms: 9,
            samples: vec![1.0],
        });
        assert_eq!(request[SCORE_ID], 0x1122_3344_5566_7788u64.to_le_bytes());
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
            let decoded = decode_request(&frame);
            // The admission decode refuses exactly what the full one does.
            match (&decoded, decode_request_head(&frame)) {
                (
                    Ok(Request::ScoreV2 { id, deadline_ms, samples }),
                    Ok(RequestHead::Score { id: i, deadline_ms: d }),
                ) => {
                    prop_assert_eq!((*id, *deadline_ms), (i, d));
                    prop_assert_eq!(bits(samples), bits(&score_samples(&frame).unwrap()));
                }
                (Ok(req), Ok(RequestHead::Other(other))) => prop_assert_eq!(req, &other),
                (Err(e), Err(head)) => prop_assert_eq!(e.to_string(), head.to_string()),
                (full, head) => prop_assert!(false, "{:?} vs {:?}", full, head),
            }
            if let Ok(req) = decoded {
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
            ("engine.requests".to_string(), MetricValue::Counter(17)),
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
        let checks = checks! {
            Ack => vec![Ack];
            ScoredUtt => vec![
                scored(vec![0.25, -1.0], 1, 42),
                ScoredUtt { span: three_marks(), ..scored(vec![1.5], 0, 3) },
                scored(Vec::new(), 0, 0),
            ];
            AdaptReport => vec![AdaptReport {
                outcome: ADAPT_PROMOTED,
                generation: 7,
                selected: 120,
                drained: 150,
            }];
            DrainReply => vec![
                DrainReply { buffered: 42, sealed: None },
                DrainReply { buffered: 42, sealed: Some(vec![1, 2, 3, 4, 5]) },
                DrainReply { buffered: 0, sealed: Some(Vec::new()) },
            ];
            StageAck => vec![StageAck { checksum: 0xC0FFEE }];
            CommitAck => vec![CommitAck { generation: 9, checksum: 0xC0FFEE }];
            AbortAck => vec![AbortAck { had_staged: true }, AbortAck { had_staged: false }];
            RollbackAck => vec![RollbackAck { rolled: true, generation: 11 }];
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
            let frame = encode_status_v2(77, status);
            assert_eq!(decode_score_reply_v2(&frame).unwrap(), (77, Err(status)));
            assert!(decode_score_reply_v2(&[&frame[..], &[1]].concat()).is_err());
            assert!(decode_score_reply_v2(&frame[..frame.len() - 1]).is_err());
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
    fn every_scored_reply_carries_its_span_after_the_score_body() {
        for span in [five_marks(), three_marks()] {
            let body = ScoredUtt {
                span: span.clone(),
                ..scored(vec![0.25, -1.0], 0, 42)
            };
            let frame = encode_score_ok_v2(11, &body);
            assert_eq!(decode_score_reply_v2(&frame).unwrap(), (11, Ok(body)));
            // After the score body: trace id, stage count, then nine bytes
            // a mark — 57 bytes for a real scorer's five marks.
            let marks = span.stages.len();
            let score_body = 1 + 8 + (4 + 2 * 4) + 4 + 8;
            assert_eq!(frame.len(), score_body + 8 + 4 + 9 * marks);
            assert_eq!(&frame[score_body..][..8], &span.trace_id.to_le_bytes());
        }
        assert_eq!(
            encode_score_ok_v2(1, &scored(vec![0.5], 0, 1)).len(),
            1 + 8 + 8 + 4 + 8 + 57
        );

        // A reply cut before its span ends — the whole span, or a mark —
        // is not a reply.
        let frame = encode_score_ok_v2(11, &scored(vec![0.25, -1.0], 0, 42));
        for cut in frame.len() - 57..frame.len() {
            assert!(
                decode_score_reply_v2(&frame[..cut]).is_err(),
                "cut at {cut}"
            );
        }

        // Offsets going backwards and unknown stage ids are protocol errors.
        use lre_obs::{STAGE_DECODE, STAGE_QUEUE};
        for bad in [
            span(1, &[(STAGE_QUEUE, 100), (STAGE_DECODE, 50)]),
            span(1, &[(99, 5)]),
        ] {
            let body = ScoredUtt {
                span: bad,
                ..scored(vec![0.5], 0, 1)
            };
            assert!(decode_score_reply_v2(&encode_score_ok_v2(1, &body)).is_err());
        }
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
    fn an_oversize_payload_is_refused_before_a_byte_is_written() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty());
    }

    #[test]
    fn the_largest_drainable_window_fills_one_frame_exactly() {
        let full = encode_ok(&DrainReply {
            buffered: u32::MAX,
            sealed: Some(vec![0; MAX_DRAIN_VLOG_LEN]),
        });
        assert_eq!(full.len(), MAX_FRAME_LEN);
        let mut buf = Vec::new();
        write_frame(&mut buf, &full).unwrap();
        let back = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
        let reply = decode_reply::<DrainReply>(&back).unwrap().unwrap();
        assert_eq!(reply.sealed.map(|v| v.len()), Some(MAX_DRAIN_VLOG_LEN));
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
