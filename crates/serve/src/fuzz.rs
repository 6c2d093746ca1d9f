//! A deterministic corpus of malformed wire input, shared by the
//! fault-injection test suite, the traffic simulator and the
//! `lre-client --fuzz` mode.
//!
//! Every case is a byte stream a hostile or broken peer might produce.
//! The contract under test: the server answers a well-framed but invalid
//! payload with `STATUS_BAD_REQUEST` and closes the connection; a broken
//! frame (oversized length prefix, mid-frame disconnect) just closes the
//! connection. It never panics, never allocates anywhere near the bogus
//! advertised sizes, and never leaks the connection's threads.
//!
//! The per-tag half of the corpus is derived from
//! [`crate::protocol::TAG_TABLE`]: for every request row, a valid frame is
//! built from the row's field shapes and then torn at and inside every
//! field, padded, given out-of-range flags and given absurd lengths. A tag
//! added to the table is fuzzed without touching this file. Only what no
//! row describes — framing, torn streams, pacing — is written out by hand.
//!
//! [`bad_audio_corpus`] is the other half: well-formed score frames whose
//! samples are not audio. Those are refused `bad request` under the
//! score's id, and the connection stays open.

use crate::protocol::{
    encode_request, encode_status_v2, read_frame, write_frame, FieldKind, Request, TagRow,
    MAX_FRAME_LEN, RETIRED_TAGS, STATUS_BAD_REQUEST, STATUS_OK, TAG_TABLE,
};
use lre_dsp::MAX_SAMPLE_ABS;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a correct server does with the case's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Well-framed, invalid payload: one `STATUS_BAD_REQUEST` reply frame,
    /// then the server closes.
    BadRequest,
    /// Broken framing or a torn stream: the server closes without a
    /// bad-request reply (any replies seen belong to valid frames embedded
    /// before the breakage).
    Close,
    /// A *valid* request delivered hostilely (e.g. one byte per write):
    /// the server must still answer it — at least one `STATUS_OK` reply —
    /// because slow delivery of good bytes is not an error.
    Answered,
    /// A well-formed score with id `.0` whose samples a serving door
    /// refuses, then a stats-v3 request: `bad request` under that id and
    /// the stats reply on the same connection, then a clean close. The two
    /// may come in either order: a router answers the stats request itself
    /// while its replica answers the score.
    Refused(u64),
}

/// How the case's bytes reach the socket. Slow-loris clients are
/// distinguished from broken ones precisely by *when* bytes arrive, so
/// pacing is part of the case, not the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Everything in one `write_all` — the classic corpus shape.
    OneShot,
    /// One byte per `write`, `gap` apart: the drip-feed slow loris.
    Trickle { gap: Duration },
    /// Write the first `prefix` bytes, hold the connection idle for
    /// `stall`, then send the rest (possibly nothing) and disconnect.
    StallAfter { prefix: usize, stall: Duration },
}

/// One malformed-input case: raw bytes to write to a fresh connection.
pub struct FuzzCase {
    pub name: String,
    /// Which part of the corpus the case belongs to: `per-tag` (derived
    /// from the tag table), `payload`, `stream`, `slow-loris` or
    /// `bad-audio`.
    pub class: &'static str,
    pub bytes: Vec<u8>,
    pub expect: Expect,
    pub pacing: Pacing,
}

fn framed(class: &'static str, name: impl Into<String>, payload: Vec<u8>) -> FuzzCase {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &payload).expect("Vec write cannot fail");
    FuzzCase {
        name: name.into(),
        class,
        bytes,
        expect: Expect::BadRequest,
        pacing: Pacing::OneShot,
    }
}

fn raw(name: &str, bytes: Vec<u8>) -> FuzzCase {
    FuzzCase {
        name: name.into(),
        class: "stream",
        bytes,
        expect: Expect::Close,
        pacing: Pacing::OneShot,
    }
}

/// A valid request payload for `row`, built from its field shapes alone,
/// and where each field starts (the payload's length closes the list).
pub fn example_request(row: &TagRow) -> (Vec<u8>, Vec<usize>) {
    let mut payload = vec![row.tag];
    let mut starts = Vec::new();
    for field in row.fields {
        starts.push(payload.len());
        match field.kind {
            FieldKind::Flag => payload.push(1),
            FieldKind::U32 => payload.extend_from_slice(&100u32.to_le_bytes()),
            FieldKind::U64 => payload.extend_from_slice(&7u64.to_le_bytes()),
            FieldKind::F32Slice => {
                payload.extend_from_slice(&16u32.to_le_bytes());
                payload.extend_from_slice(&0.5f32.to_le_bytes().repeat(16));
            }
            FieldKind::Blob => {
                payload.extend_from_slice(&8u32.to_le_bytes());
                payload.extend_from_slice(&[0xAA; 8]);
            }
        }
    }
    starts.push(payload.len());
    (payload, starts)
}

/// Every way of breaking `row`'s request that its field list implies.
fn cases_for(row: &TagRow) -> Vec<FuzzCase> {
    let (valid, starts) = example_request(row);
    let case = |what: String, payload: Vec<u8>| {
        framed("per-tag", format!("{}: {what}", row.name), payload)
    };
    // Must be refused as malformed, NOT executed: a shutdown, an adapt
    // cycle or a drain acted on from a frame with junk behind it would be
    // a corrupted stream steering the server.
    let mut cases = vec![case("trailing junk".into(), [&valid[..], &[0xAB]].concat())];
    for (field, span) in row.fields.iter().zip(starts.windows(2)) {
        let (start, end) = (span[0], span[1]);
        // Missing from this field on, and torn inside it.
        for cut in [start, start + (end - start) / 2] {
            cases.push(case(format!("cut at byte {cut}"), valid[..cut].to_vec()));
        }
        match field.kind {
            // A flag is strictly 0 or 1; a 7 is a corrupted stream, and
            // draining or rolling back on a guess would destroy the
            // evidence it carries.
            FieldKind::Flag => {
                for bad in [2, 7] {
                    let mut payload = valid.clone();
                    payload[start] = bad;
                    cases.push(case(format!("flag `{}` = {bad}", field.name), payload));
                }
            }
            // A length far past the frame: must be refused before any
            // allocation anywhere near the advertised size.
            FieldKind::F32Slice | FieldKind::Blob => {
                let mut payload = valid[..(start + 12).min(end)].to_vec();
                payload[start..start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                cases.push(case(format!("`{}` length u32::MAX", field.name), payload));
            }
            FieldKind::U32 | FieldKind::U64 => {}
        }
    }
    // A one-byte field has no inside to tear.
    cases.dedup_by(|a, b| a.bytes == b.bytes);
    cases
}

/// The malformed-input corpus (deterministic), including the slow-loris
/// shapes — for those the hostility is the pacing, and one of them is a
/// *valid* request the server must still answer.
pub fn malformed_corpus() -> Vec<FuzzCase> {
    let payload = |name: &str, bytes: Vec<u8>| framed("payload", name, bytes);
    let stats = encode_request(&Request::StatsV3);
    let mut torn_score = encode_request(&Request::ScoreV2 {
        id: 7,
        deadline_ms: 100,
        samples: vec![0.5; 16],
    });
    torn_score.truncate(torn_score.len() / 2);
    let slow_loris = |case: FuzzCase, pacing| FuzzCase {
        class: "slow-loris",
        pacing,
        ..case
    };
    let trickle = Pacing::Trickle {
        gap: Duration::from_millis(1),
    };

    let mut cases: Vec<FuzzCase> = TAG_TABLE.iter().flat_map(cases_for).collect();
    // — well-framed payloads no row describes —
    cases.push(payload("empty payload", Vec::new()));
    for tag in [0, 99, 255] {
        cases.push(payload(&format!("unknown tag {tag}"), vec![tag]));
    }
    for &tag in RETIRED_TAGS {
        cases.push(payload(&format!("retired tag {tag}"), vec![tag]));
    }
    cases.push(payload("retired tag 1 with the score body it once took", {
        let mut b = vec![1];
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(&0.5f32.to_le_bytes().repeat(2));
        b
    }));
    cases.push(payload(
        "retired tag 16 with the traced body it once took",
        {
            // id, deadline, trace id (0 asked the server to mint one), samples
            let mut b = vec![16];
            b.extend_from_slice(&7u64.to_le_bytes());
            b.extend_from_slice(&100u32.to_le_bytes());
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&0.5f32.to_le_bytes().repeat(2));
            b
        },
    ));
    cases.push(payload(
        "deterministic garbage",
        (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect(),
    ));
    cases.push(payload("all 0xFF", vec![0xFF; 64]));
    cases.push(payload("reply-shaped bytes as request", vec![0; 5]));
    // — broken framing / torn streams —
    cases.push(raw(
        "length prefix u32::MAX",
        [&u32::MAX.to_le_bytes()[..], b"junk"].concat(),
    ));
    cases.push(raw(
        "length prefix just over the cap",
        [&((MAX_FRAME_LEN + 1) as u32).to_le_bytes()[..], &[0; 16]].concat(),
    ));
    cases.push(raw(
        "mid-frame disconnect",
        [&100u32.to_le_bytes()[..], &[7; 10]].concat(),
    ));
    cases.push(raw("torn length prefix", vec![0x10, 0x00]));
    cases.push(raw("connect then immediate close", Vec::new()));
    cases.push(raw("valid stats then truncated frame", {
        let mut b = Vec::new();
        write_frame(&mut b, &stats).expect("Vec write cannot fail");
        b.extend_from_slice(&50u32.to_le_bytes());
        b.extend_from_slice(&[1, 2, 3]);
        b
    }));
    // — slow-loris shapes: the bytes are fine or torn, but the *clock* is
    //   hostile. The server must neither hang its reader thread on a
    //   stalled peer nor punish a slow-but-valid client. —
    cases.push(slow_loris(
        // A plausible length prefix and then... nothing, ever.
        raw(
            "slow-loris: header then stall",
            100u32.to_le_bytes().to_vec(),
        ),
        Pacing::StallAfter {
            prefix: 4,
            stall: Duration::from_millis(300),
        },
    ));
    cases.push(slow_loris(
        payload("slow-loris: torn score one byte per write", torn_score),
        trickle,
    ));
    cases.push(slow_loris(
        FuzzCase {
            expect: Expect::Answered,
            ..payload("slow-loris: valid stats one byte per write", stats)
        },
        trickle,
    ));
    cases.push(slow_loris(
        raw(
            "slow-loris: mid-length-prefix stall then disconnect",
            0x40u32.to_le_bytes()[..2].to_vec(),
        ),
        Pacing::StallAfter {
            prefix: 2,
            stall: Duration::from_millis(300),
        },
    ));
    cases
}

/// Well-formed score frames that carry bad audio, each followed by a
/// stats-v3 request on its connection ([`Expect::Refused`]): NaN, +Inf and
/// −Inf laced among a tone's samples and as a whole utterance; one ulp
/// past [`MAX_SAMPLE_ABS`] either side, and 1e19, laced and whole; and 0,
/// 1 and 199 samples, less than one analysis window.
pub fn bad_audio_corpus() -> Vec<FuzzCase> {
    let tone = |n: usize| -> Vec<f32> {
        let step = 2.0 * std::f32::consts::PI * 440.0 / 8000.0;
        (0..n).map(|i| 1000.0 * (step * i as f32).sin()).collect()
    };
    let laced = |bad: f32| {
        let mut x = tone(2_000);
        for at in [0, 777, 1_999] {
            x[at] = bad;
        }
        x
    };
    let mut audio: Vec<(String, Vec<f32>)> = Vec::new();
    for (name, bad) in [
        ("NaN", f32::NAN),
        ("+Inf", f32::INFINITY),
        ("-Inf", f32::NEG_INFINITY),
        ("MAX_SAMPLE_ABS + 1 ulp", MAX_SAMPLE_ABS.next_up()),
        ("-(MAX_SAMPLE_ABS + 1 ulp)", -MAX_SAMPLE_ABS.next_up()),
        ("1e19", 1e19),
    ] {
        audio.push((format!("{name} laced among a tone"), laced(bad)));
        audio.push((format!("{name} throughout"), vec![bad; 2_000]));
    }
    for n in [0, 1, 199] {
        audio.push((format!("{n} samples"), tone(n)));
    }
    let stats = encode_request(&Request::StatsV3);
    audio
        .into_iter()
        .zip(0xBAD0_u64..)
        .map(|((name, samples), id)| {
            let mut bytes = Vec::new();
            let score = Request::ScoreV2 {
                id,
                deadline_ms: 0,
                samples,
            };
            write_frame(&mut bytes, &encode_request(&score)).expect("Vec write cannot fail");
            write_frame(&mut bytes, &stats).expect("Vec write cannot fail");
            FuzzCase {
                name: format!("bad audio: {name}"),
                class: "bad-audio",
                bytes,
                expect: Expect::Refused(id),
                pacing: Pacing::OneShot,
            }
        })
        .collect()
}

/// Throw the whole corpus at a live server, one fresh connection per case:
/// [`malformed_corpus`], then [`bad_audio_corpus`]. Returns the number of
/// cases run per class, or the first violation of the malformed-input
/// contract. A read that times out counts as a hang and fails the case —
/// the server must always answer-and-close or just close.
pub fn run_corpus(
    addr: SocketAddr,
    per_case_timeout: Duration,
) -> Result<BTreeMap<&'static str, usize>, String> {
    let mut ran = BTreeMap::new();
    for case in malformed_corpus().iter().chain(&bad_audio_corpus()) {
        run_case(addr, case, per_case_timeout).map_err(|e| format!("case {:?}: {e}", case.name))?;
        *ran.entry(case.class).or_insert(0) += 1;
    }
    Ok(ran)
}

/// `true` for the error kinds an abruptly closing peer produces — the
/// "server closed on us" outcomes that satisfy [`Expect::Close`].
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Deliver `case.bytes` per the case's [`Pacing`].
fn write_paced(stream: &mut TcpStream, case: &FuzzCase) -> std::io::Result<()> {
    match case.pacing {
        Pacing::OneShot => stream.write_all(&case.bytes),
        Pacing::Trickle { gap } => {
            for b in &case.bytes {
                stream.write_all(std::slice::from_ref(b))?;
                stream.flush()?;
                std::thread::sleep(gap);
            }
            Ok(())
        }
        Pacing::StallAfter { prefix, stall } => {
            let split = prefix.min(case.bytes.len());
            stream.write_all(&case.bytes[..split])?;
            stream.flush()?;
            std::thread::sleep(stall);
            stream.write_all(&case.bytes[split..])
        }
    }
}

/// Run one case against a live server. Public so traffic simulators can
/// weave individual hostile connections between legitimate load.
pub fn run_case(addr: SocketAddr, case: &FuzzCase, timeout: Duration) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    if let Err(e) = write_paced(&mut stream, case) {
        // A server that already dropped a torn stream may RST our write;
        // that is a close, which is exactly what Close cases expect.
        if case.expect == Expect::Close && is_disconnect(&e) {
            return Ok(());
        }
        return Err(format!("write: {e}"));
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut replies = Vec::new();
    loop {
        match read_frame(&mut stream) {
            Ok(Some(f)) => replies.push(f),
            Ok(None) => break,
            Err(e) if case.expect == Expect::Close && is_disconnect(&e) => break,
            Err(e) => return Err(format!("read: {e} (server hung or tore a reply frame)")),
        }
    }
    match case.expect {
        Expect::BadRequest if replies.last().map(Vec::as_slice) != Some(&[STATUS_BAD_REQUEST]) => {
            return Err(format!(
                "expected a single BAD_REQUEST reply before close, got {replies:?}"
            ));
        }
        Expect::Answered if replies.last().is_none_or(|r| r.first() != Some(&STATUS_OK)) => {
            return Err(format!(
                "expected a STATUS_OK answer to a valid-but-slow request, got {replies:?}"
            ));
        }
        Expect::Refused(id) => {
            let refusal = encode_status_v2(id, STATUS_BAD_REQUEST);
            let refused = replies.iter().filter(|r| **r == refusal).count();
            let answered = replies.iter().filter(|r| r.first() == Some(&STATUS_OK));
            if (replies.len(), refused, answered.count()) != (2, 1, 1) {
                return Err(format!(
                    "expected BAD_REQUEST under id {id} and the stats reply, got {replies:?}"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_request;

    #[test]
    fn corpus_is_uniquely_named_and_every_row_contributes() {
        let corpus = malformed_corpus();
        let mut names: Vec<_> = corpus.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate case names");
        for row in TAG_TABLE {
            let prefix = format!("{}: ", row.name);
            let n = corpus
                .iter()
                .filter(|c| c.name.starts_with(&prefix))
                .count();
            // Trailing junk for every row; cuts, flags and lengths on top
            // for every field.
            assert!(n > 2 * row.fields.len(), "{} has only {n} cases", row.name);
        }
    }

    #[test]
    fn every_example_request_decodes() {
        // The cases are mutations of these frames; if one were already
        // invalid, its mutations would prove nothing about the decoder.
        for row in TAG_TABLE {
            let (payload, starts) = example_request(row);
            assert_eq!(starts.len(), row.fields.len() + 1);
            decode_request(&payload)
                .unwrap_or_else(|e| panic!("example for {} does not decode: {e}", row.name));
        }
    }

    #[test]
    fn every_framed_case_is_actually_malformed() {
        // Each BadRequest case must carry exactly one frame whose payload
        // the decoder rejects — otherwise the case tests nothing.
        for case in malformed_corpus() {
            if case.expect != Expect::BadRequest {
                continue;
            }
            let (len_bytes, payload) = case.bytes.split_at(4);
            let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            assert_eq!(payload.len(), len, "case {:?} is not one frame", case.name);
            assert!(
                decode_request(payload).is_err(),
                "case {:?} decoded successfully — not malformed",
                case.name
            );
        }
    }

    /// Every bad-audio case is one well-formed score frame and a stats
    /// request, and the door refuses its samples for what its name says:
    /// the same samples with the bad values zeroed and padded to a window
    /// are admitted.
    #[test]
    fn every_bad_audio_case_is_well_formed_and_refused_for_its_fault() {
        use crate::server::{admissible, MIN_SAMPLES};
        let corpus = bad_audio_corpus();
        assert_eq!(corpus.len(), 15);
        for case in &corpus {
            let mut stream = &case.bytes[..];
            let score = read_frame(&mut stream).unwrap().expect("a score frame");
            let stats = read_frame(&mut stream).unwrap().expect("a stats frame");
            assert_eq!(
                (decode_request(&stats).ok(), stream.len()),
                (Some(Request::StatsV3), 0)
            );
            let Ok(Request::ScoreV2 { id, samples, .. }) = decode_request(&score) else {
                panic!("{}: not a score", case.name);
            };
            assert_eq!(case.expect, Expect::Refused(id));
            assert!(!admissible(&samples), "{}", case.name);
            let mut mended: Vec<f32> = samples
                .iter()
                .map(|&x| if x.abs() <= MAX_SAMPLE_ABS { x } else { 0.0 })
                .collect();
            mended.resize(mended.len().max(MIN_SAMPLES), 0.0);
            assert!(admissible(&mended), "{} mended", case.name);
        }
    }

    #[test]
    fn requests_that_must_be_refused_not_executed_are_in_the_corpus() {
        // Each of these, executed on a guess, does damage: stops the
        // server, swaps a model, drains evidence, or reports health a
        // router then trusts. The derived corpus must keep covering them
        // (the test above proves each one is refused).
        let corpus = malformed_corpus();
        for name in [
            "shutdown: trailing junk",
            "adapt: trailing junk",
            "stats-v3: trailing junk",
            "flight: flag `drain` = 7",
            "drain-votes: flag `peek` = 2",
            "drain-votes: cut at byte 4",
            "stage-bundle: `sealed` length u32::MAX",
            "score-v2: `samples` length u32::MAX",
            "rollback-to: cut at byte 5",
            "rollback-to: cut at byte 1",
            "rollback-to: trailing junk",
            "retired tag 1",
            "retired tag 2",
            "retired tag 5",
            "retired tag 7",
            "retired tag 13",
            "retired tag 16",
            "retired tag 16 with the traced body it once took",
            "retired tag 17",
        ] {
            let case = corpus.iter().find(|c| c.name == name);
            let case = case.unwrap_or_else(|| panic!("corpus lost the case {name:?}"));
            assert_eq!(case.expect, Expect::BadRequest, "{name}");
        }
    }
}
