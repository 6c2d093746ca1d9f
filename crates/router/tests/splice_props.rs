//! Property tests for the router's in-place frame surgery.
//!
//! The router never re-encodes a score frame: it splices ids into
//! `frame[SCORE_ID]` ([`lre_router::Backend::forward`] on the way out, the
//! backend reader on the way back), and that is the only offset it reads.
//! The splice banks on the wire layout being *positionally stable* for
//! every possible body — any drift between the encoder and the offset the
//! tag table exports corrupts samples or misroutes replies. These
//! properties pin the exported constant against the encoder over random
//! bodies, including NaN-bit sample payloads and the span every scored
//! reply carries.

use lre_obs::{TraceSpan, STAGE_DECODE, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE, STAGE_SUPERVECTOR};
use lre_serve::engine::decision;
use lre_serve::protocol::{
    decode_request, decode_score_reply_v2, encode_request, encode_score_ok_v2, Request,
    REQ_SCORE_V2, SCORE_ID,
};
use lre_serve::ScoredUtt;
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Arbitrary sample payloads, NaN and infinity bit patterns included —
/// the router must treat the body as opaque bytes.
fn samples_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..48)
}

/// Arbitrary well-formed spans: a non-zero trace id and at most one mark
/// per stage, in stage order, at non-decreasing offsets.
fn span_strategy() -> impl Strategy<Value = TraceSpan> {
    const STAGES: [u8; 5] = [
        STAGE_QUEUE,
        STAGE_DECODE,
        STAGE_SUPERVECTOR,
        STAGE_SCORE,
        STAGE_REPLY,
    ];
    (
        any::<u64>().prop_map(|v| v | 1),
        proptest::collection::vec((any::<bool>(), 0u64..1_000_000), STAGES.len()),
    )
        .prop_map(|(trace_id, picks)| {
            let mut span = TraceSpan::new(trace_id);
            let mut at = 0;
            for (&stage, (kept, step)) in STAGES.iter().zip(picks) {
                at += step;
                if kept {
                    span.mark(stage, at);
                }
            }
            span
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Backend::forward rewrites frame[SCORE_ID] with its own id; the frame
    // must still decode as the same request with only the id changed.
    #[test]
    fn request_id_splice_preserves_the_body(
        id in any::<u64>(),
        backend_id in any::<u64>(),
        deadline_ms in any::<u32>(),
        samples in samples_strategy(),
    ) {
        let frame = encode_request(&Request::ScoreV2 {
            id,
            deadline_ms,
            samples: samples.clone(),
        });
        prop_assert_eq!(frame[0], REQ_SCORE_V2);
        prop_assert_eq!(&frame[SCORE_ID], &id.to_le_bytes()[..]);
        let mut spliced = frame.clone();
        spliced[SCORE_ID].copy_from_slice(&backend_id.to_le_bytes());
        prop_assert_eq!(&spliced[SCORE_ID.end..], &frame[SCORE_ID.end..]);
        match decode_request(&spliced) {
            Ok(Request::ScoreV2 {
                id: got_id,
                deadline_ms: got_deadline,
                samples: got_samples,
            }) => {
                prop_assert_eq!(got_id, backend_id);
                prop_assert_eq!(got_deadline, deadline_ms);
                prop_assert_eq!(bits(&got_samples), bits(&samples));
            }
            other => prop_assert!(false, "spliced frame no longer decodes: {other:?}"),
        }
    }

    // The backend reader splices the client id back into reply frames at
    // the same offset. The scored payload — LLR bits, generation, the
    // open-set unknown flag, the replica's span — must survive untouched.
    #[test]
    fn reply_id_splice_preserves_the_scored_payload(
        backend_id in any::<u64>(),
        client_id in any::<u64>(),
        llr_bits in proptest::collection::vec(any::<u32>(), 1..24),
        decision_pick in any::<usize>(),
        generation in any::<u64>(),
        unknown in any::<bool>(),
        span in span_strategy(),
    ) {
        let llrs: Vec<f32> = llr_bits.iter().copied().map(f32::from_bits).collect();
        let scored = ScoredUtt {
            decision: decision_pick % llrs.len(),
            generation,
            span: span.clone(),
            unknown,
            llrs: llrs.clone(),
        };
        let frame = encode_score_ok_v2(backend_id, &scored);
        prop_assert_eq!(&frame[SCORE_ID], &backend_id.to_le_bytes()[..]);
        let mut spliced = frame.clone();
        spliced[SCORE_ID].copy_from_slice(&client_id.to_le_bytes());
        prop_assert_eq!(&spliced[..SCORE_ID.start], &frame[..SCORE_ID.start]);
        prop_assert_eq!(&spliced[SCORE_ID.end..], &frame[SCORE_ID.end..]);
        let (got_id, reply) = decode_score_reply_v2(&spliced).expect("spliced reply decodes");
        prop_assert_eq!(got_id, client_id);
        let back = reply.expect("an OK reply stays OK");
        prop_assert_eq!(bits(&back.llrs), bits(&llrs));
        prop_assert_eq!(back.generation, generation);
        prop_assert_eq!(back.unknown, unknown);
        prop_assert_eq!(&back.span, &span);
        // The sentinel path recovers the local argmax; the closed-set
        // path carries the wire decision verbatim.
        let expect_decision = if unknown { decision(&llrs) } else { scored.decision };
        prop_assert_eq!(back.decision, expect_decision);
    }
}
