//! Property tests for the router's in-place frame surgery.
//!
//! The router never re-encodes a score frame: it splices ids into
//! `frame[SCORE_ID]` ([`lre_router::Backend::forward`] on the way out, the
//! backend reader on the way back) and mints trace ids into
//! `frame[TRACE_ID]` of a traced request that arrived with trace id 0.
//! Both splices bank on the wire layout being *positionally stable* for
//! every possible body — any drift between the encoder and the offsets the
//! tag table exports corrupts samples or misroutes replies. These
//! properties pin the exported constants against the encoder over random
//! bodies, including NaN-bit sample payloads.

use lre_serve::engine::decision;
use lre_serve::protocol::{
    decode_request, decode_score_reply_v2, encode_request, encode_score_ok_v2, Request,
    REQ_SCORE_TRACED, REQ_SCORE_V2, SAMPLES_AT_TRACED, SAMPLES_AT_V2, SCORE_ID, TRACE_ID,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The traced-score layout: tag, id, deadline, trace id, then samples.
    // Patching a minted trace id into `TRACE_ID` must change exactly that
    // field and nothing else.
    #[test]
    fn trace_id_patch_touches_only_the_trace_id(
        id in any::<u64>(),
        deadline_ms in any::<u32>(),
        minted in any::<u64>().prop_map(|v| v | 1), // non-zero, like mint_trace_id
        samples in samples_strategy(),
    ) {
        let frame = encode_request(&Request::ScoreTraced {
            id,
            deadline_ms,
            trace_id: 0,
            samples: samples.clone(),
        });
        // Positional pins the router's splice depends on: the fields sit
        // back to back where the exported constants say.
        prop_assert_eq!(frame[0], REQ_SCORE_TRACED);
        prop_assert_eq!(&frame[SCORE_ID], &id.to_le_bytes()[..]);
        prop_assert_eq!(&frame[SCORE_ID.end..TRACE_ID.start], &deadline_ms.to_le_bytes()[..]);
        prop_assert_eq!(&frame[TRACE_ID], &[0u8; 8][..]);
        prop_assert_eq!(TRACE_ID.end, SAMPLES_AT_TRACED);
        prop_assert_eq!(
            &frame[SAMPLES_AT_TRACED..][..4],
            &(samples.len() as u32).to_le_bytes()[..]
        );

        let mut patched = frame.clone();
        patched[TRACE_ID].copy_from_slice(&minted.to_le_bytes());
        prop_assert_eq!(&patched[..TRACE_ID.start], &frame[..TRACE_ID.start]);
        prop_assert_eq!(&patched[TRACE_ID.end..], &frame[TRACE_ID.end..]);

        match decode_request(&patched) {
            Ok(Request::ScoreTraced {
                id: got_id,
                deadline_ms: got_deadline,
                trace_id: got_trace,
                samples: got_samples,
            }) => {
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got_deadline, deadline_ms);
                prop_assert_eq!(got_trace, minted);
                prop_assert_eq!(bits(&got_samples), bits(&samples));
            }
            other => prop_assert!(false, "patched frame no longer decodes: {other:?}"),
        }
    }

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
        prop_assert_eq!(
            &frame[SAMPLES_AT_V2..][..4],
            &(samples.len() as u32).to_le_bytes()[..]
        );
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
    // open-set unknown flag — must survive untouched.
    #[test]
    fn reply_id_splice_preserves_the_scored_payload(
        backend_id in any::<u64>(),
        client_id in any::<u64>(),
        llr_bits in proptest::collection::vec(any::<u32>(), 1..24),
        decision_pick in any::<usize>(),
        generation in any::<u64>(),
        unknown in any::<bool>(),
    ) {
        let llrs: Vec<f32> = llr_bits.iter().copied().map(f32::from_bits).collect();
        let scored = ScoredUtt {
            decision: decision_pick % llrs.len(),
            generation,
            span: None,
            unknown,
            llrs: llrs.clone(),
        };
        let mut frame = encode_score_ok_v2(backend_id, &scored);
        prop_assert_eq!(&frame[SCORE_ID], &backend_id.to_le_bytes()[..]);
        frame[SCORE_ID].copy_from_slice(&client_id.to_le_bytes());
        let (got_id, reply) = decode_score_reply_v2(&frame).expect("spliced reply decodes");
        prop_assert_eq!(got_id, client_id);
        let back = reply.expect("an OK reply stays OK");
        prop_assert_eq!(bits(&back.llrs), bits(&llrs));
        prop_assert_eq!(back.generation, generation);
        prop_assert_eq!(back.unknown, unknown);
        // The sentinel path recovers the local argmax; the closed-set
        // path carries the wire decision verbatim.
        let expect_decision = if unknown { decision(&llrs) } else { scored.decision };
        prop_assert_eq!(back.decision, expect_decision);
    }
}
