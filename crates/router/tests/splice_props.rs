//! Property tests for the router's in-place frame surgery.
//!
//! The router never re-encodes a score frame: it splices ids into
//! `frame[1..9]` ([`lre_router::Backend::forward`] on the way out, the
//! backend reader on the way back) and mints trace ids into
//! `frame[13..21]` of a traced request that arrived with trace id 0.
//! Both splices bank on the wire layout being *positionally stable* for
//! every possible body — any drift between the encoder and these offsets
//! corrupts samples or misroutes replies. Until now that contract was
//! only covered end-to-end; these properties pin it against random
//! bodies, including NaN-bit sample payloads.

use lre_serve::engine::decision;
use lre_serve::protocol::{
    decode_request, decode_score_reply_v2, encode_request, encode_score_ok_v2, Request,
    REQ_SCORE_TRACED, REQ_SCORE_V2,
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

    // The traced-score layout: tag, id at 1..9, deadline at 9..13, trace
    // id at 13..21, then samples. Patching a minted trace id into
    // 13..21 must change exactly that field and nothing else.
    #[test]
    fn trace_id_patch_touches_only_bytes_13_to_21(
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
        // Positional pins the router's splice depends on.
        prop_assert_eq!(frame[0], REQ_SCORE_TRACED);
        prop_assert_eq!(u64::from_le_bytes(frame[1..9].try_into().unwrap()), id);
        prop_assert_eq!(
            u32::from_le_bytes(frame[9..13].try_into().unwrap()),
            deadline_ms
        );
        prop_assert_eq!(u64::from_le_bytes(frame[13..21].try_into().unwrap()), 0);

        let mut patched = frame.clone();
        patched[13..21].copy_from_slice(&minted.to_le_bytes());
        prop_assert_eq!(&patched[..13], &frame[..13]);
        prop_assert_eq!(&patched[21..], &frame[21..]);

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

    // Backend::forward rewrites frame[1..9] with its own id; the frame
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
        let mut spliced = frame.clone();
        spliced[1..9].copy_from_slice(&backend_id.to_le_bytes());
        prop_assert_eq!(&spliced[9..], &frame[9..]);
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
        prop_assert_eq!(u64::from_le_bytes(frame[1..9].try_into().unwrap()), backend_id);
        frame[1..9].copy_from_slice(&client_id.to_le_bytes());
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
