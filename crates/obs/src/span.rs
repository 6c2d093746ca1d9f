//! Per-request trace spans: the stage clock a traced request carries
//! from admission to reply.
//!
//! A span is a trace id plus a list of `(stage, offset_us)` pairs, each
//! offset measured from the moment the engine accepted the request.
//! Stages are recorded in pipeline order, and each offset marks the
//! point the stage **finished**, so consecutive differences are stage
//! durations:
//!
//! | stage | finished when |
//! |---|---|
//! | [`STAGE_QUEUE`] | a worker picked the request off the queue |
//! | [`STAGE_DECODE`] | acoustic decode (features + Viterbi) completed |
//! | [`STAGE_SUPERVECTOR`] | expected-count supervectors were built |
//! | [`STAGE_SCORE`] | SVM scoring + fusion produced the fused LLRs |
//! | [`STAGE_REPLY`] | the reply was handed to the connection writer |
//!
//! Mock scorers cannot split decode from scoring, so a span is allowed
//! to omit interior stages; offsets must still be non-decreasing in
//! stage order (the wire decoder enforces this).

/// Stage ids, in pipeline order. They are wire values: id 1 is retired
/// and is not reused.
pub const STAGE_QUEUE: u8 = 0;
pub const STAGE_DECODE: u8 = 2;
pub const STAGE_SUPERVECTOR: u8 = 3;
pub const STAGE_SCORE: u8 = 4;
pub const STAGE_REPLY: u8 = 5;

/// Stable human name for a stage id.
pub fn stage_name(stage: u8) -> &'static str {
    match stage {
        STAGE_QUEUE => "queue",
        STAGE_DECODE => "decode",
        STAGE_SUPERVECTOR => "supervector",
        STAGE_SCORE => "score",
        STAGE_REPLY => "reply",
        _ => "unknown",
    }
}

/// Stage-time split a scorer reports for one utterance, microseconds.
/// A scorer that cannot split (a mock) leaves all three at zero; the
/// engine then attributes the whole call to `score_us`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    pub decode_us: u64,
    pub supervector_us: u64,
    pub score_us: u64,
}

/// One traced request's stage breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSpan {
    /// Minted at admission (router or server); `0` never appears on a
    /// completed span.
    pub trace_id: u64,
    /// `(stage, offset_us)` pairs in recording order; offsets are from
    /// engine admission and non-decreasing.
    pub stages: Vec<(u8, u64)>,
}

impl TraceSpan {
    pub fn new(trace_id: u64) -> TraceSpan {
        TraceSpan {
            trace_id,
            stages: Vec::with_capacity(6),
        }
    }

    /// Append a stage mark.
    pub fn mark(&mut self, stage: u8, offset_us: u64) {
        self.stages.push((stage, offset_us));
    }

    /// Offset of a stage, if recorded.
    pub fn offset_of(&self, stage: u8) -> Option<u64> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, o)| o)
    }

    /// True when stages are in strictly increasing stage order with
    /// non-decreasing offsets — the invariant the wire decoder checks.
    pub fn is_well_formed(&self) -> bool {
        self.stages
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(stage_name(STAGE_QUEUE), "queue");
        assert_eq!(stage_name(STAGE_REPLY), "reply");
        assert_eq!(stage_name(99), "unknown");
    }

    #[test]
    fn well_formedness_checks_order_and_monotonicity() {
        let mut span = TraceSpan::new(7);
        span.mark(STAGE_QUEUE, 10);
        span.mark(STAGE_DECODE, 12);
        span.mark(STAGE_SCORE, 300); // interior stages may be omitted
        span.mark(STAGE_REPLY, 305);
        assert!(span.is_well_formed());
        assert_eq!(span.offset_of(STAGE_DECODE), Some(12));
        assert_eq!(span.offset_of(STAGE_SUPERVECTOR), None);

        let mut bad = TraceSpan::new(7);
        bad.mark(STAGE_DECODE, 12);
        bad.mark(STAGE_QUEUE, 10); // out of stage order
        assert!(!bad.is_well_formed());

        let mut backwards = TraceSpan::new(7);
        backwards.mark(STAGE_QUEUE, 10);
        backwards.mark(STAGE_DECODE, 5); // time went backwards
        assert!(!backwards.is_well_formed());
    }
}
