//! Phone lattices and decoding.
//!
//! This crate replaces the paper's HTK `HVite` decoder and SRILM expected
//! counting (§4.1): phoneme recognizers "convert the speech into phone
//! lattices according to the given acoustic model, then the lattices are
//! used to perform phonotactic analysis" (§2.1). It provides:
//!
//! - [`decoder`]: a token-passing phone-loop Viterbi decoder over any
//!   [`FrameScorer`](lre_am::FrameScorer), with a
//!   posterior **confusion network** output (segment slots with per-phone
//!   posteriors — a pruned posterior lattice). It is the only decoder;
//! - [`confusion`]: the confusion-network type, plus conversion into a DAG
//!   lattice;
//! - [`ngram`]: expected phone-*N*-gram counting over confusion networks
//!   (Eq. 2), what the supervectors are built from;
//! - [`lattice`]: a general DAG lattice with forward-backward edge
//!   posteriors, the literal form of Eq. 2's α/β/ξ quantities. Nothing
//!   decodes into it: with [`expected_ngram_counts_lattice`] it is the
//!   test reference the confusion-network counts are held to (a network
//!   expanded by [`ConfusionNetwork::to_lattice`] must count the same).

pub mod confusion;
pub mod decoder;
pub mod lattice;
pub mod ngram;

pub use confusion::{ConfusionNetwork, Slot, SlotEntry};
pub use decoder::{
    decode, decode_scores, decode_with_scratch, score_all_frames, score_all_frames_into,
    score_all_frames_into_mode, viterbi, DecodeOutput, DecodeScratch, DecoderConfig, PhoneSegment,
};
pub use lattice::{log_add, Edge, Lattice};
pub use ngram::{expected_ngram_counts_cn, expected_ngram_counts_lattice, NgramCounts};
