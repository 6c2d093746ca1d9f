//! Online DBA adaptation for the served PPRVSM system.
//!
//! The offline pipeline runs Design-pattern Boosting Adaptation (DBA) as a
//! batch job: vote over a test pool with Eq. 13, select a pseudo-labelled
//! `Tr_DBA`, retrain the one-vs-rest VSMs, rescore. This crate closes the
//! loop at serving time:
//!
//! - [`votelog`]: a bounded, deduplicating [`VoteLog`] the serving engine
//!   tees every scored utterance into (fused row, per-subsystem OvR rows,
//!   scaled supervectors), freezable as a CRC-framed `VLOG` artifact;
//! - [`worker`]: the [`AdaptController`] — one cycle drains the log,
//!   applies the *same* Eq. 13 selection code as `lre_dba::run_dba`,
//!   retrains with the bundle's frozen SVM recipe, shadow-scores the
//!   candidate on a held-back [`lre_dba::GuardSet`], and either promotes
//!   it through an atomic generation-tagged hot swap or rejects it with
//!   serving state untouched. A displaced model is retained so
//!   [`AdaptController::rollback`] restores it bit-identically. The
//!   [`AdaptWorker`] runs cycles on a cadence in the background.
//!
//! The `lre-adaptd` binary wires all of it to a TCP serving socket: an
//! adapting server whose clients can watch the model generation move.
//!
//! **Bit-identity contract.** When utterances arrive duration-major (all
//! 30 s, then 10 s, then 3 s — each in test-set order), the vote log's
//! per-duration arrival order equals the offline test-pool order, and an
//! adaptation cycle's retrained VSMs — hence its served fused LLRs — are
//! bit-identical to an offline `run_dba` (M1, same `V`) over the same
//! selected utterances. `tests/online_adaptation.rs` enforces this.

pub mod worker;

/// The vote log lives in `lre-serve` since the fleet tier (PR 7): a plain
/// `lre-serve --fleet` replica buffers votes for a router-driven fleet
/// cycle without depending on this crate. Re-exported here so existing
/// adaptation code keeps one import path.
pub use lre_serve::votelog;
pub use lre_serve::{VoteLog, VoteLogSnapshot, VoteRecord};
pub use worker::{
    boost_round, bundle_checksum, AdaptConfig, AdaptController, AdaptCounters, AdaptWorker,
    CandidateBundle, GuardArgs, RoundOutcome,
};
