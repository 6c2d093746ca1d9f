//! Serving layer for the PPRVSM system: train once, score forever.
//!
//! The table binaries rebuild the whole pipeline — corpus, acoustic models,
//! decoding, VSMs, fusion — on every invocation, which is the right shape
//! for reproducing the paper's tables but the wrong one for using the
//! system. This crate adds the missing halves:
//!
//! - [`bundle`]: a [`SystemBundle`] packs everything needed to score an
//!   utterance (six front-ends, their one-vs-rest VSMs, and the
//!   per-duration LDA-MMI fusion backends) into one checksummed
//!   `lre-artifact` container, with the bit-identity contract that a
//!   reloaded bundle produces exactly the scores of the experiment it was
//!   saved from;
//! - [`system`]: a [`ScoringSystem`] reconstructed from a bundle, scoring
//!   raw audio samples into calibrated per-language detection LLRs. The
//!   [`system::Scorer`] trait is the seam the engine scores through, so
//!   tests can drive the full serving stack with a mock;
//! - [`queue`] + [`engine`]: the inference engine — a bounded MPMC request
//!   queue shared by every connection and popped, one request at a time,
//!   by a pool of workers, an idle one of which helps a busy one score its
//!   utterance ([`system::FanOut`]); one reusable [`system::WorkingSet`]
//!   per worker, explicit load shedding when the queue is full, and
//!   per-request deadlines shed with a typed status;
//! - [`swap`]: a generation-tagged [`swap::ScorerHandle`] the engine
//!   scores through, so the online-adaptation worker (`lre-adapt`) can
//!   atomically hot-swap a freshly boosted bundle — or roll it back —
//!   without a reply ever pairing one model's bits with another's
//!   generation;
//! - [`protocol`] + [`server`] + [`client`]: a length-prefixed TCP protocol
//!   over `std::net`, consistent with the workspace's no-external-deps
//!   policy, described by one tag table. Score requests carry
//!   client-chosen ids and are pipelined per connection
//!   ([`client::Client`]);
//! - [`args`]: the flag parser the three server binaries share.
//!
//! ## Quickstart
//!
//! ```text
//! cargo run -p lre-serve --release --bin lre-train-bundle -- \
//!     --scale smoke --seed 42 --out target/smoke.bundle
//! cargo run -p lre-serve --release --bin lre-serve -- \
//!     --bundle target/smoke.bundle --addr 127.0.0.1:7700
//! cargo run -p lre-serve --release --bin lre-client -- \
//!     --addr 127.0.0.1:7700 --utts 20 --inflight 8 --shutdown
//! ```

pub mod args;
pub mod bundle;
pub mod client;
pub mod durability;
pub mod engine;
pub mod fuzz;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod rollout;
pub mod server;
pub mod swap;
pub mod system;
pub mod votelog;

pub use bundle::{Lineage, SubsystemBundle, SystemBundle};
pub use client::{Client, PipelinedClient, ScoreReply};
pub use durability::{wal_status_info, DurabilityControl};
pub use engine::{decision, Engine, EngineConfig, Outcome, ScoredUtt, StatsSnapshot, SubmitError};
pub use obs::{ServeObs, DEFAULT_FLIGHT_CAPACITY};
pub use protocol::{
    read_frame, write_frame, AdaptReport, DrainReply, FleetStats, PingReport, ReplicaStat, Request,
    WalStatusInfo, ADAPT_FAILED, ADAPT_INSUFFICIENT_DATA, ADAPT_PROMOTED, ADAPT_REJECTED_GUARD,
};
pub use queue::BoundedQueue;
pub use rollout::{FleetControl, FleetReplica};
pub use server::{mint_trace_id, AdaptControl, Server, ServerConfig, ServerHooks};
pub use swap::{ScorerHandle, VersionedScorer};
pub use system::{
    sample_digest, FanOut, ScoreDetail, ScoreTap, Scorer, ScoringSystem, StageDone, WorkingSet,
};
pub use votelog::{vote_wal_options, VoteLog, VoteLogSnapshot, VoteRecord, VoteRecovery};
