//! # lre-trafficsim — deterministic scenario simulation for the serving tier
//!
//! A traffic simulator that drives a live `lre-serve` instance, an
//! adapting server, or the full router + replica fleet over real TCP with
//! the traffic shapes production sees: diurnal load curves, bursts,
//! hostile clients drawn from the malformed-input fuzz corpus, deadline
//! mixes, channel/SNR drift, code-switching utterances, and open-set
//! segments in languages the system has no detector for.
//!
//! The design splits a run into three strictly separated stages:
//!
//! 1. **Plan** ([`plan`]): a [`CommandStream`] — every utterance (down to
//!    its render seed), every hostile connection, every replica kill and
//!    adaptation trigger, pinned to ticks. Generation
//!    ([`scenario::generate`]) is a pure function of (scenario, seed):
//!    same seed, byte-identical stream.
//! 2. **Drive** ([`driver`]): start the scenario's processes
//!    ([`topology`]), replay the stream against them, scraping stats and
//!    flight-recorder telemetry between ticks, then shut them down.
//!    Nothing observed ever feeds back into the plan.
//! 3. **Judge**: fold the tallies into the scenario's [`InvariantSpec`] —
//!    shed-rate bounds, p99 ceilings, zero torn replies, typed-failure-only
//!    during replica kills, adaptation and rollback acks, bit-identical
//!    replies, open-set unknowns actually flagged, a clean exit.
//!
//! Because the plan never depends on live behavior, every run can export
//! its stream to a sealed artifact and any violation reproduces from
//! `--replay <file>` alone — no scenario name, seed, or flags needed.

pub mod driver;
pub mod plan;
pub mod scenario;
pub mod topology;

pub use driver::{run, RunReport, SimConfig, SIM_CORPUS_SEED};
pub use plan::{CommandStream, SimCommand, UttPlan, STREAM_KIND, STREAM_VERSION};
pub use scenario::{
    builtin_scenarios, by_name, generate, DriftPlan, Expect, InvariantSpec, ScenarioSpec,
};
pub use topology::Deployment;
