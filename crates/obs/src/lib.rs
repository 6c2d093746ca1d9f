//! Telemetry core for the serving stack: histograms, counters, gauges,
//! distribution sketches, a flight recorder, and per-request trace spans.
//!
//! Everything here is built for the hot path of a scoring engine whose
//! unit of work is hundreds of microseconds: recording a sample is a
//! handful of relaxed atomic operations on pre-registered series, with no
//! allocation and no lock. The only locks in the crate guard cold paths —
//! series registration, snapshotting, the flight-recorder ring, and the
//! per-language Welford sketches (one short mutex per scored utterance).
//!
//! - [`hist`]: log-bucketed ([HDR]-style) histograms over `u64` samples
//!   with p50/p90/p99/p99.9 extraction. Sixteen sub-buckets per octave
//!   bound the relative quantile error at 1/16; values below 16 are exact.
//! - [`metrics`]: monotonic [`Counter`]s, [`Gauge`]s, Welford
//!   [`Sketch`]es (count/mean/M2 — the per-language fused-LLR drift
//!   signal), and the by-name [`Registry`] that snapshots them all
//!   without stopping the world.
//! - [`flight`]: a bounded ring of structured [`FlightEvent`]s (ejections,
//!   guard verdicts, swaps, sheds, deadline expiries) that is drainable
//!   over the wire and dumped to stderr on panic.
//! - [`span`]: stage constants and the [`TraceSpan`] a traced request
//!   accumulates as it moves queue → decode → supervector →
//!   score → reply.
//!
//! [HDR]: https://github.com/HdrHistogram/HdrHistogram
//!
//! The crate is deliberately free of any protocol or serving types: the
//! wire encodings for snapshots, spans, and events live with the protocol
//! (`lre-serve`), and this crate stays a leaf every layer — engine,
//! server, router, adaptation — can depend on.

pub mod flight;
pub mod hist;
pub mod metrics;
pub mod span;

pub use flight::{
    event_name, install_panic_dump, FlightEvent, FlightRecorder, EV_DEADLINE, EV_EJECT,
    EV_GUARD_ACCEPT, EV_GUARD_REJECT, EV_PANIC, EV_READMIT, EV_ROLLBACK, EV_SHED, EV_SWAP,
    EV_WAL_GC, EV_WAL_RECOVER,
};
pub use hist::{Histogram, HistogramSummary};
pub use metrics::{Counter, Gauge, MetricValue, Registry, Sketch, SketchSummary};
pub use span::{
    stage_name, StageTimes, TraceSpan, STAGE_DECODE, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE,
    STAGE_SUPERVECTOR,
};
