//! `lre-wal`: durable, crash-safe adaptation state.
//!
//! The serve→adapt loop is stateful in two ways that matter after a
//! crash: the buffered vote window (the utterances the next boost round
//! would select from) and the history of served model generations (what
//! a rollback can restore). This crate makes both durable without
//! knowing anything about votes or bundles — it stores *opaque sealed
//! `lre-artifact` containers*, which keeps it a leaf below `lre-serve`:
//!
//! * [`Wal`] — a write-ahead log of sealed records in one append-only
//!   file: a header carrying the first record's sequence number, then
//!   per-record CRC framing (each record is its own container), fsync
//!   batching with a configurable durability interval, a drain that
//!   durably starts the file over, and torn-tail-tolerant replay on
//!   restart.
//! * [`LineageStore`] — the generation chain: every served bundle's
//!   pristine sealed bytes keyed by generation number, with parent
//!   checksums validated on append and on open, retention/GC by count,
//!   and checksum-verified loads so `rollback --to <gen>` restores
//!   `f32::to_bits`-identical scores.
//!
//! Telemetry rides [`lre_obs`]: `wal.*` counters and latency histograms
//! plus a flight-recorder event per replay ([`WalObs`], which every
//! [`Wal`] is opened with).

pub mod dir;
pub mod lineage;
pub mod log;

pub use lineage::{generation_name, LineageEntry, LineageError, LineageStore};
pub use log::{Wal, WalObs, WalOptions, WalReplay, WalStatus, LOG_FILE};
