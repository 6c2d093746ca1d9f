//! `lre-router`: the sharded multi-replica serving tier.
//!
//! A router sits in front of N `lre-serve --fleet` replicas and gives
//! clients one address that behaves like a single, larger server:
//!
//! - [`router`]: the front tier — pipelined client
//!   connections fanned over the fleet, request ids and deadlines
//!   preserved, replies relayed out of order and bit-identical to what
//!   the replica produced. Each request goes to the healthy replica with
//!   the fewest requests in flight ([`least_inflight`]);
//! - [`backend`]: one routed replica — its pipelined data connection,
//!   the pending-reply map, typed fail-fast when the replica dies
//!   mid-flight, and ejection / doubling-backoff / re-admission health.
//!   A `Backend` is also the remote `lre_serve::FleetControl` replica, so
//!   with `--bundle` and `--guard` the router runs the one adaptation
//!   controller (`lre_adapt::AdaptController`) over its fleet: every
//!   replica's vote log drained into one merged boosting round, promoted
//!   via a two-phase (stage-all, then flip-all) rollout with all-or-none
//!   semantics and one-deep bit-identical rollback.

pub mod backend;
pub mod router;

pub use backend::{probe_round_trip, Backend, ForwardFailed, Pending};
pub use router::{least_inflight, Router, RouterConfig, RouterObs};
