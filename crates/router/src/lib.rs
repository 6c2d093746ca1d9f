//! `lre-router`: the sharded multi-replica serving tier.
//!
//! A router sits in front of N `lre-serve --fleet` replicas and gives
//! clients one address that behaves like a single, larger server:
//!
//! - [`router`]: the front tier — pipelined client
//!   connections fanned over the fleet, request ids and deadlines
//!   preserved, replies relayed out of order and bit-identical to what
//!   the replica produced. Routing is least-inflight by default, or
//!   consistent-hash ([`ring`]) when replica affinity matters;
//! - [`backend`]: one routed replica — its pipelined data connection,
//!   the pending-reply map, typed fail-fast when the replica dies
//!   mid-flight, and ejection / doubling-backoff / re-admission health;
//! - [`fleet`]: fleet-aware adaptation — every replica's vote log
//!   drained into one merged boosting round, promoted via a two-phase
//!   (stage-all, then flip-all) rollout with all-or-none semantics and
//!   one-deep bit-identical rollback.

pub mod backend;
pub mod fleet;
pub mod ring;
pub mod router;

pub use backend::{probe_ping, probe_round_trip, Backend, ForwardError, Pending};
pub use fleet::{rollback_backends, two_phase_promote, FleetAdapter};
pub use ring::{hash_bytes, mix64, HashRing};
pub use router::{least_inflight, Policy, Router, RouterConfig, RouterObs};
