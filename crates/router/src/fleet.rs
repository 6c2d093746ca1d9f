//! Fleet-aware adaptation: drain every replica's vote log, boost one
//! candidate from the merged pool, and promote it with a two-phase
//! rollout so the fleet's serving generation flips all-or-none.
//!
//! ## Why two phases
//!
//! Staging is the expensive, fallible half (ship the sealed bytes,
//! decode, build the scorer); a replica that answers `STATUS_OK` to a
//! stage has promised the commit cannot fail on decode. Commit is a pure
//! pointer swap. So the coordinator stages everywhere first, and only when
//! *every* replica holds a validated candidate does it flip them — any
//! stage refusal aborts the round with the staged copies discarded and the
//! fleet still serving the baseline. A commit that fails anyway (a replica dying between
//! phases) triggers the one-deep rollback on every replica that already
//! flipped, restoring the baseline bit-identically.
//!
//! A replica that is ejected while a round runs simply misses the
//! promotion and re-admits on its old generation; mixed-generation
//! fleets are permitted and observable through the fleet stats
//! breakdown.

use crate::backend::Backend;
use lre_adapt::{boost_round, AdaptConfig};
use lre_artifact::ArtifactRead;
use lre_dba::GuardSet;
use lre_obs::{FlightRecorder, EV_ROLLBACK, EV_SWAP};
use lre_serve::protocol::{
    AdaptReport, CommitAck, RollbackAck, StageAck, ADAPT_FAILED, ADAPT_INSUFFICIENT_DATA,
    ADAPT_PROMOTED,
};
use lre_serve::{Client, SystemBundle, VoteLogSnapshot, VoteRecord};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

struct FleetState {
    /// Sealed baseline the next boosting round trains from. Advances on
    /// every fleet promotion, so successive rounds stack.
    parent_bytes: Vec<u8>,
    /// One-deep lineage for fleet rollback, mirroring each replica's own
    /// one-deep previous slot.
    previous: Option<Vec<u8>>,
}

/// Coordinates adaptation across the router's replicas. One instance per
/// router; cycles are serialized by the internal lock.
pub struct FleetAdapter {
    backends: Vec<Arc<Backend>>,
    guard: GuardSet,
    cfg: AdaptConfig,
    state: Mutex<FleetState>,
    /// Guard verdicts (with EER/min-Cavg deltas), fleet promotions and
    /// rollbacks become structured events here.
    flight: Arc<FlightRecorder>,
}

fn failed(drained: u32) -> AdaptReport {
    AdaptReport {
        outcome: ADAPT_FAILED,
        generation: 0,
        selected: 0,
        drained,
    }
}

impl FleetAdapter {
    /// `parent_bytes` is the sealed bundle every replica was started
    /// from; it is validated by decoding once up front. Cycle verdicts,
    /// promotions and rollbacks are recorded into `flight`.
    pub fn new(
        backends: Vec<Arc<Backend>>,
        guard: GuardSet,
        parent_bytes: Vec<u8>,
        cfg: AdaptConfig,
        flight: Arc<FlightRecorder>,
    ) -> Result<FleetAdapter, lre_artifact::ArtifactError> {
        SystemBundle::from_artifact_bytes(&parent_bytes)?;
        Ok(FleetAdapter {
            backends,
            guard,
            cfg,
            state: Mutex::new(FleetState {
                parent_bytes,
                previous: None,
            }),
            flight,
        })
    }

    fn healthy(&self) -> Vec<Arc<Backend>> {
        self.backends
            .iter()
            .filter(|b| b.is_healthy())
            .cloned()
            .collect()
    }

    /// Run one fleet adaptation cycle: peek → drain → boost → two-phase
    /// promote. Returns the same report shape a single adapting server
    /// does, with `generation` the lowest committed replica generation.
    pub fn cycle(&self) -> AdaptReport {
        let state = &mut *self.state.lock().expect("fleet state poisoned");
        let fleet = self.healthy();
        if fleet.is_empty() {
            return failed(0);
        }

        // Peek first: if the fleet-wide total is below the floor, no log
        // is touched (the same all-or-nothing contract a single replica's
        // drain gives, lifted to the fleet).
        let mut buffered = 0u64;
        for b in &fleet {
            if let Ok(Ok(reply)) = Client::connect(&b.addr).map(|mut c| c.drain_votes(true, 0)) {
                buffered += u64::from(reply.buffered);
            }
        }
        if (buffered as usize) < self.cfg.min_utts {
            return AdaptReport {
                outcome: ADAPT_INSUFFICIENT_DATA,
                generation: 0,
                selected: 0,
                drained: buffered as u32,
            };
        }

        // Drain and merge. Replicas may have scored the same utterance
        // (client retries across backends), so records are deduplicated
        // by content digest exactly like a single vote log would.
        let mut records: Vec<VoteRecord> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for b in &fleet {
            let sealed = match Client::connect(&b.addr).map(|mut c| c.drain_votes(false, 1)) {
                Ok(Ok(reply)) => reply.sealed,
                _ => None,
            };
            let Some(sealed) = sealed else { continue };
            let Ok(snap) = VoteLogSnapshot::from_artifact_bytes(&sealed) else {
                continue;
            };
            for rec in snap.records {
                if seen.insert(rec.digest) {
                    records.push(rec);
                }
            }
        }
        let drained = records.len() as u32;
        if records.is_empty() {
            return AdaptReport {
                outcome: ADAPT_INSUFFICIENT_DATA,
                generation: 0,
                selected: 0,
                drained: 0,
            };
        }

        let candidate = match boost_round(&state.parent_bytes, &records, &self.guard, &self.cfg)
            .map(|round| round.judged("fleet guard", 0, &self.flight))
        {
            Ok(Ok(candidate)) => candidate,
            Ok(Err(report)) => return report,
            Err(_) => return failed(drained),
        };

        match two_phase_promote(&fleet, &candidate.bytes, candidate.checksum) {
            Some(generation) => {
                self.flight.record(
                    EV_SWAP,
                    "fleet promote",
                    generation,
                    u64::from(candidate.checksum),
                    candidate.eer_delta,
                    candidate.cavg_delta,
                );
                state.previous = Some(std::mem::replace(&mut state.parent_bytes, candidate.bytes));
                AdaptReport {
                    outcome: ADAPT_PROMOTED,
                    generation,
                    selected: candidate.selected,
                    drained: candidate.drained,
                }
            }
            None => failed(candidate.drained),
        }
    }

    /// Fleet-wide rollback: every healthy replica reinstalls its
    /// previous generation. `rolled` only when every one did; the
    /// adapter's own lineage rewinds with them so the next boosting round
    /// trains from the restored baseline.
    pub fn rollback(&self) -> RollbackAck {
        let state = &mut *self.state.lock().expect("fleet state poisoned");
        let fleet = self.healthy();
        let ack = rollback_backends(&fleet);
        if ack.rolled {
            self.flight
                .record(EV_ROLLBACK, "fleet rollback", ack.generation, 0, 0.0, 0.0);
            if let Some(prev) = state.previous.take() {
                state.parent_bytes = prev;
            }
        }
        ack
    }
}

/// The two-phase flip, usable against any replica set (the adapter's
/// cycle and the fault-injection tests share this exact path).
/// `Some(min committed generation)` when every replica committed; `None`
/// after any failure, with staged copies aborted and committed replicas
/// rolled back so the fleet is left uniformly on the baseline.
pub fn two_phase_promote(fleet: &[Arc<Backend>], sealed: &[u8], checksum: u32) -> Option<u64> {
    if fleet.is_empty() {
        return None;
    }
    // Phase one: stage everywhere. Every OK is a validated promise that
    // the commit cannot fail on decode.
    for (i, b) in fleet.iter().enumerate() {
        let staged = Client::connect(&b.addr)
            .and_then(|mut c| c.stage_bundle(sealed))
            .ok()
            .and_then(|r| r.ok());
        if staged != Some(StageAck { checksum }) {
            for prev in &fleet[..i] {
                if let Ok(mut c) = Client::connect(&prev.addr) {
                    let _ = c.abort_staged();
                }
            }
            return None;
        }
    }
    // Phase two: flip. A failure here means a replica died between the
    // phases — undo the flip everywhere it landed and discard the stage
    // everywhere it did not.
    let mut generations: Vec<u64> = Vec::with_capacity(fleet.len());
    for (i, b) in fleet.iter().enumerate() {
        let committed = Client::connect(&b.addr)
            .and_then(|mut c| c.commit_staged())
            .ok()
            .and_then(|r| r.ok());
        match committed {
            Some(CommitAck {
                generation,
                checksum: ck,
            }) if ck == checksum => generations.push(generation),
            _ => {
                for prev in &fleet[..i] {
                    if let Ok(mut c) = Client::connect(&prev.addr) {
                        let _ = c.rollback();
                    }
                }
                for rest in &fleet[i + 1..] {
                    if let Ok(mut c) = Client::connect(&rest.addr) {
                        let _ = c.abort_staged();
                    }
                }
                return None;
            }
        }
    }
    generations.into_iter().min()
}

/// Roll every replica in `fleet` back one generation. `rolled` only when
/// every one reported a successful rollback; `generation` is the lowest
/// serving generation among those that did.
pub fn rollback_backends(fleet: &[Arc<Backend>]) -> RollbackAck {
    let mut all = !fleet.is_empty();
    let mut generation = None::<u64>;
    for b in fleet {
        match Client::connect(&b.addr).and_then(|mut c| c.rollback()) {
            Ok(ack) if ack.rolled => {
                generation = Some(generation.map_or(ack.generation, |g| g.min(ack.generation)))
            }
            _ => all = false,
        }
    }
    RollbackAck {
        rolled: all,
        generation: generation.unwrap_or(0),
    }
}
