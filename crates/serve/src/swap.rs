//! Generation-tagged atomic scorer hot swap.
//!
//! A [`ScorerHandle`] is the indirection the engine scores through when a
//! model may be replaced at runtime. The handle holds one
//! [`VersionedScorer`] — scorer + monotonically increasing generation +
//! the checksum of the bundle it was built from — behind an `RwLock`
//! around an `Arc`, so:
//!
//! - **swap is atomic**: readers clone the `Arc` under a read lock (a
//!   pointer copy), the swapper replaces it under the write lock. A worker
//!   loads the versioned scorer **once per request**, so every utterance
//!   is scored by exactly one generation and its reply carries that
//!   generation.
//! - **generations are monotonic**: every install (including a rollback)
//!   gets `previous + 1`. A rollback is *not* a generation decrement; it
//!   installs the parent's scorer and checksum under a fresh generation,
//!   so clients can always detect a model change by watching the number
//!   go up.
//! - **rollback restores the parent bit-identically**: the handle keeps
//!   nothing but the `Arc` it was given, so rolling back to a retained
//!   [`VersionedScorer`] serves the exact object (and checksum) that was
//!   serving before the bad candidate.

use crate::system::Scorer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One installed model: the scorer, its generation, and the CRC-32 of the
/// sealed bundle it was decoded from (0 for scorers with no bundle, e.g.
/// test mocks).
pub struct VersionedScorer {
    pub generation: u64,
    pub checksum: u32,
    pub scorer: Arc<dyn Scorer>,
}

/// The swap point shared by the engine's workers and the adaptation
/// worker.
pub struct ScorerHandle {
    current: RwLock<Arc<VersionedScorer>>,
    swaps: AtomicU64,
    rollbacks: AtomicU64,
}

impl ScorerHandle {
    /// Wrap a scorer at generation 0.
    pub fn new(scorer: Arc<dyn Scorer>, checksum: u32) -> ScorerHandle {
        ScorerHandle {
            current: RwLock::new(Arc::new(VersionedScorer {
                generation: 0,
                checksum,
                scorer,
            })),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }

    /// The currently installed scorer. Callers that score more than one
    /// utterance against "the same model" must call this once and reuse
    /// the returned `Arc`.
    pub fn current(&self) -> Arc<VersionedScorer> {
        Arc::clone(&self.current.read().expect("scorer lock poisoned"))
    }

    /// Current generation (equals `current().generation`).
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Checksum of the currently installed bundle.
    pub fn checksum(&self) -> u32 {
        self.current().checksum
    }

    /// Installs performed (swaps + rollbacks).
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// How many installs were rollbacks.
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Install a new scorer at `current generation + 1`; returns the new
    /// generation. In-flight requests keep scoring against the `Arc` they
    /// already cloned.
    pub fn swap(&self, scorer: Arc<dyn Scorer>, checksum: u32) -> u64 {
        self.install(scorer, checksum, false)
    }

    /// Reinstall a previously retained [`VersionedScorer`]'s scorer and
    /// checksum under a fresh (still increasing) generation; returns it.
    pub fn rollback_to(&self, parent: &VersionedScorer) -> u64 {
        self.install(Arc::clone(&parent.scorer), parent.checksum, true)
    }

    fn install(&self, scorer: Arc<dyn Scorer>, checksum: u32, is_rollback: bool) -> u64 {
        let mut cur = self.current.write().expect("scorer lock poisoned");
        let generation = cur.generation + 1;
        *cur = Arc::new(VersionedScorer {
            generation,
            checksum,
            scorer,
        });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        if is_rollback {
            self.rollbacks.fetch_add(1, Ordering::Relaxed);
        }
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ScoreDetail;
    use lre_lattice::DecodeScratch;

    struct Marker(f32);
    impl Scorer for Marker {
        fn score_utt(&self, samples: &[f32], _scratch: &mut DecodeScratch) -> ScoreDetail {
            ScoreDetail::from_fused(samples, vec![self.0])
        }
    }

    #[test]
    fn swap_bumps_generation_and_serves_the_new_scorer() {
        let h = ScorerHandle::new(Arc::new(Marker(0.0)), 0xAAAA);
        assert_eq!(h.generation(), 0);
        assert_eq!(h.checksum(), 0xAAAA);
        assert_eq!(h.swap(Arc::new(Marker(1.0)), 0xBBBB), 1);
        let cur = h.current();
        assert_eq!(cur.generation, 1);
        assert_eq!(cur.checksum, 0xBBBB);
        let mut scratch = DecodeScratch::new();
        assert_eq!(cur.scorer.score_utt(&[], &mut scratch).fused, vec![1.0]);
        assert_eq!(h.swap_count(), 1);
        assert_eq!(h.rollback_count(), 0);
    }

    #[test]
    fn rollback_restores_checksum_under_a_fresh_generation() {
        let h = ScorerHandle::new(Arc::new(Marker(0.0)), 0xAAAA);
        let parent = h.current();
        h.swap(Arc::new(Marker(1.0)), 0xBBBB);
        assert_eq!(h.rollback_to(&parent), 2);
        assert_eq!(h.checksum(), 0xAAAA);
        assert_eq!(h.generation(), 2); // monotonic, never back to 0
        assert_eq!(h.rollback_count(), 1);
        // The restored scorer is the parent's exact object.
        assert!(Arc::ptr_eq(&h.current().scorer, &parent.scorer));
    }

    #[test]
    fn a_held_scorer_is_unaffected_by_a_swap() {
        let h = ScorerHandle::new(Arc::new(Marker(7.0)), 0);
        let pinned = h.current();
        h.swap(Arc::new(Marker(8.0)), 0);
        let mut scratch = DecodeScratch::new();
        assert_eq!(pinned.scorer.score_utt(&[], &mut scratch).fused, vec![7.0]);
        assert_eq!(pinned.generation, 0);
    }
}
