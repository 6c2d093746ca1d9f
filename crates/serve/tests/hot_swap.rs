//! Concurrent hot-swap stress suite.
//!
//! The swap seam's contracts, exercised against the live engine under
//! thread contention rather than in single-threaded unit tests:
//!
//! - **no torn replies**: every scored utterance was produced by exactly
//!   the model whose generation its reply carries, even while a swapper
//!   thread replaces the model as fast as it can;
//! - **a swap landing while a job is inside the scorer does not leak into
//!   that reply**: it keeps the generation and bits of the model its
//!   worker resolved at pick-up, and the next job sees the new one;
//! - **generations are monotonic and unique** under concurrent installs;
//! - **rollback restores the parent bit-identically**: same scorer
//!   object, same checksum, same output bits, under a fresh generation.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_serve::{
    Engine, EngineConfig, FanOut, Outcome, ScoreDetail, ScoredUtt, Scorer, ScorerHandle, WorkingSet,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A scorer that identifies itself: every LLR vector is `[marker]`. When
/// the marker equals the generation the scorer was installed at, a reply
/// whose `llrs[0] != generation as f32` is direct evidence of a torn
/// model/generation pair.
struct Marker(f32);

impl Scorer for Marker {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        Ok(ScoreDetail::from_fused(samples, vec![self.0]))
    }
}

/// Submit, wait, and insist on a scored outcome.
fn scored(engine: &Engine, samples: Vec<f32>) -> ScoredUtt {
    match engine.score_blocking(samples) {
        Ok(Outcome::Scored(s)) => s,
        other => panic!("expected a scored outcome, got {other:?}"),
    }
}

/// A marker whose calls block at a gate until the test opens it, and which
/// counts how many calls have entered — so "the worker is inside the
/// scorer" is a deterministic state, not a sleep. With `tasks > 0` it
/// splits every utterance into that many gated tasks through the fan-out
/// seam, each yielding the marker.
struct GatedMarker {
    marker: f32,
    tasks: usize,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn enter(&self) {
        self.entered.fetch_add(1, Ordering::AcqRel);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

impl GatedMarker {
    fn new(marker: f32, tasks: usize) -> GatedMarker {
        GatedMarker {
            marker,
            tasks,
            gate: Arc::default(),
        }
    }

    fn release(&self) {
        *self.gate.open.lock().unwrap() = true;
        self.gate.cv.notify_all();
    }

    fn wait_entered(&self, calls: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.gate.entered.load(Ordering::Acquire) < calls {
            assert!(
                std::time::Instant::now() < deadline,
                "fewer than {calls} calls reached the gated scorer"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Scorer for GatedMarker {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        self.gate.enter();
        Ok(ScoreDetail::from_fused(
            samples,
            vec![self.marker; self.tasks.max(1)],
        ))
    }

    fn fan_out(&self, _samples: &[f32]) -> Option<Arc<dyn FanOut>> {
        (self.tasks > 0).then(|| {
            Arc::new(GatedTasks {
                marker: self.marker,
                gate: Arc::clone(&self.gate),
                slots: Mutex::new(vec![None; self.tasks]),
            }) as _
        })
    }
}

/// One utterance of a splitting [`GatedMarker`]: it carries the marker of
/// the scorer that split it, whatever is installed when its tasks run.
struct GatedTasks {
    marker: f32,
    gate: Arc<Gate>,
    slots: Mutex<Vec<Option<f32>>>,
}

impl FanOut for GatedTasks {
    fn num_tasks(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    fn run_task(&self, task: usize, _ws: &mut WorkingSet) {
        self.gate.enter();
        self.slots.lock().unwrap()[task] = Some(self.marker);
    }

    fn finish(&self) -> Result<ScoreDetail, ArtifactError> {
        let fused = self
            .slots
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .copied()
            .collect();
        Ok(ScoreDetail::from_fused(&[], fused))
    }
}

#[test]
fn concurrent_swaps_never_tear_model_from_generation() {
    // Install Marker(k) at swap k from a single swapper thread, so the
    // invariant "llrs[0] == generation" holds for every model ever
    // installed. Any interleaving that pairs one model's output with
    // another install's generation breaks it.
    const SWAPS: u64 = 60;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 80;

    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(0.0)), 0));
    let engine = Arc::new(Engine::start_adaptive(
        EngineConfig {
            workers: 3,
            queue_capacity: 256,
            unknown_threshold: None,
        },
        Arc::clone(&handle),
        None,
    ));

    let swapper = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            for k in 1..=SWAPS {
                let got = handle.swap(Arc::new(Marker(k as f32)), k as u32);
                assert_eq!(got, k, "single swapper sees consecutive generations");
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                for i in 0..PER_CLIENT {
                    let s = scored(&engine, vec![i as f32]);
                    assert_eq!(
                        s.llrs[0], s.generation as f32,
                        "reply pairs generation {} with another model's output",
                        s.generation
                    );
                    // Sequential blocking requests from one client can
                    // never observe the generation moving backwards.
                    assert!(
                        s.generation >= last_gen,
                        "generation went backwards: {} after {}",
                        s.generation,
                        last_gen
                    );
                    last_gen = s.generation;
                }
            })
        })
        .collect();

    for c in clients {
        c.join().expect("client thread");
    }
    swapper.join().expect("swapper thread");

    assert_eq!(handle.generation(), SWAPS);
    let stats = engine.stats();
    assert_eq!(stats.swaps, SWAPS);
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    engine.shutdown();
}

#[test]
fn a_swap_landing_while_a_job_is_inside_the_scorer_does_not_change_that_reply() {
    // A gate parks every worker inside the first job's scorer call. A swap
    // lands while that job is in flight: its reply must still carry the
    // pre-swap model's bits and generation, and the job queued behind it
    // must see the new model. `(tasks, workers)`: a scorer that does not
    // split; one that splits six ways, the swap landing between the
    // owner's first task and its second; and the same with a helper, the
    // swap landing with two tasks held and four not yet claimed.
    for (tasks, workers) in [(0, 1), (6, 1), (6, 2)] {
        let gate = Arc::new(GatedMarker::new(0.0, tasks));
        let handle = Arc::new(ScorerHandle::new(Arc::clone(&gate) as _, 0xC0));
        let engine = Engine::start_adaptive(
            EngineConfig {
                workers,
                queue_capacity: 64,
                unknown_threshold: None,
            },
            Arc::clone(&handle),
            None,
        );

        let in_flight = engine.submit(vec![0.0]).expect("submit");
        gate.wait_entered(workers);

        // The job is inside the scorer: replace the model out from under it.
        assert_eq!(handle.swap(Arc::new(Marker(1.0)), 0xC1), 1);
        let queued_behind = engine.submit(vec![9.0]).expect("submit");
        gate.release();

        match in_flight.recv().expect("outcome") {
            Outcome::Scored(s) => {
                assert_eq!(s.generation, 0, "in-flight job leaked the new generation");
                assert_eq!(
                    s.llrs,
                    vec![0.0; tasks.max(1)],
                    "a task was scored by the swapped-in model"
                );
            }
            other => panic!("in-flight job unresolved: {other:?}"),
        }
        match queued_behind.recv().expect("outcome") {
            Outcome::Scored(s) => {
                assert_eq!(s.generation, 1);
                assert_eq!(s.llrs, vec![1.0]);
            }
            other => panic!("queued job unresolved: {other:?}"),
        }
        engine.shutdown();
    }
}

#[test]
fn concurrent_installs_get_unique_monotonic_generations() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(0.0)), 0));

    let installers: Vec<_> = (0..THREADS)
        .map(|t| {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_THREAD as usize);
                let mut prev = 0u64;
                for k in 0..PER_THREAD {
                    let g = handle.swap(Arc::new(Marker((t * PER_THREAD + k) as f32)), t as u32);
                    assert!(g > prev, "install returned a non-increasing generation");
                    prev = g;
                    got.push(g);
                }
                got
            })
        })
        .collect();

    let mut all: Vec<u64> = installers
        .into_iter()
        .flat_map(|h| h.join().expect("installer thread"))
        .collect();
    all.sort_unstable();
    let expected: Vec<u64> = (1..=THREADS * PER_THREAD).collect();
    assert_eq!(all, expected, "generations must be unique and gapless");
    assert_eq!(handle.generation(), THREADS * PER_THREAD);
    assert_eq!(handle.swap_count(), THREADS * PER_THREAD);
}

#[test]
fn rollback_restores_the_parent_scorer_and_checksum_bit_identically() {
    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(0.5)), 0xDEAD));
    let engine = Engine::start_adaptive(
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            unknown_threshold: None,
        },
        Arc::clone(&handle),
        None,
    );

    let before = scored(&engine, vec![1.0]);
    assert_eq!(before.generation, 0);
    let parent = handle.current();

    // Promote a candidate, then roll it back.
    handle.swap(Arc::new(Marker(9.0)), 0xBEEF);
    let during = scored(&engine, vec![1.0]);
    assert_eq!(during.generation, 1);
    assert_eq!(during.llrs, vec![9.0]);
    assert_eq!(handle.checksum(), 0xBEEF);

    let gen = handle.rollback_to(&parent);
    assert_eq!(gen, 2, "rollback is a fresh generation, not a decrement");
    assert_eq!(handle.checksum(), 0xDEAD, "parent checksum restored");
    assert!(
        Arc::ptr_eq(&handle.current().scorer, &parent.scorer),
        "rollback must reinstall the parent's exact scorer object"
    );

    let after = scored(&engine, vec![1.0]);
    assert_eq!(after.generation, 2);
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&after.llrs),
        bits(&before.llrs),
        "post-rollback scores must be bit-identical to the parent's"
    );

    let stats = engine.stats();
    assert_eq!(stats.swaps, 2);
    assert_eq!(stats.rollbacks, 1);
    assert_eq!(stats.generation, 2);
    engine.shutdown();
}
