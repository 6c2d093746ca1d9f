//! Scheduling of one request's fan-out over the engine's own workers.
//!
//! A mock scorer implements the fan-out seam ([`Scorer::fan_out`]) with
//! tasks that log where they ran and block on named gates, so every
//! interleaving below is *forced*, never slept for:
//!
//! - help happens: two tasks of one request are inside the scorer at once,
//!   on different threads;
//! - a queued job beats an open offer, and the owner of that offer still
//!   finishes alone;
//! - no thread but the engine's `workers` ever runs a task;
//! - a lone worker publishes nothing;
//! - closing the queue under an open offer still resolves every reply;
//! - a task that panics on a helper fails its request, and only that.
//!
//! Anything that waits does so with a timeout that panics — inside the
//! engine that is a contained scorer panic, so a broken schedule shows up
//! as a `Failed` outcome or a `recv_timeout`, not as a hung test binary.

use lre_lattice::DecodeScratch;
use lre_obs::MetricValue;
use lre_serve::{
    Engine, EngineConfig, FanOut, Outcome, ScoreDetail, Scorer, ScorerHandle, ServeObs,
    SubmitError, WorkingSet,
};
use std::collections::HashSet;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

const TASKS: usize = 6;
const PATIENCE: Duration = Duration::from_secs(20);

/// One task start: which request (its first sample), which task, where.
#[derive(Clone, Copy, Debug)]
struct Started {
    request: u32,
    task: usize,
    thread: ThreadId,
    /// Whether `thread` is the one that called `fan_out` for this request.
    by_owner: bool,
}

/// Everything the tasks and the test tell each other: the start log and
/// the set of gates opened so far, under one lock and one condvar.
#[derive(Default)]
struct Board {
    state: Mutex<(Vec<Started>, HashSet<&'static str>)>,
    changed: Condvar,
}

impl Board {
    fn log(&self, started: Started) {
        self.state.lock().unwrap().0.push(started);
        self.changed.notify_all();
    }

    fn open(&self, gate: &'static str) {
        self.state.lock().unwrap().1.insert(gate);
        self.changed.notify_all();
    }

    /// Block until the log satisfies `ready`; returns the log as it then was.
    fn wait_for(&self, what: &str, ready: impl Fn(&[Started]) -> bool) -> Vec<Started> {
        let (state, timeout) = self
            .changed
            .wait_timeout_while(self.state.lock().unwrap(), PATIENCE, |s| !ready(&s.0))
            .unwrap();
        assert!(!timeout.timed_out(), "never happened: {what}");
        state.0.clone()
    }

    fn pass(&self, gate: &'static str) {
        let timeout = self
            .changed
            .wait_timeout_while(self.state.lock().unwrap(), PATIENCE, |s| {
                !s.1.contains(gate)
            })
            .unwrap()
            .1;
        assert!(!timeout.timed_out(), "gate {gate} never opened");
    }

    fn started(&self) -> Vec<Started> {
        self.state.lock().unwrap().0.clone()
    }
}

type Hook = Arc<dyn Fn(&Board, Started) + Send + Sync>;

/// Splits every utterance into [`TASKS`] tasks; task `i` yields LLR
/// `sum(samples) + i`, so a reply shows every task ran and was gathered in
/// task order. `hook` runs at the start of each task, after it is logged.
struct SplitScorer {
    board: Arc<Board>,
    hook: Hook,
}

fn llrs(samples: &[f32]) -> Vec<f32> {
    let sum: f32 = samples.iter().sum();
    (0..TASKS).map(|i| sum + i as f32).collect()
}

impl Scorer for SplitScorer {
    fn score_utt(&self, samples: &[f32], _scratch: &mut DecodeScratch) -> ScoreDetail {
        ScoreDetail::from_fused(samples, llrs(samples))
    }

    fn fan_out(&self, samples: &[f32]) -> Option<Arc<dyn FanOut>> {
        Some(Arc::new(SplitUtt {
            board: Arc::clone(&self.board),
            hook: Arc::clone(&self.hook),
            samples: samples.to_vec(),
            owner: std::thread::current().id(),
            slots: Mutex::new([None; TASKS]),
        }))
    }
}

struct SplitUtt {
    board: Arc<Board>,
    hook: Hook,
    samples: Vec<f32>,
    owner: ThreadId,
    slots: Mutex<[Option<f32>; TASKS]>,
}

impl FanOut for SplitUtt {
    fn num_tasks(&self) -> usize {
        TASKS
    }

    fn run_task(&self, task: usize, _ws: &mut WorkingSet) {
        let thread = std::thread::current().id();
        let started = Started {
            request: self.samples[0] as u32,
            task,
            thread,
            by_owner: thread == self.owner,
        };
        self.board.log(started);
        (self.hook)(&self.board, started);
        let sum: f32 = self.samples.iter().sum();
        let previous = self.slots.lock().unwrap()[task].replace(sum + task as f32);
        assert_eq!(previous, None, "task {task} ran twice");
    }

    fn finish(&self) -> ScoreDetail {
        let fused = self
            .slots
            .lock()
            .unwrap()
            .iter()
            .map(|slot| slot.expect("finish came before a task"))
            .collect();
        ScoreDetail::from_fused(&self.samples, fused)
    }
}

struct Rig {
    engine: Arc<Engine>,
    board: Arc<Board>,
    obs: Arc<ServeObs>,
}

fn rig(workers: usize, hook: impl Fn(&Board, Started) + Send + Sync + 'static) -> Rig {
    rig_with_capacity(workers, 64, hook)
}

fn rig_with_capacity(
    workers: usize,
    queue_capacity: usize,
    hook: impl Fn(&Board, Started) + Send + Sync + 'static,
) -> Rig {
    let board = Arc::new(Board::default());
    let scorer = SplitScorer {
        board: Arc::clone(&board),
        hook: Arc::new(hook),
    };
    let obs = ServeObs::new(8);
    let engine = Engine::start(
        EngineConfig {
            workers,
            queue_capacity,
            unknown_threshold: None,
        },
        Arc::new(ScorerHandle::new(Arc::new(scorer), 0)),
        None,
        Arc::clone(&obs),
    );
    Rig {
        engine: Arc::new(engine),
        board,
        obs,
    }
}

impl Rig {
    fn counter(&self, name: &str) -> u64 {
        match self
            .obs
            .registry
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
        {
            Some((_, MetricValue::Counter(v))) => v,
            _ => panic!("no counter {name}"),
        }
    }
}

fn outcome(rx: &Receiver<Outcome>) -> Outcome {
    rx.recv_timeout(PATIENCE).expect("a reply, in time")
}

fn assert_scored(rx: &Receiver<Outcome>, samples: &[f32]) {
    match outcome(rx) {
        Outcome::Scored(s) => assert_eq!(s.llrs, llrs(samples)),
        other => panic!("request {samples:?} unresolved: {other:?}"),
    }
    assert!(rx.recv().is_err(), "a reply fires exactly once");
}

#[test]
fn an_idle_worker_helps_so_two_tasks_of_one_request_run_at_once() {
    // Task 0 cannot return before task 1 has started: serial execution on
    // one thread would never get there.
    let rig = rig(2, |board, me| {
        if me.task == 0 {
            board.wait_for("task 1 starting while task 0 is still inside", |log| {
                log.iter().any(|s| s.task == 1)
            });
        }
    });
    let rx = rig.engine.submit(vec![3.0, 0.5]).expect("submit");
    assert_scored(&rx, &[3.0, 0.5]);

    let log = rig.board.started();
    assert_eq!(log.len(), TASKS);
    let thread_of = |task| log.iter().find(|s| s.task == task).unwrap().thread;
    assert_ne!(thread_of(0), thread_of(1), "both ran on one thread");
    assert_eq!(rig.counter("engine.fanout.tasks"), TASKS as u64);
    let helped = log.iter().filter(|s| !s.by_owner).count() as u64;
    assert!(helped >= 1);
    assert_eq!(rig.counter("engine.fanout.helped"), helped);
    rig.engine.shutdown();
}

#[test]
fn a_queued_job_beats_an_open_offer_and_the_owner_still_finishes_alone() {
    let rig = rig(2, |board, me| match (me.request, me.by_owner) {
        (1, true) => board.pass("owner of 1"),
        (1, false) => board.pass("helper of 1"),
        (2, _) if me.task == 0 => board.pass("job 2"),
        _ => {}
    });
    // Request 1: its owner and its helper are each parked inside a task,
    // four tasks unclaimed.
    let first = rig.engine.submit(vec![1.0]).expect("submit");
    let parked = rig
        .board
        .wait_for("owner and helper inside request 1", |log| log.len() == 2);
    assert_ne!(parked[0].by_owner, parked[1].by_owner);
    // Request 2 is queued behind two busy workers…
    let second = rig.engine.submit(vec![2.0]).expect("submit");
    // …so the helper, once out, must take it rather than another task of
    // the open offer: request 2 starts with request 1 exactly as it was.
    rig.board.open("helper of 1");
    let log = rig.board.wait_for("request 2 starting", |log| {
        log.iter().any(|s| s.request == 2)
    });
    let ones: Vec<_> = log.iter().filter(|s| s.request == 1).collect();
    assert_eq!(
        ones.len(),
        2,
        "the freed helper helped again first: {log:?}"
    );
    let helper = ones.iter().find(|s| !s.by_owner).unwrap().thread;
    let job2 = log.iter().find(|s| s.request == 2).unwrap();
    assert_eq!(job2.thread, helper);
    assert!(job2.by_owner);

    // With the other worker parked inside request 2, request 1's owner
    // finishes without anyone: it never waits for an unclaimed task.
    rig.board.open("owner of 1");
    assert_scored(&first, &[1.0]);
    let log = rig.board.started();
    let by_owner = log.iter().filter(|s| s.request == 1 && s.by_owner).count();
    assert_eq!(by_owner, TASKS - 1, "{log:?}");

    rig.board.open("job 2");
    assert_scored(&second, &[2.0]);
    assert_eq!(rig.counter("engine.fanout.tasks"), 2 * TASKS as u64);
    assert_eq!(
        rig.engine.stats().max_queue_depth,
        1,
        "offers are not depth"
    );
    rig.engine.shutdown();
}

#[test]
fn only_the_engines_own_threads_ever_run_a_task() {
    const WORKERS: usize = 3;
    const REQUESTS: usize = 50;
    let rig = rig(WORKERS, |_, _| {});
    let receivers: Vec<_> = (0..REQUESTS)
        .map(|i| rig.engine.submit(vec![i as f32, 0.25]).expect("submit"))
        .collect();
    for (i, rx) in receivers.iter().enumerate() {
        assert_scored(rx, &[i as f32, 0.25]);
    }
    let log = rig.board.started();
    assert_eq!(log.len(), REQUESTS * TASKS);
    let threads: HashSet<ThreadId> = log.iter().map(|s| s.thread).collect();
    assert!(
        threads.len() <= WORKERS,
        "{} threads ran tasks",
        threads.len()
    );
    assert!(!threads.contains(&std::thread::current().id()));
    assert_eq!(
        rig.counter("engine.fanout.tasks"),
        (REQUESTS * TASKS) as u64
    );
    assert_eq!(
        rig.counter("engine.fanout.helped"),
        log.iter().filter(|s| !s.by_owner).count() as u64
    );
    rig.engine.shutdown();
}

#[test]
fn a_lone_worker_publishes_nothing() {
    let rig = rig(1, |_, _| {});
    for i in 0..10 {
        let rx = rig.engine.submit(vec![i as f32]).expect("submit");
        assert_scored(&rx, &[i as f32]);
    }
    let log = rig.board.started();
    // One thread, tasks in index order, all as the owner.
    assert!(log.iter().all(|s| s.by_owner));
    let order: Vec<usize> = log.iter().map(|s| s.task).collect();
    assert_eq!(
        order,
        (0..10 * TASKS).map(|k| k % TASKS).collect::<Vec<_>>()
    );
    assert_eq!(rig.counter("engine.fanout.tasks"), 10 * TASKS as u64);
    assert_eq!(rig.counter("engine.fanout.helped"), 0);
    rig.engine.shutdown();
}

#[test]
fn closing_the_queue_under_an_open_offer_still_resolves_every_reply() {
    let rig = rig_with_capacity(2, 4, |board, me| {
        if me.request == 1 {
            board.pass("request 1");
        }
    });
    let first = rig.engine.submit(vec![1.0]).expect("submit");
    rig.board
        .wait_for("owner and helper inside request 1", |log| log.len() == 2);
    let queued: Vec<_> = (2..6)
        .map(|i| rig.engine.submit(vec![i as f32]).expect("submit"))
        .collect();

    let closer = {
        let engine = Arc::clone(&rig.engine);
        std::thread::spawn(move || engine.shutdown())
    };
    // The queue is full, so a submission is refused either way — as
    // overloaded until the close has landed, as shutting down after it.
    // The workers are still parked mid-fan-out: four tasks unclaimed, four
    // jobs queued.
    loop {
        match rig.engine.submit(vec![9.0]) {
            Err(SubmitError::Overloaded) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => break,
            Ok(_) => panic!("a full queue took a submission"),
        }
    }
    rig.board.open("request 1");

    assert_scored(&first, &[1.0]);
    for (rx, i) in queued.iter().zip(2..) {
        assert_scored(rx, &[i as f32]);
    }
    closer.join().expect("shutdown returns");
    assert_eq!(rig.engine.stats().completed, 5);
}

#[test]
fn a_task_that_panics_on_a_helper_fails_that_request_only() {
    let rig = rig(2, |board, me| match (me.request, me.by_owner) {
        (1, false) => panic!("injected: a task panics on the helper"),
        // The owner stays inside its task until a helper has taken one, so
        // the panic is certainly the helper's.
        (1, true) => {
            board.wait_for("a helper taking a task of request 1", |log| {
                log.iter().any(|s| !s.by_owner)
            });
        }
        // Afterwards both threads must still be there: help is forced.
        (2, _) if me.task == 0 => {
            board.wait_for("task 1 of request 2 starting", |log| {
                log.iter().any(|s| s.request == 2 && s.task == 1)
            });
        }
        _ => {}
    });
    let first = rig.engine.submit(vec![1.0]).expect("submit");
    assert_eq!(outcome(&first), Outcome::Failed);
    assert!(first.recv().is_err(), "a reply fires exactly once");

    let second = rig.engine.submit(vec![2.0]).expect("submit");
    assert_scored(&second, &[2.0]);
    let stats = rig.engine.stats();
    assert_eq!((stats.failed, stats.completed), (1, 1));
    let events = rig.obs.flight.peek();
    assert!(
        events.iter().any(|e| e.kind == lre_obs::EV_PANIC),
        "{events:?}"
    );
    rig.engine.shutdown();
}
