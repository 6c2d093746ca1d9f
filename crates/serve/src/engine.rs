//! The inference engine: one bounded queue, one pool of workers.
//!
//! Requests enter a single [`BoundedQueue`] shared by every connection,
//! and every worker pops one request at a time straight off it — the
//! queue is the only hand-off. Each utterance already gives the emission
//! kernels a tall matrix (75–750 frames) and every later stage is
//! row-independent, so there is nothing to gain from grouping requests
//! before scoring them.
//!
//! What one utterance does offer is independence *inside* it: after the
//! shared feature pass, its subsystems do not meet again until fusion.
//! The worker that popped a request (its **owner**) asks the scorer to
//! split it ([`Scorer::fan_out`]), publishes the tasks as an offer on the
//! same queue, and claims them itself in a loop; a worker with nothing to
//! pop (a **helper**) is handed one task at a time, runs it on its own
//! working set, and goes back to `pop`. A queued request always beats an
//! offer, so a busy pool never helps; the owner never waits for an
//! unclaimed task, so it finishes alone if nobody comes; and only a task a
//! helper is still inside can make it sleep. Gather, fusion and the reply
//! stay on the owner. The `workers` threads are the only ones the engine
//! ever has, and a lone worker publishes nothing.
//!
//! Each worker owns one [`WorkingSet`] for its whole life, so the
//! score-block / Viterbi / back-pointer / feature-transform allocations
//! are paid once per worker, not once per request or task. A full queue
//! sheds load with an explicit [`SubmitError::Overloaded`] instead of
//! buffering without bound, and a request whose deadline passes while it
//! waits is shed with [`Outcome::DeadlineExceeded`] instead of being
//! scored into a reply nobody wants. A scorer that panics — under the
//! owner or inside a task on a helper — fails that one request with
//! [`Outcome::Failed`]; the thread it unwound takes a fresh working set
//! and lives on.
//!
//! Shutdown is a drain: the queue closes (new submissions get
//! [`SubmitError::ShuttingDown`]), workers score everything already
//! accepted, and every outstanding reply callback fires exactly once.

use crate::obs::ServeObs;
use crate::queue::{BoundedQueue, PushError, Work};
use crate::swap::ScorerHandle;
use crate::system::{sample_digest, FanOut, ScoreDetail, ScoreTap, Scorer, WorkingSet};
use lre_artifact::ArtifactError;
use lre_obs::{
    StageTimes, TraceSpan, EV_DEADLINE, EV_PANIC, EV_SHED, STAGE_DECODE, STAGE_QUEUE, STAGE_REPLY,
    STAGE_SCORE, STAGE_SUPERVECTOR,
};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads (clamped to ≥ 1): every thread the engine will ever
    /// have. One with no request to pop helps another score its utterance.
    pub workers: usize,
    /// Queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Open-set rejection threshold on the top fused LLR. `None` (the
    /// default) keeps the closed-set behaviour: every scored utterance is
    /// attributed to its arg-max language. With `Some(t)`, an utterance
    /// whose best LLR falls below `t` is still scored and replied to, but
    /// the reply is flagged [`ScoredUtt::unknown`] and the score is **not**
    /// teed into the adaptation vote log — an out-of-set utterance must
    /// never vote on in-set model updates.
    pub unknown_threshold: Option<f32>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 64,
            unknown_threshold: None,
        }
    }
}

/// One scored utterance.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredUtt {
    /// Calibrated per-language detection LLRs.
    pub llrs: Vec<f32>,
    /// Index of the top-scoring language (see [`decision`]).
    pub decision: usize,
    /// Generation of the model that scored it: the scorer that produced
    /// `llrs`, resolved when a worker picked the request up. Constant 0
    /// until the first hot swap.
    pub generation: u64,
    /// Stage-timestamped trace span, present only for traced requests
    /// (`trace_id != 0` at submission). Not part of the score body — only
    /// the traced reply carries it.
    pub span: Option<TraceSpan>,
    /// Open-set rejection flag: `true` when the engine was configured
    /// with [`EngineConfig::unknown_threshold`] and the top LLR fell
    /// below it. `decision` still carries the arg-max index (the best
    /// in-set guess), but the caller should treat the utterance as an
    /// unseen language.
    pub unknown: bool,
}

/// Index of the highest LLR (first wins on ties).
pub fn decision(llrs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in llrs.iter().enumerate() {
        if v > llrs[best] {
            best = i;
        }
    }
    best
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — shed and retry later.
    Overloaded,
    /// Engine is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "queue full (request shed)"),
            SubmitError::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How an accepted request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Scored to completion.
    Scored(ScoredUtt),
    /// The request's deadline passed before a worker reached it; it was
    /// shed unscored.
    DeadlineExceeded,
    /// The scorer returned an error, or panicked.
    Failed,
}

/// Point-in-time view of the engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions seen (accepted + shed).
    pub requests: u64,
    /// Utterances scored to completion.
    pub completed: u64,
    /// Submissions refused because the queue (or a connection's inflight
    /// window) was full.
    pub rejected: u64,
    /// High-water mark of queue depth.
    pub max_queue_depth: u64,
    /// Sum of per-request latency (enqueue → scored), microseconds.
    pub latency_us_sum: u64,
    /// Worst per-request latency, microseconds.
    pub latency_us_max: u64,
    /// Engine uptime, microseconds (QPS = `completed / uptime`).
    pub uptime_us: u64,
    /// Accepted requests shed unscored because their deadline passed.
    pub expired: u64,
    /// Requests lost to scorer failures.
    pub failed: u64,
    /// Subset of `rejected` shed by the server's *global* admission cap
    /// (`--max-global-inflight`), counted across every connection.
    pub shed_global: u64,
    /// Generation of the currently installed model (bumps on every hot
    /// swap, including rollbacks).
    pub generation: u64,
    /// Model installs performed over the engine's lifetime.
    pub swaps: u64,
    /// How many of those installs were guard rollbacks.
    pub rollbacks: u64,
    /// Completed utterances flagged open-set `unknown` (top LLR below the
    /// configured threshold). Always 0 without `--unknown-threshold`.
    /// Counted inside `completed` — an unknown is still a scored reply.
    pub unknown: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    latency_us_sum: AtomicU64,
    latency_us_max: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    shed_global: AtomicU64,
    unknown: AtomicU64,
}

/// Invoked exactly once with the request's outcome (possibly on a worker
/// thread, after the submitter has moved on — the pipelining hook).
type ReplyFn = Box<dyn FnOnce(Outcome) + Send>;

struct Job {
    samples: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Non-zero for traced requests; the reply then carries a
    /// [`TraceSpan`] with this id.
    trace_id: u64,
    reply: ReplyFn,
}

/// One request's fan-out while it runs: what its owner publishes on the
/// queue and a helper is handed.
struct Offer {
    tasks: Arc<dyn FanOut>,
    join: Mutex<Join>,
    joined: Condvar,
}

struct Join {
    /// Tasks that have not returned yet, claimed or not.
    unfinished: usize,
    /// What the first task to panic panicked with.
    panic: Option<Box<dyn Any + Send>>,
}

impl Offer {
    fn new(tasks: Arc<dyn FanOut>) -> Offer {
        Offer {
            join: Mutex::new(Join {
                unfinished: tasks.num_tasks(),
                panic: None,
            }),
            joined: Condvar::new(),
            tasks,
        }
    }

    /// Run one claimed task on the calling thread. A panic in it is kept
    /// for the owner: the task still counts as returned, so nobody sleeps
    /// on it.
    fn run(&self, task: usize, ws: &mut WorkingSet) {
        let ran = catch_unwind(AssertUnwindSafe(|| self.tasks.run_task(task, ws)));
        if ran.is_err() {
            // The unwound task may have left it half-written.
            *ws = WorkingSet::new();
        }
        let mut join = self.join.lock().expect("join state poisoned");
        join.unfinished -= 1;
        if let (Err(panic), None) = (ran, &join.panic) {
            join.panic = Some(panic);
        }
        if join.unfinished == 0 {
            self.joined.notify_one();
        }
    }

    /// The owner's wait, entered with every task claimed: sleep until the
    /// ones helpers hold have returned, then gather — or go on unwinding
    /// where a task left off.
    fn finish(&self) -> Result<ScoreDetail, ArtifactError> {
        let mut join = self.join.lock().expect("join state poisoned");
        while join.unfinished > 0 {
            join = self.joined.wait(join).expect("join state poisoned");
        }
        if let Some(panic) = join.panic.take() {
            resume_unwind(panic);
        }
        drop(join);
        self.tasks.finish()
    }
}

type Queue = BoundedQueue<Job, Arc<Offer>>;

/// The engine: a queue and the worker pool that drains it.
pub struct Engine {
    queue: Arc<Queue>,
    counters: Arc<Counters>,
    handle: Arc<ScorerHandle>,
    obs: Option<Arc<ServeObs>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    started: Instant,
}

/// What one worker thread owns besides its [`WorkingSet`].
struct Worker {
    queue: Arc<Queue>,
    counters: Arc<Counters>,
    handle: Arc<ScorerHandle>,
    tap: Option<Arc<dyn ScoreTap>>,
    obs: Option<Arc<ServeObs>>,
    unknown_threshold: Option<f32>,
    /// Whether the pool has another worker to offer tasks to.
    has_peers: bool,
}

impl Worker {
    /// The thread's life: requests first, other workers' tasks when there
    /// is no request, until the queue is closed and drained.
    fn work(&self) {
        let mut ws = WorkingSet::new();
        while let Some(work) = self.queue.pop() {
            match work {
                Work::Job(job) => self.run(job, &mut ws),
                Work::Task(offer, task) => {
                    if let Some(obs) = &self.obs {
                        obs.fanout_helped.incr();
                    }
                    offer.run(task, &mut ws);
                }
            }
        }
    }

    /// Score one utterance as its owner: every task of its fan-out run
    /// once, by this thread or a helper, then gathered here. A scorer that
    /// does not split is simply called.
    fn score(
        &self,
        scorer: &dyn Scorer,
        samples: &[f32],
        ws: &mut WorkingSet,
    ) -> Result<ScoreDetail, ArtifactError> {
        let Some(tasks) = scorer.fan_out(samples) else {
            return scorer.score_utt(samples, &mut ws.scratch);
        };
        let n = tasks.num_tasks();
        let offer = Arc::new(Offer::new(tasks));
        let ticket = self
            .has_peers
            .then(|| self.queue.offer(Arc::clone(&offer), n));
        let mut unpublished = 0..n;
        while let Some(task) = match ticket {
            Some(ticket) => self.queue.claim(ticket),
            None => unpublished.next(),
        } {
            offer.run(task, ws);
        }
        let claimed_all = Instant::now();
        let detail = offer.finish();
        if let Some(obs) = &self.obs {
            obs.fanout_tasks.add(n as u64);
            if ticket.is_some() {
                obs.fanout_join_wait_us
                    .record(claimed_all.elapsed().as_micros() as u64);
            }
        }
        detail
    }

    /// Resolve one picked-up request: shed it if its deadline has passed,
    /// otherwise score it, and fire its reply exactly once.
    fn run(&self, job: Job, ws: &mut WorkingSet) {
        let (counters, obs) = (&self.counters, self.obs.as_deref());
        let enqueued = job.enqueued;
        let since_enqueued = || enqueued.elapsed().as_micros() as u64;
        let queue_us = since_enqueued();
        if let Some(obs) = obs {
            obs.queue_wait_us.record(queue_us);
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            counters.expired.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = obs {
                obs.flight.record(
                    EV_DEADLINE,
                    "queued past deadline",
                    job.trace_id,
                    0,
                    0.0,
                    0.0,
                );
            }
            (job.reply)(Outcome::DeadlineExceeded);
            return;
        }
        let traced = job.trace_id != 0;
        if let (true, Some(obs)) = (traced, obs) {
            obs.traced.incr();
        }
        // One versioned scorer per request: a swap landing while it is
        // inside the scorer affects only later requests.
        let model = self.handle.current();
        let scored = catch_unwind(AssertUnwindSafe(|| {
            self.score(&*model.scorer, &job.samples, ws)
        }));
        let mut detail = match scored {
            Ok(Ok(detail)) => detail,
            failed => {
                if failed.is_err() {
                    // The unwound scorer may have left it half-written.
                    *ws = WorkingSet::new();
                    if let Some(obs) = obs {
                        obs.flight
                            .record(EV_PANIC, "scorer panicked", job.trace_id, 0, 0.0, 0.0);
                    }
                }
                counters.failed.fetch_add(1, Ordering::Relaxed);
                (job.reply)(Outcome::Failed);
                return;
            }
        };
        detail.generation = model.generation;
        let us = since_enqueued();
        counters.latency_us_sum.fetch_add(us, Ordering::Relaxed);
        counters.latency_us_max.fetch_max(us, Ordering::Relaxed);
        counters.completed.fetch_add(1, Ordering::Relaxed);
        let mut stage_us = detail.stage_us;
        if stage_us == StageTimes::default() {
            // The scorer reported no split (a mock): bill the whole call.
            stage_us.score_us = us - queue_us;
        }
        let top = decision(&detail.fused);
        let unknown = self
            .unknown_threshold
            .is_some_and(|t| detail.fused.get(top).is_none_or(|&v| v < t));
        if unknown {
            counters.unknown.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = obs {
            obs.latency_us.record(us);
            obs.decode_us.record(stage_us.decode_us);
            obs.supervector_us.record(stage_us.supervector_us);
            obs.score_us.record(stage_us.score_us);
            if let Some(&llr) = detail.fused.get(top) {
                obs.lang_sketch(top).record(f64::from(llr));
            }
            if unknown {
                obs.unknown.incr();
            }
        }
        let span = traced.then(|| {
            // Every mark is an instant on this request's own clock, so the
            // span is monotone however many threads scored. Mocks report no
            // decode/supervector split: those marks are omitted and the
            // whole call ends at the score mark.
            let at = |done: Instant| done.saturating_duration_since(enqueued).as_micros() as u64;
            let mut span = TraceSpan::new(job.trace_id);
            span.mark(STAGE_QUEUE, queue_us);
            match detail.stage_done {
                Some(done) => {
                    span.mark(STAGE_DECODE, at(done.decode));
                    span.mark(STAGE_SUPERVECTOR, at(done.supervector));
                    span.mark(STAGE_SCORE, at(done.score));
                }
                None => span.mark(STAGE_SCORE, us),
            }
            span.mark(STAGE_REPLY, since_enqueued());
            span
        });
        let llrs = match &self.tap {
            // An unknown must not vote, so the row is teed only now — and
            // only a teed row needs its dedup key: an engine without a tap
            // never reads the samples a second time.
            Some(tap) if !unknown => {
                let llrs = detail.fused.clone();
                detail.digest = sample_digest(&job.samples);
                tap.record(detail);
                llrs
            }
            _ => detail.fused,
        };
        (job.reply)(Outcome::Scored(ScoredUtt {
            decision: top,
            llrs,
            generation: model.generation,
            span,
            unknown,
        }));
    }
}

impl Engine {
    /// Spawn the worker pool over a fixed scorer (wrapped in a
    /// [`ScorerHandle`] at generation 0, never swapped).
    pub fn start(cfg: EngineConfig, scorer: Arc<dyn Scorer>) -> Engine {
        Engine::start_adaptive(cfg, Arc::new(ScorerHandle::new(scorer, 0)), None)
    }

    /// Spawn over a hot-swappable scorer handle, optionally teeing every
    /// successful score into `tap` (the adaptation vote log).
    ///
    /// Workers resolve the handle **once per request**: the reply carries
    /// the generation of the [`crate::swap::VersionedScorer`] that
    /// produced its bits, whatever swap lands while it is being scored.
    pub fn start_adaptive(
        cfg: EngineConfig,
        handle: Arc<ScorerHandle>,
        tap: Option<Arc<dyn ScoreTap>>,
    ) -> Engine {
        Engine::start_observed(cfg, handle, tap, None)
    }

    /// [`Engine::start_adaptive`] with telemetry: every score feeds the
    /// stage/latency histograms and per-language LLR sketches in `obs`,
    /// and sheds/deadline expiries land in its flight recorder. With
    /// `obs == None` the engine records nothing beyond its own counters
    /// (the telemetry-off perfbaseline leg measures exactly this path).
    pub fn start_observed(
        cfg: EngineConfig,
        handle: Arc<ScorerHandle>,
        tap: Option<Arc<dyn ScoreTap>>,
        obs: Option<Arc<ServeObs>>,
    ) -> Engine {
        let queue = Arc::new(Queue::new(cfg.queue_capacity));
        let counters = Arc::new(Counters::default());
        let width = cfg.workers.max(1);
        let workers = (0..width)
            .map(|_| {
                let worker = Worker {
                    queue: Arc::clone(&queue),
                    counters: Arc::clone(&counters),
                    handle: Arc::clone(&handle),
                    tap: tap.clone(),
                    obs: obs.clone(),
                    unknown_threshold: cfg.unknown_threshold,
                    has_peers: width > 1,
                };
                std::thread::spawn(move || worker.work())
            })
            .collect();
        Engine {
            queue,
            counters,
            handle,
            obs,
            workers: Mutex::new(workers),
            started: Instant::now(),
        }
    }

    /// The swap point this engine scores through (the adaptation worker's
    /// promotion/rollback seam).
    pub fn scorer_handle(&self) -> &Arc<ScorerHandle> {
        &self.handle
    }

    /// Enqueue one utterance with an optional deadline; `reply` fires
    /// exactly once when the request resolves. On `Err` the callback is
    /// dropped unfired — the submitter still owns the error path.
    /// `trace: Some(id)` (non-zero) makes the worker stamp a [`TraceSpan`]
    /// with that id onto the scored reply, stage offsets measured from
    /// this enqueue.
    pub fn submit_with(
        &self,
        samples: Vec<f32>,
        deadline: Option<Duration>,
        trace: Option<u64>,
        reply: impl FnOnce(Outcome) + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let job = Job {
            samples,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            trace_id: trace.unwrap_or(0),
            reply: Box::new(reply),
        };
        match self.queue.push(job) {
            Ok(_) => Ok(()),
            Err(PushError::Full) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded)
            }
            Err(PushError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Enqueue one utterance; the outcome arrives on the returned channel.
    pub fn submit(&self, samples: Vec<f32>) -> Result<mpsc::Receiver<Outcome>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        // A submitter that hung up just discards its result; not an
        // engine error.
        self.submit_with(samples, None, None, move |o| {
            let _ = tx.send(o);
        })?;
        Ok(rx)
    }

    /// Submit and wait — the in-process client.
    pub fn score_blocking(&self, samples: Vec<f32>) -> Result<Outcome, SubmitError> {
        let rx = self.submit(samples)?;
        // A send-side drop without a result only happens if a worker died;
        // surface it as shutdown rather than panicking the connection.
        rx.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Record a request shed before it reached the queue (per-connection
    /// inflight window violations), so `requests = completed + rejected +
    /// expired + failed` stays an invariant of the counters.
    pub fn note_shed(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.flight.record(EV_SHED, "window", 0, 0, 0.0, 0.0);
        }
    }

    /// Record a request shed by the server's cross-connection global
    /// admission cap. Counted under `rejected` (the invariant above holds)
    /// and attributed separately in `shed_global`.
    pub fn note_shed_global(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.counters.shed_global.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.flight.record(EV_SHED, "global", 0, 0, 0.0, 0.0);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            max_queue_depth: self.queue.max_depth() as u64,
            latency_us_sum: c.latency_us_sum.load(Ordering::Relaxed),
            latency_us_max: c.latency_us_max.load(Ordering::Relaxed),
            uptime_us: self.started.elapsed().as_micros() as u64,
            expired: c.expired.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed_global: c.shed_global.load(Ordering::Relaxed),
            generation: self.handle.generation(),
            swaps: self.handle.swap_count(),
            rollbacks: self.handle.rollback_count(),
            unknown: c.unknown.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: refuse new work, let the workers score
    /// everything already accepted, resolve every outstanding reply, then
    /// join the threads. Idempotent and safe to call from multiple
    /// threads.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_argmax_first_wins() {
        assert_eq!(decision(&[0.1, 0.9, 0.4]), 1);
        assert_eq!(decision(&[2.0, 2.0, 1.0]), 0);
        assert_eq!(decision(&[-3.0]), 0);
    }
}
