//! The live driver: starts a scenario's processes, replays a
//! [`CommandStream`] against them over TCP and judges the run against
//! the scenario's [`InvariantSpec`].
//!
//! The driver never feeds anything it observes back into command
//! generation — the stream is fixed before the first byte hits the wire —
//! so a run's *plan* is deterministic even though the servers' *behavior*
//! (latencies, shed decisions, kill timing) is not. Verdict files quote
//! only the plan's identity (scenario, seed, command count, CRC) and
//! PASS/FAIL lines, never measured numbers, so a healthy replay produces
//! a byte-identical verdict file.
//!
//! Nothing waits on a guessed duration. A process is ready when it says
//! so ([`crate::topology`]); after a replica's SIGKILL or restart the
//! driver waits, within [`AWAIT_BOUND`], for the front's flight recorder
//! to show that replica's `eject` or `readmit`; and every run ends with a
//! shutdown that each process must obey.

use crate::plan::{CommandStream, SimCommand, UttPlan};
use crate::scenario::{Expect, InvariantSpec, ScenarioSpec, ADAPT_OUTCOMES};
use crate::topology::{Deployment, Topology};
use lre_artifact::ArtifactRead;
use lre_corpus::{build_language, render_utterance, Channel, LanguageId, LanguageModel, UttSpec};
use lre_lattice::DecodeScratch;
use lre_obs::{event_name, MetricValue};
use lre_phone::UniversalInventory;
use lre_serve::client::{Client, ScoreReply};
use lre_serve::fuzz::{self, FuzzCase};
use lre_serve::protocol::{MetricsDump, ADAPT_PROMOTED};
use lre_serve::{ScoredUtt, ScoringSystem, StatsSnapshot, SystemBundle, WalStatusInfo};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fixed corpus seed for rendering simulator traffic. Part of the replay
/// contract: the same plan must synthesize the same waveforms everywhere.
pub const SIM_CORPUS_SEED: u64 = 0x51B0_7261;

/// How long an awaited flight-recorder event may take to appear.
pub const AWAIT_BOUND: Duration = Duration::from_secs(30);

/// Per-hostile-connection timeout.
const HOSTILE_TIMEOUT: Duration = Duration::from_secs(5);

/// How a run is deployed and paced.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub deployment: Deployment,
    /// A front door already running, for a scenario with no process
    /// lines (in-process tests).
    pub front: Option<SocketAddr>,
    /// Wall-clock pause between ticks: the load's pacing. Does not
    /// influence the command stream.
    pub tick_ms: u64,
}

impl Default for SimConfig {
    /// Binaries from the directory of the running executable, logs under
    /// a fresh per-process directory in the system temp dir.
    fn default() -> SimConfig {
        let exe = std::env::current_exe().unwrap_or_default();
        let work_dir = format!("lre-trafficsim-{}", std::process::id());
        SimConfig {
            deployment: Deployment {
                bin_dir: exe.parent().map(PathBuf::from).unwrap_or_default(),
                bundle: None,
                guard: None,
                work_dir: std::env::temp_dir().join(work_dir),
            },
            front: None,
            tick_ms: 50,
        }
    }
}

/// The judged outcome of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub pass: bool,
    /// Deterministic verdict text: plan identity + one PASS/FAIL line per
    /// checked invariant. Safe to `diff` between a run and its replay.
    pub verdict_text: String,
    /// Measured numbers for humans (latencies, counters, failure notes).
    /// Never byte-stable; print to stderr, keep out of verdict files.
    pub detail: String,
}

/// Renders planned utterances, caching one language model per language.
struct Renderer {
    inv: UniversalInventory,
    models: HashMap<u8, LanguageModel>,
}

impl Renderer {
    fn new() -> Renderer {
        Renderer {
            inv: UniversalInventory::new(),
            models: HashMap::new(),
        }
    }

    fn render_one(
        &mut self,
        language: u8,
        num_frames: usize,
        seed: u64,
        speaker_seed: u64,
        channel: Channel,
    ) -> Vec<f32> {
        let inv = &self.inv;
        let model = self.models.entry(language).or_insert_with(|| {
            build_language(LanguageId::all()[language as usize], SIM_CORPUS_SEED, inv)
        });
        let spec = UttSpec {
            language: model.id,
            speaker_seed,
            channel,
            num_frames,
            seed,
        };
        render_utterance(&spec, model, inv).samples
    }

    /// Render a plan; a code-switching plan renders each half in its own
    /// language and concatenates the waveforms.
    fn render(&mut self, plan: &UttPlan) -> Vec<f32> {
        let channel = if plan.voa {
            Channel::broadcast(plan.snr_db)
        } else {
            Channel::telephone(plan.snr_db)
        };
        let frames = plan.num_frames as usize;
        match plan.second_language {
            None => self.render_one(plan.language, frames, plan.seed, plan.speaker_seed, channel),
            Some(second) => {
                let first = (frames / 2).max(1);
                let mut head =
                    self.render_one(plan.language, first, plan.seed, plan.speaker_seed, channel);
                let tail = self.render_one(
                    second,
                    (frames - first).max(1),
                    plan.seed ^ 0x9E37_79B9_7F4A_7C15,
                    plan.speaker_seed,
                    channel,
                );
                head.extend_from_slice(&tail);
                head
            }
        }
    }
}

/// How a pipelined-client error counts against the invariants.
enum RecvFault {
    /// A reply frame arrived but did not decode — the one thing that must
    /// never happen.
    Torn,
    /// The connection died (reset, EOF mid-run): an *untyped* failure.
    Untyped,
}

fn classify_recv_error(err: &io::Error) -> RecvFault {
    // `Client::recv` wraps both decode failures and
    // "server closed with replies outstanding" as `InvalidData`; only the
    // former is a torn reply. A clean close is the connection dying.
    if err.kind() == ErrorKind::InvalidData && !err.to_string().contains("closed") {
        RecvFault::Torn
    } else {
        RecvFault::Untyped
    }
}

/// `verify_bits`: a local scorer over `--bundle`, and the serving
/// generations the driver knows serve it — 0 at start, then each one an
/// install acknowledges for the bundle. A restarted front serves its
/// lineage head, which the driver cannot vouch for: verifying stops.
struct Verifier {
    system: ScoringSystem,
    scratch: DecodeScratch,
    baseline: BTreeSet<u64>,
    /// Whether the model serving now, and the one the last install
    /// displaced (what a one-deep rollback restores), are the bundle.
    serving: bool,
    displaced: bool,
}

impl Verifier {
    fn load(bundle: Option<&PathBuf>) -> Result<Verifier, String> {
        let path = bundle.ok_or("verify_bits needs --bundle")?;
        let loaded = SystemBundle::load_artifact(path).map_err(|e| e.to_string());
        let system = loaded.and_then(|b| ScoringSystem::from_bundle(b).map_err(|e| e.to_string()));
        Ok(Verifier {
            system: system.map_err(|e| format!("loading {}: {e}", path.display()))?,
            scratch: DecodeScratch::new(),
            baseline: BTreeSet::from([0]),
            serving: true,
            displaced: false,
        })
    }

    /// `Some(bits equal)` for a reply from a known-baseline generation.
    fn check(&mut self, samples: &[f32], scored: &ScoredUtt) -> Option<bool> {
        self.baseline.contains(&scored.generation).then(|| {
            let want = self.system.score(samples, &mut self.scratch);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            bits(&want) == bits(&scored.llrs)
        })
    }

    /// An install of the bundle or not, now served as `generation`.
    fn installed(&mut self, bundle: bool, generation: u64) {
        self.displaced = std::mem::replace(&mut self.serving, bundle);
        if bundle {
            self.baseline.insert(generation);
        }
    }
}

/// The run's counts, quoted whole in the detail text.
#[derive(Debug, Default)]
struct Counts {
    submitted: u64,
    scored: u64,
    /// Scores the front refused `overloaded` (shed).
    overloaded: u64,
    unknown_replies: u64,
    typed_failures: u64,
    untyped_failures: u64,
    torn_replies: u64,
    hostile_runs: u64,
    scrape_errors: u64,
    verified: u64,
    mismatches: u64,
}

/// Everything measured during a run, folded into verdicts at the end.
#[derive(Default)]
struct Tally {
    n: Counts,
    hostile_violations: Vec<String>,
    /// Each adapt ack as `OUTCOME:GENERATION`, or an error.
    adapts: Vec<String>,
    /// Each rollback's ack, keyed like [`InvariantSpec::expect_ack`].
    acks: BTreeMap<String, String>,
    latencies_ms: Vec<f64>,
    /// Flight events `(kind, detail)` per process name (`front`,
    /// `replica0`, …).
    flight: BTreeMap<String, Vec<(String, String)>>,
    /// Event kinds an await gave up on.
    missed: BTreeSet<String>,
    /// Final stats-v3 dumps per process name.
    metrics: BTreeMap<String, MetricsDump>,
    replica_names: Vec<String>,
    clean_exit: bool,
    /// The front's stats-v2 view at the end of the run.
    stats: Option<StatsSnapshot>,
    notes: Vec<String>,
    /// WAL status scraped just before the SIGKILL (traffic settled).
    wal_before_crash: Option<WalStatusInfo>,
    /// WAL status scraped right after the restarted server came up.
    wal_after_restart: Option<WalStatusInfo>,
    /// WAL status from the end of the run.
    wal_final: Option<WalStatusInfo>,
}

impl Tally {
    fn events(&self, proc: &str) -> &[(String, String)] {
        self.flight.get(proc).map_or(&[], Vec::as_slice)
    }
}

fn p99(latencies: &mut [f64]) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((latencies.len() as f64) * 0.99).ceil() as usize;
    Some(latencies[idx.saturating_sub(1).min(latencies.len() - 1)])
}

/// One exchange on a fresh connection.
fn call<T>(addr: SocketAddr, f: impl FnOnce(&mut Client) -> io::Result<T>) -> io::Result<T> {
    f(&mut Client::connect(addr)?)
}

/// `None` when the peer is unreachable or has no WAL.
fn scrape_wal(addr: SocketAddr) -> Option<WalStatusInfo> {
    call(addr, Client::wal_status).ok().flatten()
}

/// One run in progress.
struct Drive {
    topo: Topology,
    front: SocketAddr,
    tally: Tally,
    pipe: Option<Client>,
    /// In-flight scores: when sent, and their samples.
    pending: HashMap<u64, (Instant, Vec<f32>)>,
    verifier: Option<Verifier>,
}

impl Drive {
    /// Drain every outstanding reply on the pipe, folding outcomes into
    /// the tally. On a connection fault the remaining in-flight requests
    /// are lost un-replied and count as untyped failures.
    fn drain(&mut self) {
        let n = &mut self.tally.n;
        while let Some(client) = self.pipe.as_mut().filter(|c| c.inflight() > 0) {
            let (id, reply) = match client.recv() {
                Ok(got) => got,
                Err(e) => {
                    match classify_recv_error(&e) {
                        RecvFault::Torn => n.torn_replies += 1,
                        RecvFault::Untyped => n.untyped_failures += 1,
                    }
                    // The stream is unusable; everything still pending is lost.
                    n.untyped_failures += self.pending.len().saturating_sub(1) as u64;
                    self.pending.clear();
                    self.pipe = None;
                    return;
                }
            };
            let sent = self.pending.remove(&id);
            if let Some((started, _)) = &sent {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                self.tally.latencies_ms.push(ms);
            }
            let ScoreReply::Scored(scored) = reply else {
                n.typed_failures += 1;
                n.overloaded += u64::from(reply == ScoreReply::Overloaded);
                continue;
            };
            n.scored += 1;
            n.unknown_replies += u64::from(scored.unknown);
            let verifier = self.verifier.as_mut().zip(sent);
            match verifier.and_then(|(v, (_, samples))| v.check(&samples, &scored)) {
                Some(true) => n.verified += 1,
                Some(false) => n.mismatches += 1,
                None => {}
            }
        }
        // Lost with a dropped connection, or replies that raced a reconnect.
        n.untyped_failures += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Take (and drain) the flight events process `name` recorded.
    fn collect_flight(&mut self, name: &str, addr: SocketAddr) {
        let Ok(Some(events)) = call(addr, |c| c.flight(true)) else {
            return self.tally.n.scrape_errors += 1;
        };
        let events = events
            .into_iter()
            .map(|e| (event_name(e.kind).into(), e.detail));
        self.tally
            .flight
            .entry(name.into())
            .or_default()
            .extend(events);
    }

    /// Wait, within [`AWAIT_BOUND`], for the front to record `kind` with
    /// `detail` after this call begins.
    fn await_flight(&mut self, kind: &str, detail: &str) {
        let from = self.tally.events("front").len();
        let deadline = Instant::now() + AWAIT_BOUND;
        loop {
            self.collect_flight("front", self.front);
            let new = &self.tally.events("front")[from..];
            if new.iter().any(|(k, d)| k == kind && d == detail) {
                return;
            }
            if Instant::now() >= deadline {
                self.tally.missed.insert(kind.to_string());
                let note = format!("no {kind} of {detail} within {AWAIT_BOUND:?}");
                return self.tally.notes.push(note);
            }
            // A bounded poll: the recorder has no blocking read.
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn step(&mut self, cmd: &SimCommand, renderer: &mut Renderer, corpus: &[FuzzCase]) {
        // Control commands settle outstanding scores first: their blast
        // radius is the ticks after them, and a blocking call must not
        // pollute measured latencies.
        if !matches!(cmd, SimCommand::Score { .. } | SimCommand::Hostile { .. }) {
            self.drain();
        }
        let (front, n, notes) = (self.front, &mut self.tally.n, &mut self.tally.notes);
        match cmd {
            SimCommand::Score {
                plan, deadline_ms, ..
            } => {
                let samples = renderer.render(plan);
                self.pipe = self.pipe.take().or_else(|| Client::connect(front).ok());
                n.submitted += 1;
                let deadline = Some(Duration::from_millis(u64::from(*deadline_ms)));
                match self.pipe.as_mut().map(|c| c.submit(&samples, deadline)) {
                    Some(Ok(id)) => drop(self.pending.insert(id, (Instant::now(), samples))),
                    Some(Err(_)) => {
                        n.untyped_failures += 1;
                        self.pipe = None;
                    }
                    None => n.untyped_failures += 1,
                }
            }
            SimCommand::Hostile { case_index, .. } => {
                let case = &corpus[*case_index as usize % corpus.len()];
                n.hostile_runs += 1;
                if let Err(e) = fuzz::run_case(front, case, HOSTILE_TIMEOUT) {
                    let violation = format!("case {:?}: {e}", case.name);
                    self.tally.hostile_violations.push(violation);
                }
            }
            SimCommand::Fuzz { .. } => {
                // The whole corpus, then proof the server still answers.
                let ran = fuzz::run_corpus(front, Duration::from_secs(10))
                    .and_then(|_| call(front, Client::stats_v2).map_err(|e| e.to_string()));
                n.hostile_runs += 1;
                if let Err(e) = ran {
                    self.tally.hostile_violations.push(format!("fuzz: {e}"));
                }
            }
            SimCommand::KillReplica { replica, .. } => {
                let r = *replica as usize;
                let Some((_, addr)) = self.topo.replica(r) else {
                    return notes.push(format!("no replica {r} to kill"));
                };
                notes.push(self.topo.kill(r));
                self.await_flight("eject", &addr.to_string());
            }
            SimCommand::RestartReplica { replica, .. } => {
                let r = *replica as usize;
                match (r < self.topo.replicas()).then(|| self.topo.restart(r)) {
                    Some(Ok(addr)) => self.await_flight("readmit", &addr.to_string()),
                    Some(Err(e)) => notes.push(e),
                    None => notes.push(format!("no replica {r} to restart")),
                }
            }
            SimCommand::Adapt { .. } => {
                let seen = match call(front, Client::adapt) {
                    Ok(report) => {
                        if report.outcome == ADAPT_PROMOTED {
                            let g = report.generation;
                            self.verifier.iter_mut().for_each(|v| v.installed(false, g));
                        }
                        let outcome = ADAPT_OUTCOMES.get(usize::from(report.outcome));
                        format!("{}:{}", outcome.unwrap_or(&"failed"), report.generation)
                    }
                    Err(e) => format!("error ({e})"),
                };
                self.tally.adapts.push(seen);
            }
            SimCommand::Rollback { tick } => {
                let seen = match call(front, Client::rollback) {
                    Ok(ack) if ack.rolled => {
                        let g = ack.generation;
                        self.verifier
                            .iter_mut()
                            .for_each(|v| v.installed(v.displaced, g));
                        "rolled".to_string()
                    }
                    Ok(_) => "unrolled".to_string(),
                    Err(e) => format!("error ({e})"),
                };
                self.tally.acks.insert(format!("rollback@{tick}"), seen);
            }
            SimCommand::RollbackTo { tick, generation } => {
                let seen = match call(front, |c| c.rollback_to(*generation)) {
                    Ok(Ok(ack)) => {
                        // Lineage generation 0 is the root this run's fresh
                        // chain took from `--bundle`.
                        let (bundle, g) = (ack.restored == 0, ack.serving);
                        self.verifier
                            .iter_mut()
                            .for_each(|v| v.installed(bundle, g));
                        format!("restored:{}", ack.restored)
                    }
                    Ok(Err(_)) => "refused".to_string(),
                    Err(e) => format!("error ({e})"),
                };
                self.tally.acks.insert(format!("rollback-to@{tick}"), seen);
            }
            SimCommand::CrashAdaptd { .. } => {
                // Capture the WAL's view of the settled window, then
                // SIGKILL — no handshake, no flush. The replayed count
                // after the restart is judged against exactly this.
                self.tally.wal_before_crash = scrape_wal(front);
                notes.push(self.topo.kill(self.topo.front_index()));
                // The connection died with the process on purpose: not an
                // untyped failure.
                self.pipe = None;
            }
            SimCommand::RestartAdaptd { .. } => match self.topo.restart(self.topo.front_index()) {
                Ok(_) => {
                    self.tally.wal_after_restart = scrape_wal(front);
                    self.verifier.iter_mut().for_each(|v| v.baseline.clear());
                }
                Err(e) => notes.push(e),
            },
        }
    }
}

/// Start the scenario's processes, replay `stream` against them, shut
/// them down and judge the run against the scenario's invariants. Blocks
/// until the run completes. Each call starts a fresh topology, so a
/// replay never meets state a previous run left behind.
pub fn run(stream: &CommandStream, spec: &ScenarioSpec, cfg: &SimConfig) -> RunReport {
    let inv = &spec.invariants;
    let mut tally = Tally::default();
    let front = spec.front.as_deref();
    let started = Topology::start(&spec.replicas, front, &cfg.deployment, cfg.front);
    let (topo, front) = match started.and_then(|t| Ok((t.front().ok_or("no front door")?, t))) {
        Ok((front, topo)) => (topo, front),
        Err(e) => {
            tally.notes.push(format!("topology did not start: {e}"));
            return judge(stream, inv, tally);
        }
    };
    let bundle = cfg.deployment.bundle.as_ref();
    let verifier = inv.verify_bits.then(|| Verifier::load(bundle));
    let verifier = verifier.and_then(|v| v.map_err(|e| tally.notes.push(e)).ok());
    tally.replica_names = (0..topo.replicas())
        .filter_map(|r| Some(topo.replica(r)?.0.to_string()))
        .collect();
    let (pipe, pending) = (None, HashMap::new());
    let mut d = Drive {
        topo,
        front,
        tally,
        pipe,
        pending,
        verifier,
    };
    let corpus: Vec<FuzzCase> = fuzz::malformed_corpus();
    let mut renderer = Renderer::new();
    for tick in 0..stream.ticks {
        for cmd in stream.commands.iter().filter(|c| c.tick() == tick) {
            d.step(cmd, &mut renderer, &corpus);
        }
        d.drain();
        d.collect_flight("front", front);
        if cfg.tick_ms > 0 && tick + 1 < stream.ticks {
            std::thread::sleep(Duration::from_millis(cfg.tick_ms));
        }
    }
    d.tally.stats = call(front, Client::stats_v2).ok();
    let live = d.topo.live_replicas();
    for (name, addr) in live.into_iter().chain([("front".to_string(), front)]) {
        if name != "front" {
            d.collect_flight(&name, addr);
        }
        if let Ok(Some(dump)) = call(addr, Client::metrics) {
            d.tally.metrics.insert(name, dump);
        }
    }
    if inv.expect_wal_recovery || inv.expect_lineage.is_some() {
        d.tally.wal_final = scrape_wal(front);
    }
    let mut tally = d.tally;
    tally.clean_exit = d.topo.stop(&mut tally.notes);
    judge(stream, inv, tally)
}

/// A metric's value for a check: a counter's or gauge's value, a
/// histogram's or sketch's count.
fn series(dump: &MetricsDump, name: &str) -> Option<u64> {
    dump.iter().find(|(n, _)| n == name).map(|(_, v)| match v {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
        MetricValue::Histogram(h) => h.count,
        MetricValue::Sketch(s) => s.count,
    })
}

/// Whether `check` holds on the front or on every replica, reading each
/// process's value with `read` (`None` = nothing to read: a fail).
fn scoped(tally: &Tally, check: &Expect, read: impl Fn(&str) -> Option<u64>) -> bool {
    let holds = |proc: &str| read(proc).is_some_and(|v| check.holds(v));
    match check.on_replicas {
        true => !tally.replica_names.is_empty() && tally.replica_names.iter().all(|r| holds(r)),
        false => holds("front"),
    }
}

fn judge(stream: &CommandStream, inv: &InvariantSpec, mut tally: Tally) -> RunReport {
    let p99_ms = p99(&mut tally.latencies_ms);
    let (t, n, stats) = (&tally, &tally.n, tally.stats.as_ref());
    let mut lines: Vec<(String, bool)> = Vec::new();
    let mut line = |on: bool, name: &str, ok: bool| on.then(|| lines.push((name.into(), ok)));
    let ok = n.torn_replies == 0;
    line(inv.zero_torn_replies, "zero-torn-replies", ok);
    let ok = n.untyped_failures == 0;
    line(inv.typed_failures_only, "typed-failures-only", ok);
    let ok = t.hostile_violations.is_empty();
    line(inv.hostile_contract, "hostile-contract", ok);
    // Judged on the replies the driver saw: a router's own view loses the
    // counters of a replica killed during the run.
    let shed = |max| n.overloaded as f64 <= max * n.submitted as f64;
    let ok = inv.max_shed_rate.is_some_and(shed);
    line(inv.max_shed_rate.is_some(), "max-shed-rate", ok);
    let ok = inv
        .p99_ms
        .zip(p99_ms)
        .is_some_and(|(ceiling, p)| p <= ceiling);
    line(inv.p99_ms.is_some(), "p99-ceiling", ok);
    let ok = n.scored >= inv.min_completed;
    line(inv.min_completed > 0, "min-completed", ok);
    for e in &inv.expect_flight {
        let named = |proc: &str| t.events(proc).iter().filter(|(k, _)| *k == e.name).count();
        let ok = !t.missed.contains(&e.name) && scoped(t, e, |p| Some(named(p) as u64));
        line(true, &format!("flight:{}", e.text), ok);
    }
    for e in &inv.expect_counter {
        let ok = scoped(t, e, |proc| series(t.metrics.get(proc)?, &e.name));
        line(true, &format!("counter:{}", e.text), ok);
    }
    if inv.expect_wal_recovery {
        // Zero lost votes: every record the WAL held when the SIGKILL
        // landed came back in the restarted process's replay, with no
        // torn records surviving. Exact when the server runs with
        // `--wal-fsync-ms 0`; a lazier fsync interval may legitimately
        // lose its tail and fail this line.
        let ok = match (&t.wal_before_crash, &t.wal_after_restart) {
            (Some(before), Some(after)) => after.replayed == before.buffered && after.torn == 0,
            _ => false,
        };
        line(true, "wal-replayed", ok);
        // Chain intact: the final wal-status must come from a validated
        // lineage store (open re-verifies the whole chain) with at least
        // the root generation recorded.
        let ok = t
            .wal_final
            .as_ref()
            .is_some_and(|w| w.chain_ok && w.lineage_entries >= 1);
        line(true, "chain-intact", ok);
    }
    let ok = t.adapts == inv.expect_adapt;
    let adapt = format!("adapt:{}", inv.expect_adapt.join(","));
    line(!inv.expect_adapt.is_empty(), &adapt, ok);
    for (key, want) in &inv.expect_ack {
        let ok = t.acks.get(key) == Some(want);
        line(true, &format!("{key}:{want}"), ok);
    }
    if let Some((head, entries)) = inv.expect_lineage {
        let at = |w: &WalStatusInfo| (w.lineage_head, u64::from(w.lineage_entries));
        let ok = t
            .wal_final
            .as_ref()
            .is_some_and(|w| w.chain_ok && at(w) == (head, entries));
        line(true, &format!("lineage:head={head},entries={entries}"), ok);
    }
    let ok = n.unknown_replies > 0 && stats.is_some_and(|s| s.unknown > 0);
    line(inv.require_unknown, "unknown-seen", ok);
    let ok = n.verified > 0 && n.mismatches == 0;
    line(inv.verify_bits, "verify-bits", ok);
    line(true, "clean-exit", t.clean_exit);

    let pass = lines.iter().all(|(_, ok)| *ok);
    let mut verdict = format!(
        "lre-trafficsim verdict\nscenario={} seed={} ticks={}\ncommands={} crc32={:08x}\n",
        stream.scenario,
        stream.seed,
        stream.ticks,
        stream.commands.len(),
        stream.crc32(),
    );
    for (name, ok) in &lines {
        verdict.push_str(&format!("{} {name}\n", if *ok { "PASS" } else { "FAIL" }));
    }
    verdict.push_str(&format!("result={}\n", if pass { "PASS" } else { "FAIL" }));

    let mut detail = format!("{:?}\n", t.n);
    let mut note = |line: String| detail.push_str(&format!("{line}\n"));
    p99_ms.iter().for_each(|p| note(format!("p99_ms={p:.1}")));
    t.stats.iter().for_each(|s| note(format!("{s:?}")));
    for (proc, events) in t.flight.iter().filter(|(_, e)| !e.is_empty()) {
        let kinds: BTreeSet<&str> = events.iter().map(|(k, _)| k.as_str()).collect();
        note(format!("flight {proc}: {kinds:?}"));
    }
    let violations = t
        .hostile_violations
        .iter()
        .map(|v| format!("hostile violation: {v}"));
    violations
        .chain(t.notes.iter().map(|n| format!("note: {n}")))
        .for_each(&mut note);
    let wal = [
        ("before-crash", &t.wal_before_crash),
        ("after-restart", &t.wal_after_restart),
    ];
    for (label, wal) in wal.into_iter().chain([("final", &t.wal_final)]) {
        wal.iter().for_each(|w| note(format!("wal {label}: {w:?}")));
    }
    if !t.adapts.is_empty() {
        note(format!("adapt acks: {}", t.adapts.join(",")));
    }
    t.acks
        .iter()
        .for_each(|(key, seen)| note(format!("{key}: {seen}")));
    RunReport {
        pass,
        verdict_text: verdict,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CommandStream;
    use crate::scenario::ScenarioSpec;

    #[test]
    fn p99_picks_the_tail() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99(&mut v), Some(99.0));
        assert_eq!(p99(&mut []), None);
        assert_eq!(p99(&mut [7.0]), Some(7.0));
    }

    #[test]
    fn outcome_names_follow_the_wire_values() {
        use lre_serve::protocol::{ADAPT_FAILED, ADAPT_INSUFFICIENT_DATA, ADAPT_REJECTED_GUARD};
        let name = |outcome: u8| ADAPT_OUTCOMES[usize::from(outcome)];
        assert_eq!(name(ADAPT_PROMOTED), "promoted");
        assert_eq!(name(ADAPT_REJECTED_GUARD), "rejected_guard");
        assert_eq!(name(ADAPT_INSUFFICIENT_DATA), "insufficient_data");
        assert_eq!(name(ADAPT_FAILED), "failed");
    }

    #[test]
    fn torn_versus_untyped_classification() {
        let torn = io::Error::new(ErrorKind::InvalidData, "bad reply frame: tag 99");
        assert!(matches!(classify_recv_error(&torn), RecvFault::Torn));
        let closed = io::Error::new(
            ErrorKind::InvalidData,
            "server closed with replies outstanding",
        );
        assert!(matches!(classify_recv_error(&closed), RecvFault::Untyped));
        let reset = io::Error::new(ErrorKind::ConnectionReset, "reset by peer");
        assert!(matches!(classify_recv_error(&reset), RecvFault::Untyped));
    }

    /// Judge `tally` against the invariants `text` declares, and return
    /// the one line `line` starts.
    fn verdict_line(text: &str, tally: Tally, line: &str) -> String {
        let spec = ScenarioSpec::parse(text).expect("spec parses");
        let stream = CommandStream {
            scenario: spec.name.clone(),
            seed: 1,
            ticks: spec.ticks,
            commands: Vec::new(),
        };
        let report = judge(&stream, &spec.invariants, tally);
        let found = report
            .verdict_text
            .lines()
            .find(|l| l[5..].starts_with(line));
        found
            .unwrap_or_else(|| panic!("no {line} line in\n{}", report.verdict_text))
            .to_string()
    }

    /// A tally in which every default invariant holds.
    fn healthy() -> Tally {
        Tally {
            n: Counts {
                scored: 10,
                ..Counts::default()
            },
            clean_exit: true,
            replica_names: vec!["replica0".into(), "replica1".into()],
            ..Tally::default()
        }
    }

    fn events(kinds: &[&str]) -> Vec<(String, String)> {
        kinds
            .iter()
            .map(|k| (k.to_string(), String::new()))
            .collect()
    }

    #[test]
    fn clean_exit_fails_a_run_whose_processes_did_not_exit_cleanly() {
        let pass = verdict_line("", healthy(), "clean-exit");
        assert_eq!(pass, "PASS clean-exit");
        let tally = Tally {
            clean_exit: false,
            ..healthy()
        };
        assert_eq!(verdict_line("", tally, "clean-exit"), "FAIL clean-exit");
    }

    #[test]
    fn max_shed_rate_is_judged_on_the_replies_not_the_fronts_stats() {
        let spec = "max_shed_rate = 0.5";
        let shed = |overloaded| {
            let mut t = healthy();
            (t.n.submitted, t.n.overloaded) = (10, overloaded);
            // The front's view reads no shed: a killed replica took them.
            t.stats = Some(StatsSnapshot::default());
            t
        };
        let line = "max-shed-rate";
        assert_eq!(verdict_line(spec, shed(5), line), "PASS max-shed-rate");
        assert_eq!(verdict_line(spec, shed(6), line), "FAIL max-shed-rate");
    }

    #[test]
    fn verify_bits_fails_on_a_mismatch_or_on_nothing_verified() {
        let spec = "verify_bits = true";
        let counted = |verified, mismatches| {
            let mut t = healthy();
            (t.n.verified, t.n.mismatches) = (verified, mismatches);
            t
        };
        let ok = counted(5, 0);
        assert_eq!(verdict_line(spec, ok, "verify-bits"), "PASS verify-bits");
        let bad = counted(5, 1);
        assert_eq!(verdict_line(spec, bad, "verify-bits"), "FAIL verify-bits");
        assert_eq!(
            verdict_line(spec, healthy(), "verify-bits"),
            "FAIL verify-bits"
        );
    }

    #[test]
    fn expect_adapt_fails_on_a_wrong_outcome_generation_or_count() {
        let spec = "expect_adapt = promoted:1, promoted:2";
        let acks = |a: &[&str]| Tally {
            adapts: a.iter().map(|s| s.to_string()).collect(),
            ..healthy()
        };
        let line = "adapt:promoted:1,promoted:2";
        assert!(verdict_line(spec, acks(&["promoted:1", "promoted:2"]), line).starts_with("PASS"));
        for wrong in [
            &["promoted:1", "rejected_guard:1"][..],
            &["promoted:1", "promoted:3"],
            &["promoted:1"],
            &["promoted:1", "promoted:2", "promoted:3"],
        ] {
            assert!(
                verdict_line(spec, acks(wrong), line).starts_with("FAIL"),
                "{wrong:?}"
            );
        }
    }

    #[test]
    fn rollback_acks_fail_when_the_ack_differs() {
        let spec = "rollback_at = 2:rolled\nrollback_to_at = 3:0:restored, 4:99:refused";
        let acks = |a: [&str; 3]| Tally {
            acks: BTreeMap::from([
                ("rollback@2".to_string(), a[0].to_string()),
                ("rollback-to@3".to_string(), a[1].to_string()),
                ("rollback-to@4".to_string(), a[2].to_string()),
            ]),
            ..healthy()
        };
        let good = ["rolled", "restored:0", "refused"];
        for (i, line) in [
            "rollback@2:rolled",
            "rollback-to@3:restored:0",
            "rollback-to@4:refused",
        ]
        .into_iter()
        .enumerate()
        {
            assert!(verdict_line(spec, acks(good), line).starts_with("PASS"));
            let mut bad = good;
            bad[i] = ["unrolled", "restored:1", "restored:99"][i];
            assert!(
                verdict_line(spec, acks(bad), line).starts_with("FAIL"),
                "{line}"
            );
        }
    }

    #[test]
    fn counted_scoped_flight_checks_fail_on_any_replica() {
        let spec = "expect_flight = eject, swap=1@replicas";
        let flight = |front: &[&str], r0: &[&str], r1: &[&str]| Tally {
            flight: BTreeMap::from([
                ("front".to_string(), events(front)),
                ("replica0".to_string(), events(r0)),
                ("replica1".to_string(), events(r1)),
            ]),
            ..healthy()
        };
        let good = || flight(&["eject"], &["swap"], &["swap", "rollback"]);
        assert!(verdict_line(spec, good(), "flight:eject").starts_with("PASS"));
        assert!(verdict_line(spec, good(), "flight:swap=1@replicas").starts_with("PASS"));
        let twice = flight(&["eject"], &["swap"], &["swap", "swap"]);
        assert!(verdict_line(spec, twice, "flight:swap=1@replicas").starts_with("FAIL"));
        let none = flight(&[], &["swap"], &["swap"]);
        assert!(verdict_line(spec, none, "flight:eject").starts_with("FAIL"));
        // An await that gave up fails the check even if the kind shows.
        let mut missed = good();
        missed.missed.insert("eject".into());
        assert!(verdict_line(spec, missed, "flight:eject").starts_with("FAIL"));
    }

    #[test]
    fn expect_counter_fails_on_a_missing_or_wrong_series() {
        let spec = "expect_counter = engine.fanout.tasks%6=0, engine.requests>=1@replicas";
        let dump = |v: u64| -> MetricsDump {
            vec![
                ("engine.fanout.tasks".to_string(), MetricValue::Counter(v)),
                ("engine.requests".to_string(), MetricValue::Counter(v)),
            ]
        };
        let metrics = |front: u64, r1: Option<u64>| Tally {
            metrics: [
                ("front", Some(front)),
                ("replica0", Some(front)),
                ("replica1", r1),
            ]
            .into_iter()
            .filter_map(|(n, v)| v.map(|v| (n.to_string(), dump(v))))
            .collect(),
            ..healthy()
        };
        let tasks = "counter:engine.fanout.tasks%6=0";
        let requests = "counter:engine.requests>=1@replicas";
        assert!(verdict_line(spec, metrics(12, Some(3)), tasks).starts_with("PASS"));
        assert!(verdict_line(spec, metrics(12, Some(3)), requests).starts_with("PASS"));
        assert!(verdict_line(spec, metrics(13, Some(3)), tasks).starts_with("FAIL"));
        assert!(verdict_line(spec, metrics(12, Some(0)), requests).starts_with("FAIL"));
        assert!(verdict_line(spec, metrics(12, None), requests).starts_with("FAIL"));
    }

    #[test]
    fn expect_lineage_fails_on_a_wrong_head_or_a_broken_chain() {
        let spec = "expect_lineage = head=3, entries=4";
        let wal = |head: u64, entries: u32, chain_ok: bool| Tally {
            wal_final: Some(WalStatusInfo {
                lineage_head: head,
                lineage_entries: entries,
                chain_ok,
                ..WalStatusInfo::default()
            }),
            ..healthy()
        };
        let line = "lineage:head=3,entries=4";
        assert!(verdict_line(spec, wal(3, 4, true), line).starts_with("PASS"));
        assert!(verdict_line(spec, wal(2, 4, true), line).starts_with("FAIL"));
        assert!(verdict_line(spec, wal(3, 3, true), line).starts_with("FAIL"));
        assert!(verdict_line(spec, wal(3, 4, false), line).starts_with("FAIL"));
        assert!(verdict_line(spec, healthy(), line).starts_with("FAIL"));
    }
}
