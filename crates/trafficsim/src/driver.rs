//! The live driver: replays a [`CommandStream`] against real serving
//! processes over TCP and judges the run against an [`InvariantSpec`].
//!
//! The driver never feeds anything it observes back into command
//! generation — the stream is fixed before the first byte hits the wire —
//! so a run's *plan* is deterministic even though the servers' *behavior*
//! (latencies, shed decisions, kill timing) is not. Verdict files quote
//! only the plan's identity (scenario, seed, command count, CRC) and
//! PASS/FAIL lines, never measured numbers, so a healthy replay produces
//! a byte-identical verdict file.

use crate::plan::{CommandStream, SimCommand, UttPlan};
use crate::scenario::InvariantSpec;
use lre_corpus::{build_language, render_utterance, Channel, LanguageId, LanguageModel, UttSpec};
use lre_phone::UniversalInventory;
use lre_serve::client::{Client, ScoreReply};
use lre_serve::fuzz::{self, FuzzCase};
use lre_serve::protocol::ADAPT_REJECTED_GUARD;
use lre_serve::{StatsSnapshot, WalStatusInfo};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Fixed corpus seed for rendering simulator traffic. Part of the replay
/// contract: the same plan must synthesize the same waveforms everywhere.
pub const SIM_CORPUS_SEED: u64 = 0x51B0_7261;

/// Where the simulator points its traffic.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scoring front door (a serve instance or a router).
    pub addr: SocketAddr,
    /// Replica addresses for `KillReplica` commands (direct, bypassing any
    /// router — that is the point of a kill).
    pub replicas: Vec<SocketAddr>,
    /// Endpoint for `Adapt` commands; defaults to `addr`.
    pub adapt_addr: Option<SocketAddr>,
    /// Wall-clock pause between ticks, letting health checks and ejection
    /// run. Does not influence the command stream.
    pub tick_ms: u64,
    /// Per-hostile-connection timeout.
    pub hostile_timeout: Duration,
    /// Shell command that starts the adapting server (`sh -c` syntax).
    /// When set, the driver spawns the process itself before the run and
    /// owns it, which is what lets `CrashAdaptd` deliver a real SIGKILL
    /// and `RestartAdaptd` respawn against the same `--wal-dir`.
    pub adaptd_cmd: Option<String>,
}

impl SimConfig {
    pub fn new(addr: SocketAddr) -> SimConfig {
        SimConfig {
            addr,
            replicas: Vec::new(),
            adapt_addr: None,
            tick_ms: 50,
            hostile_timeout: Duration::from_secs(5),
            adaptd_cmd: None,
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

/// Everything measured during a run, folded into verdicts at the end.
#[derive(Default)]
struct Tally {
    submitted: u64,
    scored: u64,
    unknown_replies: u64,
    typed_failures: u64,
    untyped_failures: u64,
    torn_replies: u64,
    hostile_runs: u64,
    hostile_violations: Vec<String>,
    adapt_outcomes: Vec<u8>,
    adapt_errors: Vec<String>,
    kill_notes: Vec<String>,
    latencies_ms: Vec<f64>,
    flight_seen: BTreeSet<String>,
    scrape_errors: u64,
    last_stats: Option<StatsSnapshot>,
    crash_notes: Vec<String>,
    /// WAL status scraped just before the SIGKILL (traffic settled).
    wal_before_crash: Option<WalStatusInfo>,
    /// WAL status scraped right after the restarted server came up.
    wal_after_restart: Option<WalStatusInfo>,
    /// WAL status from the end of the run.
    wal_final: Option<WalStatusInfo>,
}

fn p99(latencies: &mut [f64]) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((latencies.len() as f64) * 0.99).ceil() as usize;
    Some(latencies[idx.saturating_sub(1).min(latencies.len() - 1)])
}

/// Drain every outstanding reply on the pipe, folding outcomes into the
/// tally. On a connection fault the remaining in-flight requests are lost
/// un-replied and count as untyped failures.
fn drain(pipe: &mut Option<Client>, pending: &mut HashMap<u64, Instant>, tally: &mut Tally) {
    let Some(client) = pipe.as_mut() else {
        tally.untyped_failures += pending.len() as u64;
        pending.clear();
        return;
    };
    while client.inflight() > 0 {
        match client.recv() {
            Ok((id, reply)) => {
                if let Some(started) = pending.remove(&id) {
                    tally
                        .latencies_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                match reply {
                    ScoreReply::Scored(scored) => {
                        tally.scored += 1;
                        if scored.unknown {
                            tally.unknown_replies += 1;
                        }
                    }
                    ScoreReply::Overloaded
                    | ScoreReply::ShuttingDown
                    | ScoreReply::DeadlineExceeded
                    | ScoreReply::Failed => tally.typed_failures += 1,
                }
            }
            Err(e) => {
                match classify_recv_error(&e) {
                    RecvFault::Torn => tally.torn_replies += 1,
                    RecvFault::Untyped => tally.untyped_failures += 1,
                }
                // The stream is unusable; everything still pending is lost.
                tally.untyped_failures += pending.len().saturating_sub(1) as u64;
                pending.clear();
                *pipe = None;
                return;
            }
        }
    }
    // Replies that raced a reconnect (ids from a dropped connection).
    tally.untyped_failures += pending.len() as u64;
    pending.clear();
}

fn scrape(scrape_client: &mut Option<Client>, cfg: &SimConfig, tally: &mut Tally) {
    if scrape_client.is_none() {
        *scrape_client = Client::connect(cfg.addr).ok();
    }
    let Some(client) = scrape_client.as_mut() else {
        tally.scrape_errors += 1;
        return;
    };
    match client.stats_v2() {
        Ok(stats) => tally.last_stats = Some(stats),
        Err(_) => {
            tally.scrape_errors += 1;
            *scrape_client = None;
            return;
        }
    }
    if let Ok(Some(events)) = client.flight(false) {
        for ev in events {
            tally
                .flight_seen
                .insert(lre_obs::event_name(ev.kind).to_string());
        }
    }
}

/// Spawn the adapting server from its shell command. The command is
/// `exec`'d so the server *replaces* the shell: the [`Child`] handle —
/// and therefore `CrashAdaptd`'s SIGKILL — targets the server process
/// itself, not an intermediate `sh` that would die and leave the server
/// running (and still holding its port when the restart tries to bind).
fn spawn_adaptd(cmd: &str) -> io::Result<Child> {
    Command::new("sh")
        .arg("-c")
        .arg(format!("exec {cmd}"))
        .spawn()
}

/// Poll until `addr` accepts a TCP connection or the timeout lapses.
fn wait_for_tcp(addr: SocketAddr, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// One fresh-connection `wal-status` round trip; `None` when the peer is
/// unreachable or has no WAL.
fn scrape_wal(addr: SocketAddr) -> Option<WalStatusInfo> {
    Client::connect(addr)
        .ok()
        .and_then(|mut c| c.wal_status().ok())
        .flatten()
}

/// Stop a driver-owned adaptd: ask politely, then escalate to SIGKILL if
/// it lingers. Only used after the run is judged, so escalation cannot
/// affect any invariant.
fn stop_adaptd(mut child: Child, addr: SocketAddr, tally: &mut Tally) {
    let _ = Client::connect(addr).and_then(|mut c| c.shutdown());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                tally.crash_notes.push(format!("adaptd stopped: {status}"));
                return;
            }
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                tally
                    .crash_notes
                    .push("adaptd ignored shutdown; killed".into());
                return;
            }
        }
    }
}

/// Replay `stream` against the live target in `cfg` and judge it against
/// `invariants`. Blocks until the run completes.
pub fn run(stream: &CommandStream, invariants: &InvariantSpec, cfg: &SimConfig) -> RunReport {
    let corpus: Vec<FuzzCase> = fuzz::malformed_corpus();
    let mut renderer = Renderer::new();
    let mut tally = Tally::default();
    let mut pipe: Option<Client> = None;
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let mut scrape_client: Option<Client> = None;

    let adapt_target = cfg.adapt_addr.unwrap_or(cfg.addr);
    let mut adaptd: Option<Child> = None;
    if let Some(cmd) = &cfg.adaptd_cmd {
        match spawn_adaptd(cmd) {
            Ok(child) => {
                adaptd = Some(child);
                if !wait_for_tcp(adapt_target, Duration::from_secs(20)) {
                    tally
                        .crash_notes
                        .push(format!("spawned adaptd never opened {adapt_target}"));
                }
            }
            Err(e) => tally.crash_notes.push(format!("spawning adaptd: {e}")),
        }
    }

    for tick in 0..stream.ticks {
        for cmd in stream.commands.iter().filter(|c| c.tick() == tick) {
            match cmd {
                SimCommand::Score {
                    plan, deadline_ms, ..
                } => {
                    let samples = renderer.render(plan);
                    if pipe.is_none() {
                        pipe = Client::connect(cfg.addr).ok();
                    }
                    tally.submitted += 1;
                    let deadline = Some(Duration::from_millis(u64::from(*deadline_ms)));
                    match pipe.as_mut().map(|c| c.submit(&samples, deadline)) {
                        Some(Ok(id)) => {
                            pending.insert(id, Instant::now());
                        }
                        Some(Err(_)) => {
                            tally.untyped_failures += 1;
                            pipe = None;
                        }
                        None => tally.untyped_failures += 1,
                    }
                }
                SimCommand::Hostile { case_index, .. } => {
                    let case = &corpus[*case_index as usize % corpus.len()];
                    tally.hostile_runs += 1;
                    if let Err(e) = fuzz::run_case(cfg.addr, case, cfg.hostile_timeout) {
                        tally
                            .hostile_violations
                            .push(format!("case {:?}: {e}", case.name));
                    }
                }
                SimCommand::KillReplica { replica, .. } => {
                    // Settle outstanding scores first: the kill's blast
                    // radius should be the ticks after it, and a blocking
                    // admin call must not pollute measured latencies.
                    drain(&mut pipe, &mut pending, &mut tally);
                    match cfg.replicas.get(*replica as usize) {
                        Some(addr) => {
                            let note = Client::connect(addr)
                                .and_then(|mut c| c.shutdown())
                                .map_or_else(
                                    |e| format!("replica {replica} at {addr}: {e}"),
                                    |()| format!("replica {replica} at {addr}: shut down"),
                                );
                            tally.kill_notes.push(note);
                        }
                        None => tally
                            .kill_notes
                            .push(format!("replica {replica}: no such address configured")),
                    }
                }
                SimCommand::Adapt { .. } => {
                    // An adaptation cycle blocks for seconds; drain first so
                    // already-answered replies are not timed as if they took
                    // the whole cycle.
                    drain(&mut pipe, &mut pending, &mut tally);
                    match Client::connect(adapt_target).and_then(|mut c| c.adapt()) {
                        Ok(report) => tally.adapt_outcomes.push(report.outcome),
                        Err(e) => tally.adapt_errors.push(e.to_string()),
                    }
                }
                SimCommand::CrashAdaptd { .. } => {
                    // Settle outstanding scores, capture the WAL's view of
                    // the window, then SIGKILL — no handshake, no flush.
                    // The replayed count after the restart is judged
                    // against exactly this snapshot.
                    drain(&mut pipe, &mut pending, &mut tally);
                    tally.wal_before_crash = scrape_wal(adapt_target);
                    match adaptd.take() {
                        Some(mut child) => {
                            let note = match child.kill().and_then(|()| child.wait()) {
                                Ok(status) => format!("adaptd SIGKILLed ({status})"),
                                Err(e) => format!("adaptd SIGKILL failed: {e}"),
                            };
                            tally.crash_notes.push(note);
                        }
                        None => tally
                            .crash_notes
                            .push("crash planned but no --adaptd-cmd given".into()),
                    }
                    // The driver knows these connections died with the
                    // process; dropping them here is deliberate, not an
                    // untyped failure.
                    pipe = None;
                    scrape_client = None;
                }
                SimCommand::RestartAdaptd { .. } => match cfg.adaptd_cmd.as_deref() {
                    Some(cmd) => match spawn_adaptd(cmd) {
                        Ok(child) => {
                            adaptd = Some(child);
                            if wait_for_tcp(adapt_target, Duration::from_secs(20)) {
                                tally.wal_after_restart = scrape_wal(adapt_target);
                                tally.crash_notes.push("adaptd restarted".into());
                            } else {
                                tally
                                    .crash_notes
                                    .push("restarted adaptd never opened its port".into());
                            }
                        }
                        Err(e) => tally.crash_notes.push(format!("respawning adaptd: {e}")),
                    },
                    None => tally
                        .crash_notes
                        .push("restart planned but no --adaptd-cmd given".into()),
                },
            }
        }
        drain(&mut pipe, &mut pending, &mut tally);
        scrape(&mut scrape_client, cfg, &mut tally);
        if cfg.tick_ms > 0 && tick + 1 < stream.ticks {
            std::thread::sleep(Duration::from_millis(cfg.tick_ms));
        }
    }
    // Post-run settle, then one final scrape so late health checks (e.g.
    // ejection of a replica killed on the last tick) are visible.
    if cfg.tick_ms > 0 {
        std::thread::sleep(Duration::from_millis(cfg.tick_ms.max(100)));
    }
    scrape(&mut scrape_client, cfg, &mut tally);
    if invariants.expect_wal_recovery || tally.wal_before_crash.is_some() {
        tally.wal_final = scrape_wal(adapt_target);
    }
    if let Some(child) = adaptd.take() {
        stop_adaptd(child, adapt_target, &mut tally);
    }

    judge(stream, invariants, tally)
}

fn judge(stream: &CommandStream, inv: &InvariantSpec, mut tally: Tally) -> RunReport {
    let mut lines: Vec<(String, bool)> = Vec::new();
    let stats = tally.last_stats;

    if inv.zero_torn_replies {
        lines.push(("zero-torn-replies".into(), tally.torn_replies == 0));
    }
    if inv.typed_failures_only {
        lines.push(("typed-failures-only".into(), tally.untyped_failures == 0));
    }
    if inv.hostile_contract {
        lines.push((
            "hostile-contract".into(),
            tally.hostile_violations.is_empty(),
        ));
    }
    if let Some(max) = inv.max_shed_rate {
        let ok = stats
            .as_ref()
            .is_some_and(|s| s.requests == 0 || (s.rejected as f64 / s.requests as f64) <= max);
        lines.push(("max-shed-rate".into(), ok));
    }
    if let Some(ceiling) = inv.p99_ms {
        let ok = p99(&mut tally.latencies_ms).is_some_and(|p| p <= ceiling);
        lines.push(("p99-ceiling".into(), ok));
    }
    if inv.min_completed > 0 {
        lines.push(("min-completed".into(), tally.scored >= inv.min_completed));
    }
    for name in &inv.expect_flight {
        lines.push((format!("flight:{name}"), tally.flight_seen.contains(name)));
    }
    if inv.expect_wal_recovery {
        // Zero lost votes: every record the WAL held when the SIGKILL
        // landed came back in the restarted process's replay, with no
        // torn records surviving. Exact when the server runs with
        // `--wal-fsync-ms 0`; a lazier fsync interval may legitimately
        // lose its tail and fail this line.
        let replayed_ok = match (&tally.wal_before_crash, &tally.wal_after_restart) {
            (Some(before), Some(after)) => after.replayed == before.buffered && after.torn == 0,
            _ => false,
        };
        lines.push(("wal-replayed".into(), replayed_ok));
        // Chain intact: the final wal-status must come from a validated
        // lineage store (open re-verifies the whole chain) with at least
        // the root generation recorded.
        let chain_ok = tally
            .wal_final
            .as_ref()
            .is_some_and(|w| w.chain_ok && w.lineage_entries >= 1);
        lines.push(("chain-intact".into(), chain_ok));
    }
    if inv.expect_guard_reject {
        let ok = !tally.adapt_outcomes.is_empty()
            && tally
                .adapt_outcomes
                .iter()
                .all(|&o| o == ADAPT_REJECTED_GUARD)
            && tally.adapt_errors.is_empty()
            && stats.as_ref().is_some_and(|s| s.generation == 0);
        lines.push(("guard-reject".into(), ok));
    }
    if inv.require_unknown {
        let ok = tally.unknown_replies > 0 && stats.as_ref().is_some_and(|s| s.unknown > 0);
        lines.push(("unknown-seen".into(), ok));
    }

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
        verdict.push_str(if *ok { "PASS " } else { "FAIL " });
        verdict.push_str(name);
        verdict.push('\n');
    }
    verdict.push_str(if pass {
        "result=PASS\n"
    } else {
        "result=FAIL\n"
    });

    let mut detail = format!(
        "submitted={} scored={} unknown_replies={} typed_failures={} untyped_failures={} \
         torn_replies={} hostile_runs={} hostile_violations={} scrape_errors={}\n",
        tally.submitted,
        tally.scored,
        tally.unknown_replies,
        tally.typed_failures,
        tally.untyped_failures,
        tally.torn_replies,
        tally.hostile_runs,
        tally.hostile_violations.len(),
        tally.scrape_errors,
    );
    if let Some(p) = p99(&mut tally.latencies_ms) {
        detail.push_str(&format!("p99_ms={p:.1}\n"));
    }
    if let Some(s) = &stats {
        detail.push_str(&format!(
            "stats: requests={} completed={} rejected={} expired={} failed={} generation={} unknown={}\n",
            s.requests, s.completed, s.rejected, s.expired, s.failed, s.generation, s.unknown,
        ));
    }
    if !tally.flight_seen.is_empty() {
        let names: Vec<&str> = tally.flight_seen.iter().map(String::as_str).collect();
        detail.push_str(&format!("flight events seen: {}\n", names.join(",")));
    }
    for v in &tally.hostile_violations {
        detail.push_str(&format!("hostile violation: {v}\n"));
    }
    for n in &tally.kill_notes {
        detail.push_str(&format!("kill: {n}\n"));
    }
    for n in &tally.crash_notes {
        detail.push_str(&format!("adaptd: {n}\n"));
    }
    for (label, wal) in [
        ("before-crash", &tally.wal_before_crash),
        ("after-restart", &tally.wal_after_restart),
        ("final", &tally.wal_final),
    ] {
        if let Some(w) = wal {
            detail.push_str(&format!(
                "wal {label}: appended={} buffered={} replayed={} torn={} segments={} \
                 lineage_head={} entries={} retained={}\n",
                w.appended,
                w.buffered,
                w.replayed,
                w.torn,
                w.segments,
                w.lineage_head,
                w.lineage_entries,
                w.lineage_retained,
            ));
        }
    }
    for e in &tally.adapt_errors {
        detail.push_str(&format!("adapt error: {e}\n"));
    }
    if !tally.adapt_outcomes.is_empty() {
        detail.push_str(&format!("adapt outcomes: {:?}\n", tally.adapt_outcomes));
    }

    RunReport {
        pass,
        verdict_text: verdict,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_picks_the_tail() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99(&mut v), Some(99.0));
        assert_eq!(p99(&mut []), None);
        assert_eq!(p99(&mut [7.0]), Some(7.0));
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
}
