//! Scenarios and the pure command generator.
//!
//! A [`ScenarioSpec`] composes the traffic shapes real deployments see —
//! diurnal load curves, bursts, hostile clients from the fuzz corpus,
//! deadline mixes, channel/SNR drift across ticks, code-switching
//! utterances, and open-set segments in languages the system was never
//! trained on — plus the processes the run drives and the
//! [`InvariantSpec`] it is judged against. Every scenario is a `key =
//! value` text file ([`ScenarioSpec::parse`]); the built-ins are the
//! files under `crates/trafficsim/scenarios/`, embedded at build time.
//!
//! [`generate`] expands a spec + seed into a [`CommandStream`] using only
//! seeded RNG draws and integer/affine arithmetic (no transcendentals, no
//! clocks), so identical inputs give byte-identical streams. The diurnal
//! curve is a triangle wave and bursts are binomial (4·mean trials at
//! p=¼ ≈ Poisson(mean)) for exactly that reason.

use crate::plan::{CommandStream, SimCommand, UttPlan};
use lre_corpus::DeriveRng;
use rand::RngExt;
use std::collections::BTreeMap;

/// Indices into [`LanguageId::all`]: the two trailing entries are the
/// out-of-set languages (no target detector exists for them).
const NUM_LANGUAGES: u8 = 25;
const NUM_TARGETS: u8 = 23;

/// The built-in scenario files, in `--list` order.
const BUILTIN: [&str; 9] = [
    include_str!("../scenarios/burst-kill.scn"),
    include_str!("../scenarios/drift-guard.scn"),
    include_str!("../scenarios/phantom-eject.scn"),
    include_str!("../scenarios/crash-recover.scn"),
    include_str!("../scenarios/serve-smoke.scn"),
    include_str!("../scenarios/adapt-live.scn"),
    include_str!("../scenarios/fleet.scn"),
    include_str!("../scenarios/fleet-reject.scn"),
    include_str!("../scenarios/deep-rollback.scn"),
];

/// Adaptation outcomes by their `ADAPT_*` wire value.
pub const ADAPT_OUTCOMES: [&str; 4] = ["promoted", "rejected_guard", "insufficient_data", "failed"];

/// A counted check on flight-recorder events or on one metric series,
/// written `NAME[%M](=|>=)N[@replicas]`, judged on the front process or,
/// with `@replicas`, on every replica. A bare `NAME` means `NAME>=1`. For
/// a series the value is a counter's or gauge's value, or a histogram's
/// or sketch's count; `%M` takes it modulo M.
#[derive(Clone, Debug, PartialEq)]
pub struct Expect {
    /// The check as written; the verdict quotes it.
    pub text: String,
    pub name: String,
    pub modulo: Option<u64>,
    /// `>=` when true, `=` otherwise.
    pub at_least: bool,
    pub value: u64,
    pub on_replicas: bool,
}

impl Expect {
    fn parse(text: &str) -> Result<Expect, String> {
        let bad = || format!("bad check {text:?} (want NAME[%M](=|>=)N[@replicas])");
        let (body, on_replicas) = match text.split_once('@') {
            None => (text, false),
            Some((body, "replicas")) => (body, true),
            Some(_) => return Err(bad()),
        };
        let (lhs, at_least, value) = match (body.split_once(">="), body.split_once('=')) {
            (Some((lhs, n)), _) => (lhs, true, n.trim().parse().map_err(|_| bad())?),
            (None, Some((lhs, n))) => (lhs, false, n.trim().parse().map_err(|_| bad())?),
            (None, None) => (body, true, 1),
        };
        let (name, modulo) = match lhs.split_once('%') {
            Some((name, m)) => (name, Some(m.trim().parse().map_err(|_| bad())?)),
            None => (lhs, None),
        };
        if name.trim().is_empty() || modulo == Some(0) {
            return Err(bad());
        }
        Ok(Expect {
            text: text.to_string(),
            name: name.trim().to_string(),
            modulo,
            at_least,
            value,
            on_replicas,
        })
    }

    pub fn holds(&self, observed: u64) -> bool {
        let v = self.modulo.map_or(observed, |m| observed % m);
        if self.at_least {
            v >= self.value
        } else {
            v == self.value
        }
    }
}

/// What the run must uphold. Every field with `Option`/`bool` off is
/// simply not checked — scenarios assert only what they arrange to test.
/// Every run is also judged `clean-exit`: after the closing shutdown each
/// process exits 0 within 30 s, leaves no scratch vote window of its own
/// in the work dir, and has no panic in its log. A scenario file
/// starts from torn-free, typed-only, hostile-clean and one completion.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InvariantSpec {
    /// Scores answered `overloaded`, per score submitted, must stay at or
    /// below this.
    pub max_shed_rate: Option<f64>,
    /// Client-observed p99 score latency (ms) must stay at or below this.
    pub p99_ms: Option<f64>,
    /// No reply frame may ever fail to decode.
    pub zero_torn_replies: bool,
    /// Every failed request must fail with a *typed* protocol status
    /// (overloaded / shutting down / deadline / internal) — never a raw
    /// connection error. The invariant under replica kills.
    pub typed_failures_only: bool,
    /// Flight-recorder event counts (`eject`, `swap=1@replicas`, …).
    pub expect_flight: Vec<Expect>,
    /// Metric series read from the final stats-v3 dumps.
    pub expect_counter: Vec<Expect>,
    /// The run must complete at least this many scores.
    pub min_completed: u64,
    /// The scraped `unknown` counter must be positive (open-set traffic
    /// against a thresholded server must actually be flagged).
    pub require_unknown: bool,
    /// No hostile connection or fuzz pass may violate the malformed-input
    /// contract.
    pub hostile_contract: bool,
    /// The run crashed and restarted the adapting server: the WAL replay
    /// after the restart must account for every vote buffered before the
    /// SIGKILL (zero lost votes, zero torn records), and the generation
    /// lineage chain must still validate at the end of the run.
    pub expect_wal_recovery: bool,
    /// Every scored reply from a serving generation the driver knows
    /// serves `--bundle` is `f32::to_bits`-equal to a local scorer's.
    pub verify_bits: bool,
    /// Each adaptation cycle's ack, in order, as `OUTCOME:GENERATION`.
    pub expect_adapt: Vec<String>,
    /// Each rollback's expected ack, keyed `rollback@TICK` (`rolled` /
    /// `unrolled`) or `rollback-to@TICK` (`restored:GEN` / `refused`).
    pub expect_ack: BTreeMap<String, String>,
    /// `(head, entries)` of a validated lineage chain at the end.
    pub expect_lineage: Option<(u64, u64)>,
}

/// SNR drift across the run: linear from `start_snr_db` at tick 0 to
/// `end_snr_db` at the last tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftPlan {
    pub start_snr_db: f32,
    pub end_snr_db: f32,
}

/// One composable scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    /// One-line description for `--list`.
    pub about: String,
    /// Process lines (`replica = lre-serve --bundle {bundle} …`), one
    /// per replica, in index order. See [`crate::topology`].
    pub replicas: Vec<String>,
    /// The process every request, control call and shutdown goes to.
    pub front: Option<String>,
    pub ticks: u32,
    /// Mean scores per tick before the diurnal factor.
    pub base_load: u32,
    /// Diurnal swing as a fraction of base load (triangle wave over
    /// `diurnal_period` ticks). 0 disables.
    pub diurnal_amplitude: f64,
    pub diurnal_period: u32,
    /// Per-tick probability of a burst.
    pub burst_prob: f64,
    /// Mean extra scores in a burst (binomial approximation of Poisson).
    pub burst_mean: u32,
    /// Hostile fuzz-corpus connections per tick.
    pub hostile_per_tick: u32,
    /// Fraction of requests carrying the short deadline.
    pub short_deadline_frac: f64,
    pub short_deadline_ms: u32,
    pub long_deadline_ms: u32,
    /// Utterance length in 10 ms frames.
    pub utt_frames: u32,
    /// SNR drift; `None` holds 15 dB with ±3 dB jitter.
    pub drift: Option<DriftPlan>,
    /// Probability an utterance code-switches halfway.
    pub code_switch_prob: f64,
    /// Probability an utterance is in an out-of-set language.
    pub open_set_prob: f64,
    /// `(tick, replica_index)`: SIGKILL that replica at the end of that
    /// tick.
    pub kill_replica_at: Option<(u32, u32)>,
    /// `(tick, replica_index)`: respawn that replica on its port at the
    /// start of that tick.
    pub restart_replica_at: Option<(u32, u32)>,
    /// Trigger one adaptation cycle at the end of each of these ticks.
    pub adapt_at: Vec<u32>,
    /// SIGKILL the front process at the *end* of this tick (after its
    /// traffic has settled).
    pub crash_adaptd_at: Option<u32>,
    /// Respawn the front process at the *start* of this tick, before any
    /// of its traffic is submitted.
    pub restart_adaptd_at: Option<u32>,
    /// Run the whole malformed corpus against the front in this tick.
    pub fuzz_at: Option<u32>,
    /// One-deep rollbacks, at the end of each tick.
    pub rollback_at: Vec<u32>,
    /// `(tick, generation)`: deep rollbacks, at the end of each tick.
    pub rollback_to_at: Vec<(u32, u64)>,
    pub invariants: InvariantSpec,
}

/// Triangle wave in [-1, 1] with the given period — the deterministic
/// stand-in for a diurnal sine.
fn triangle(tick: u32, period: u32) -> f64 {
    let period = period.max(2);
    let phase = (tick % period) as f64 / period as f64; // [0, 1)
    1.0 - 4.0 * (phase - 0.5).abs()
}

/// Binomial(4·mean, ¼) — mean `mean`, shaped like a Poisson burst, built
/// from bounded integer draws only.
fn burst_size<R: RngExt>(rng: &mut R, mean: u32) -> u32 {
    (0..4 * mean)
        .filter(|_| rng.random_range(0u32..4) == 0)
        .count() as u32
}

/// Expand a scenario + seed into its command stream. Pure: same inputs,
/// byte-identical output, regardless of what any server does.
pub fn generate(spec: &ScenarioSpec, seed: u64) -> CommandStream {
    let root = DeriveRng::new(seed);
    let mut commands = Vec::new();
    for tick in 0..spec.ticks {
        let mut rng = root.derive(u64::from(tick)).rng();
        // Restarts come first within their tick so the tick's traffic
        // lands on the revived process, and the crash comes last so the
        // tick's traffic settles before the SIGKILL — no scores are ever
        // planned into the window where the server is down.
        use SimCommand as C;
        let on = |at: Option<u32>, cmd: SimCommand| (at == Some(tick)).then_some(cmd);
        let listed = |ticks: &[u32]| ticks.contains(&tick).then_some(tick);
        let (restart_at, restart) = spec.restart_replica_at.unzip();
        let (kill_at, kill) = spec.kill_replica_at.unzip();
        commands.extend(on(spec.restart_adaptd_at, C::RestartAdaptd { tick }));
        let replica = restart.unwrap_or(0);
        commands.extend(on(restart_at, C::RestartReplica { tick, replica }));
        let factor = 1.0 + spec.diurnal_amplitude * triangle(tick, spec.diurnal_period);
        let mut load = (spec.base_load as f64 * factor).round() as u32;
        if spec.burst_prob > 0.0 && rng.random::<f64>() < spec.burst_prob {
            load += burst_size(&mut rng, spec.burst_mean);
        }
        for _ in 0..load {
            let open_set = spec.open_set_prob > 0.0 && rng.random::<f64>() < spec.open_set_prob;
            let language = if open_set {
                NUM_TARGETS + rng.random_range(0u32..u32::from(NUM_LANGUAGES - NUM_TARGETS)) as u8
            } else {
                rng.random_range(0u32..u32::from(NUM_TARGETS)) as u8
            };
            let second_language = if !open_set
                && spec.code_switch_prob > 0.0
                && rng.random::<f64>() < spec.code_switch_prob
            {
                // A different target language for the second half.
                let other = rng.random_range(0u32..u32::from(NUM_TARGETS - 1)) as u8;
                Some(if other >= language { other + 1 } else { other })
            } else {
                None
            };
            let snr_db = match spec.drift {
                Some(d) => {
                    let t = if spec.ticks > 1 {
                        tick as f32 / (spec.ticks - 1) as f32
                    } else {
                        0.0
                    };
                    d.start_snr_db + (d.end_snr_db - d.start_snr_db) * t
                }
                None => 12.0 + rng.random_range(0u32..7) as f32, // 12..18 dB
            };
            let deadline_ms = if rng.random::<f64>() < spec.short_deadline_frac {
                spec.short_deadline_ms
            } else {
                spec.long_deadline_ms
            };
            commands.push(SimCommand::Score {
                tick,
                plan: UttPlan {
                    language,
                    second_language,
                    num_frames: spec.utt_frames,
                    seed: rng.random::<u64>(),
                    speaker_seed: rng.random::<u64>(),
                    voa: rng.random::<bool>(),
                    snr_db,
                    open_set,
                },
                deadline_ms,
            });
        }
        for _ in 0..spec.hostile_per_tick {
            commands.push(SimCommand::Hostile {
                tick,
                case_index: rng.random::<u32>(),
            });
        }
        commands.extend(on(spec.fuzz_at, C::Fuzz { tick }));
        let replica = kill.unwrap_or(0);
        commands.extend(on(kill_at, C::KillReplica { tick, replica }));
        commands.extend(on(listed(&spec.adapt_at), C::Adapt { tick }));
        commands.extend(on(listed(&spec.rollback_at), C::Rollback { tick }));
        for &(_, generation) in spec.rollback_to_at.iter().filter(|(t, _)| *t == tick) {
            commands.push(C::RollbackTo { tick, generation });
        }
        commands.extend(on(spec.crash_adaptd_at, C::CrashAdaptd { tick }));
    }
    CommandStream {
        scenario: spec.name.clone(),
        seed,
        ticks: spec.ticks,
        commands,
    }
}

/// All built-in scenarios, parsed from their embedded files.
pub fn builtin_scenarios() -> Vec<ScenarioSpec> {
    BUILTIN
        .iter()
        .map(|text| ScenarioSpec::parse(text).expect("embedded scenario parses"))
        .collect()
}

/// Look a scenario up by its stream-recorded name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

/// Split a comma-separated list, dropping empty items.
fn items(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

impl ScenarioSpec {
    /// Parse a scenario from the text format: one `key = value` per line,
    /// `#` starts a comment, unset keys keep quiet defaults (no bursts, no
    /// hostiles, no kills, no processes, default invariants). List keys
    /// take comma-separated items, and `TICK:…` items split at `:`.
    /// Unknown keys, unknown placeholders and malformed values are hard
    /// errors: a typo must not silently weaken what a run asserts.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec {
            name: "custom".into(),
            about: "scenario loaded from a file".into(),
            ticks: 4,
            base_load: 4,
            diurnal_period: 4,
            short_deadline_ms: 250,
            long_deadline_ms: 10_000,
            utt_frames: 75,
            invariants: InvariantSpec {
                zero_torn_replies: true,
                typed_failures_only: true,
                hostile_contract: true,
                min_completed: 1,
                ..InvariantSpec::default()
            },
            ..ScenarioSpec::default()
        };
        let mut drift_start: Option<f32> = None;
        let mut drift_end: Option<f32> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |want: &str| format!("line {lineno}: bad value for {key} (want {want})");
            macro_rules! num {
                ($want:literal) => {
                    value.parse().map_err(|_| bad($want))?
                };
                ($s:expr, $want:literal) => {
                    $s.parse().map_err(|_| bad($want))?
                };
            }
            let flag = || match value {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err(bad("true|false")),
            };
            // The items of a list value, each split at `:` into `n` fields.
            let fields = |n: usize, want: &str| {
                let split = |item| str::split(item, ':').map(str::trim).collect::<Vec<_>>();
                let all: Vec<Vec<&str>> = items(value).map(split).collect();
                match all.iter().all(|f| f.len() == n) {
                    true => Ok(all),
                    false => Err(bad(want)),
                }
            };
            let at_line = |e: String| format!("line {lineno}: {e}");
            let process = || crate::topology::check_line(value).map(|()| value.to_string());
            let inv = &mut spec.invariants;
            match key {
                "name" => spec.name = value.to_string(),
                "about" => spec.about = value.to_string(),
                "replica" => spec.replicas.push(process().map_err(at_line)?),
                "front" => spec.front = Some(process().map_err(at_line)?),
                "ticks" => spec.ticks = num!("u32"),
                "base_load" => spec.base_load = num!("u32"),
                "diurnal_amplitude" => spec.diurnal_amplitude = num!("f64"),
                "diurnal_period" => spec.diurnal_period = num!("u32"),
                "burst_prob" => spec.burst_prob = num!("f64"),
                "burst_mean" => spec.burst_mean = num!("u32"),
                "hostile_per_tick" => spec.hostile_per_tick = num!("u32"),
                "short_deadline_frac" => spec.short_deadline_frac = num!("f64"),
                "short_deadline_ms" => spec.short_deadline_ms = num!("u32"),
                "long_deadline_ms" => spec.long_deadline_ms = num!("u32"),
                "utt_frames" => spec.utt_frames = num!("u32"),
                "drift_start_snr_db" => drift_start = Some(num!("f32")),
                "drift_end_snr_db" => drift_end = Some(num!("f32")),
                "code_switch_prob" => spec.code_switch_prob = num!("f64"),
                "open_set_prob" => spec.open_set_prob = num!("f64"),
                "kill_replica_at" | "restart_replica_at" => {
                    let f = &fields(2, "TICK:REPLICA")?[..];
                    let [f] = f else {
                        return Err(bad("TICK:REPLICA"));
                    };
                    let at = Some((num!(f[0], "TICK:REPLICA"), num!(f[1], "TICK:REPLICA")));
                    match key {
                        "kill_replica_at" => spec.kill_replica_at = at,
                        _ => spec.restart_replica_at = at,
                    }
                }
                "adapt_at" => {
                    for f in fields(1, "TICK, …")? {
                        spec.adapt_at.push(num!(f[0], "TICK, …"));
                    }
                }
                "crash_adaptd_at" => spec.crash_adaptd_at = Some(num!("u32")),
                "restart_adaptd_at" => spec.restart_adaptd_at = Some(num!("u32")),
                "fuzz_at" => spec.fuzz_at = Some(num!("u32")),
                "rollback_at" => {
                    for f in fields(2, "TICK:rolled|unrolled, …")? {
                        let tick: u32 = num!(f[0], "TICK:rolled|unrolled, …");
                        if !matches!(f[1], "rolled" | "unrolled") {
                            return Err(bad("TICK:rolled|unrolled, …"));
                        }
                        spec.rollback_at.push(tick);
                        inv.expect_ack
                            .insert(format!("rollback@{tick}"), f[1].into());
                    }
                }
                "rollback_to_at" => {
                    for f in fields(3, "TICK:GEN:restored|refused, …")? {
                        let tick: u32 = num!(f[0], "TICK:GEN:restored|refused, …");
                        let generation: u64 = num!(f[1], "TICK:GEN:restored|refused, …");
                        let ack = match f[2] {
                            "restored" => format!("restored:{generation}"),
                            "refused" => "refused".to_string(),
                            _ => return Err(bad("TICK:GEN:restored|refused, …")),
                        };
                        spec.rollback_to_at.push((tick, generation));
                        inv.expect_ack.insert(format!("rollback-to@{tick}"), ack);
                    }
                }
                "max_shed_rate" => inv.max_shed_rate = Some(num!("f64")),
                "p99_ms" => inv.p99_ms = Some(num!("f64")),
                "zero_torn_replies" => inv.zero_torn_replies = flag()?,
                "typed_failures_only" => inv.typed_failures_only = flag()?,
                "expect_flight" | "expect_counter" => {
                    let checks = items(value).map(Expect::parse);
                    let checks = checks.collect::<Result<_, _>>().map_err(at_line)?;
                    match key {
                        "expect_flight" => inv.expect_flight = checks,
                        _ => inv.expect_counter = checks,
                    }
                }
                "expect_adapt" => {
                    for f in fields(2, "OUTCOME:GEN, …")? {
                        if !ADAPT_OUTCOMES.contains(&f[0]) || f[1].parse::<u64>().is_err() {
                            return Err(bad("OUTCOME:GEN, …"));
                        }
                    }
                    inv.expect_adapt = items(value).map(str::to_string).collect();
                }
                "expect_lineage" => {
                    let want = |k: &str| {
                        let v = items(value).find_map(|i| i.strip_prefix(k)?.strip_prefix('='));
                        v.and_then(|v| v.trim().parse().ok())
                    };
                    let head_entries = want("head").zip(want("entries"));
                    inv.expect_lineage =
                        Some(head_entries.ok_or_else(|| bad("head=N, entries=N"))?);
                }
                "min_completed" => inv.min_completed = num!("u64"),
                "require_unknown" => inv.require_unknown = flag()?,
                "hostile_contract" => inv.hostile_contract = flag()?,
                "expect_wal_recovery" => inv.expect_wal_recovery = flag()?,
                "verify_bits" => inv.verify_bits = flag()?,
                _ => return Err(format!("line {lineno}: unknown key {key:?}")),
            }
        }
        if spec.ticks == 0 {
            return Err("ticks must be positive".into());
        }
        spec.drift = match (drift_start, drift_end) {
            (Some(start_snr_db), Some(end_snr_db)) => Some(DriftPlan {
                start_snr_db,
                end_snr_db,
            }),
            (None, None) => None,
            _ => {
                return Err("drift_start_snr_db and drift_end_snr_db must be given together".into())
            }
        };
        if let (Some(crash), Some(restart)) = (spec.crash_adaptd_at, spec.restart_adaptd_at) {
            if restart <= crash {
                return Err("restart_adaptd_at must come after crash_adaptd_at".into());
            }
        }
        if let (Some((kill, r)), Some((restart, q))) =
            (spec.kill_replica_at, spec.restart_replica_at)
        {
            if restart <= kill || r != q {
                return Err("restart_replica_at must restart the killed replica later".into());
            }
        }
        if !spec.replicas.is_empty() && spec.front.is_none() {
            return Err("replica processes need a front process".into());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin(name: &str) -> ScenarioSpec {
        by_name(name).expect("built-in scenario")
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let spec = builtin("burst-kill");
        let a = generate(&spec, 42).encode();
        let b = generate(&spec, 42).encode();
        assert_eq!(a, b, "generation must be a pure function of the seed");
        let c = generate(&spec, 43).encode();
        assert_ne!(a, c, "different seeds must produce different traffic");
        // The quoted CRC must identify the plan, not the container format
        // (the CRC of `data ‖ crc(data)` is the same constant for every
        // sealed artifact — quoting that would prove nothing).
        assert_ne!(
            generate(&spec, 42).crc32(),
            generate(&spec, 43).crc32(),
            "stream CRC must depend on the plan"
        );
        assert_ne!(
            generate(&spec, 42).crc32(),
            generate(&builtin("drift-guard"), 42).crc32(),
            "stream CRC must depend on the scenario"
        );
    }

    #[test]
    fn streams_roundtrip_through_the_artifact_container() {
        for spec in builtin_scenarios() {
            let stream = generate(&spec, 7);
            let back = CommandStream::decode(&stream.encode()).expect("decodes");
            assert_eq!(back, stream, "scenario {}", spec.name);
        }
    }

    #[test]
    fn corrupted_streams_are_typed_errors() {
        let mut bytes = generate(&builtin("burst-kill"), 9).encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(CommandStream::decode(&bytes).is_err(), "bit flip accepted");
        let truncated = &bytes[..bytes.len() - 8];
        assert!(
            CommandStream::decode(truncated).is_err(),
            "truncation accepted"
        );
    }

    #[test]
    fn crash_recover_plans_the_outage_window_empty() {
        let stream = generate(&builtin("crash-recover"), 11);
        let crash_pos = stream
            .commands
            .iter()
            .position(|c| matches!(c, SimCommand::CrashAdaptd { tick: 3 }))
            .expect("crash command planned");
        let restart_pos = stream
            .commands
            .iter()
            .position(|c| matches!(c, SimCommand::RestartAdaptd { tick: 4 }))
            .expect("restart command planned");
        assert!(crash_pos < restart_pos);
        // Nothing is planned between the SIGKILL and the respawn: the
        // crash is the last command of its tick, the restart the first of
        // its — otherwise planned traffic would target a dead server.
        assert_eq!(
            restart_pos,
            crash_pos + 1,
            "commands were planned into the outage window"
        );
        assert!(builtin("crash-recover").invariants.expect_wal_recovery);
    }

    #[test]
    fn scenario_files_parse_and_generate() {
        let text = "\
# durability drill, trimmed
name = file-crash
ticks = 5
base_load = 3
hostile_per_tick = 1
code_switch_prob = 0.1
crash_adaptd_at = 2
restart_adaptd_at = 3
expect_flight = wal_recover, eject
expect_wal_recovery = true
min_completed = 8
";
        let spec = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(spec.name, "file-crash");
        assert_eq!(spec.crash_adaptd_at, Some(2));
        assert_eq!(spec.restart_adaptd_at, Some(3));
        let flight: Vec<&str> = spec
            .invariants
            .expect_flight
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(flight, vec!["wal_recover", "eject"]);
        assert!(spec.invariants.expect_wal_recovery);
        assert_eq!(spec.invariants.min_completed, 8);
        // A file spec feeds the same pure generator as a built-in.
        let a = generate(&spec, 3).encode();
        let b = generate(&spec, 3).encode();
        assert_eq!(a, b);
        let stream = CommandStream::decode(&a).expect("roundtrips");
        assert_eq!(stream.scenario, "file-crash");
        assert!(stream
            .commands
            .iter()
            .any(|c| matches!(c, SimCommand::CrashAdaptd { tick: 2 })));
    }

    #[test]
    fn scenario_file_typos_are_hard_errors() {
        assert!(ScenarioSpec::parse("tcks = 4").is_err(), "unknown key");
        assert!(ScenarioSpec::parse("ticks = many").is_err(), "bad value");
        assert!(ScenarioSpec::parse("ticks").is_err(), "no assignment");
        assert!(ScenarioSpec::parse("ticks = 0").is_err(), "empty run");
        assert!(
            ScenarioSpec::parse("drift_start_snr_db = 20").is_err(),
            "half a drift plan"
        );
        assert!(
            ScenarioSpec::parse("crash_adaptd_at = 3\nrestart_adaptd_at = 2").is_err(),
            "restart before crash"
        );
        assert!(
            ScenarioSpec::parse("expect_wal_recovery = yes").is_err(),
            "non-boolean flag"
        );
        for bad in [
            "expect_guard_reject = true",
            "front = lre-serve --bundle {bundel}",
            "replica = lre-serve --bundle {bundle}",
            "expect_adapt = promoted",
            "expect_adapt = adopted:1",
            "rollback_at = 3",
            "rollback_to_at = 3:0:maybe",
            "expect_lineage = head=1",
            "kill_replica_at = 3:1\nrestart_replica_at = 4:0",
        ] {
            assert!(ScenarioSpec::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn language_index_constants_match_the_corpus() {
        let all = lre_corpus::LanguageId::all();
        assert_eq!(all.len(), NUM_LANGUAGES as usize);
        let targets = all.iter().filter(|l| l.target_index().is_some()).count();
        assert_eq!(targets, NUM_TARGETS as usize);
        // The out-of-set languages sit at the tail, where open-set plans
        // draw from.
        for l in &all[NUM_TARGETS as usize..] {
            assert!(l.target_index().is_none(), "{l:?} should be out-of-set");
        }
    }

    #[test]
    fn scenario_shapes_hold() {
        let stream = generate(&builtin("burst-kill"), 1);
        assert!(stream.commands.iter().any(|c| matches!(
            c,
            SimCommand::KillReplica {
                tick: 4,
                replica: 1
            }
        )));
        let hostiles = stream
            .commands
            .iter()
            .filter(|c| matches!(c, SimCommand::Hostile { .. }))
            .count();
        assert_eq!(hostiles, 8, "one hostile per tick");

        let drift = generate(&builtin("drift-guard"), 1);
        assert!(drift
            .commands
            .iter()
            .any(|c| matches!(c, SimCommand::Adapt { tick: 5 })));
        // SNR drifts monotonically down across ticks.
        let mut last_snr = f32::INFINITY;
        for tick in 0..drift.ticks {
            let snr = drift.commands.iter().find_map(|c| match c {
                SimCommand::Score { tick: t, plan, .. } if *t == tick => Some(plan.snr_db),
                _ => None,
            });
            if let Some(snr) = snr {
                assert!(snr <= last_snr, "SNR rose at tick {tick}");
                last_snr = snr;
            }
        }
        // Open-set traffic exists and uses only out-of-set languages.
        let open: Vec<_> = drift
            .commands
            .iter()
            .filter_map(|c| match c {
                SimCommand::Score { plan, .. } if plan.open_set => Some(plan.language),
                _ => None,
            })
            .collect();
        assert!(!open.is_empty(), "drift-guard sent no open-set traffic");
        assert!(open.iter().all(|&l| l >= NUM_TARGETS));
    }

    #[test]
    fn builtin_plans_keep_their_crc_at_the_ci_seeds() {
        // The plans the four original built-ins generated as Rust
        // constructors, before they became files.
        for (name, seed, crc) in [
            ("burst-kill", 42, 0xde19_cdca),
            ("drift-guard", 7, 0x69de_0cb5),
            ("crash-recover", 42, 0x9ade_2d97),
            ("phantom-eject", 1, 0xc9c3_5eef),
        ] {
            assert_eq!(generate(&builtin(name), seed).crc32(), crc, "{name}");
        }
    }

    #[test]
    fn every_embedded_file_parses_under_a_unique_name() {
        let specs = builtin_scenarios();
        assert_eq!(specs.len(), BUILTIN.len());
        let names: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        for spec in &specs {
            assert!(
                spec.front.is_some(),
                "{} starts no front process",
                spec.name
            );
            assert_ne!(spec.about, "scenario loaded from a file", "{}", spec.name);
        }
    }

    #[test]
    fn checks_parse_with_count_modulo_and_scope() {
        let e = Expect::parse("swap=1@replicas").expect("parses");
        assert_eq!(
            (e.name.as_str(), e.at_least, e.value, e.on_replicas),
            ("swap", false, 1, true)
        );
        assert!(e.holds(1) && !e.holds(0) && !e.holds(2));
        let e = Expect::parse("eject").expect("parses");
        assert_eq!((e.at_least, e.value, e.on_replicas), (true, 1, false));
        let e = Expect::parse("engine.fanout.tasks%6=0").expect("parses");
        assert_eq!(e.modulo, Some(6));
        assert!(e.holds(12) && !e.holds(13));
        assert!(Expect::parse("x>=1").expect("parses").holds(5));
        for bad in ["swap=one", "swap@fleet", "swap@front", "%6=0", "tasks%0=0"] {
            assert!(Expect::parse(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn control_commands_land_at_the_end_of_their_tick_in_plan_order() {
        let spec = builtin("fleet");
        let stream = generate(&spec, 1);
        let tail = |tick: u32| -> Vec<&SimCommand> {
            let of_tick: Vec<&SimCommand> = stream
                .commands
                .iter()
                .filter(|c| c.tick() == tick)
                .collect();
            of_tick
                .into_iter()
                .filter(|c| !matches!(c, SimCommand::Score { .. }))
                .collect()
        };
        assert!(matches!(
            tail(0)[..],
            [SimCommand::Hostile { .. }, SimCommand::Fuzz { tick: 0 }]
        ));
        assert!(matches!(
            tail(2)[..],
            [
                SimCommand::Hostile { .. },
                SimCommand::KillReplica {
                    tick: 2,
                    replica: 2
                }
            ]
        ));
        assert!(matches!(
            stream.commands.iter().find(|c| c.tick() == 4),
            Some(SimCommand::RestartReplica {
                tick: 4,
                replica: 2
            })
        ));
        assert!(matches!(tail(6)[1..], [SimCommand::Adapt { tick: 6 }]));
        assert!(matches!(tail(7)[1..], [SimCommand::Rollback { tick: 7 }]));
        assert_eq!(spec.invariants.expect_ack["rollback@7"], "rolled");

        let deep = builtin("deep-rollback");
        let stream = generate(&deep, 1);
        let deep_rollbacks: Vec<&SimCommand> = stream
            .commands
            .iter()
            .filter(|c| matches!(c, SimCommand::RollbackTo { .. }))
            .collect();
        assert!(matches!(
            deep_rollbacks[..],
            [
                SimCommand::RollbackTo {
                    tick: 4,
                    generation: 0
                },
                SimCommand::RollbackTo {
                    tick: 5,
                    generation: 99
                }
            ]
        ));
        assert_eq!(deep.invariants.expect_ack["rollback-to@4"], "restored:0");
        assert_eq!(deep.invariants.expect_ack["rollback-to@5"], "refused");
        assert_eq!(deep.invariants.expect_lineage, Some((3, 4)));
        assert_eq!(deep.adapt_at, vec![1, 3, 6]);
    }
}
