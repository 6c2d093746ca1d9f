//! The command stream: what a simulation run *is*.
//!
//! A run is fully described by an ordered list of [`SimCommand`]s — every
//! utterance to score (down to the render seed), every hostile
//! connection, every replica kill, every adaptation trigger, each pinned
//! to its tick. Command generation is a pure function of (scenario,
//! seed), never of anything the servers reply, so the same seed produces
//! byte-identical streams no matter how the run behaves — and a stream
//! exported from a failing run reproduces that run from `--replay` alone.
//!
//! Streams travel in the workspace's sealed artifact container
//! (kind `SIMP`), so a corrupted replay file is a typed error, not a
//! silently different simulation.

use lre_artifact::{open, seal, ArtifactError, ArtifactReader, ArtifactWriter};
use lre_corpus::LanguageId;

/// Artifact kind tag for an exported command stream.
pub const STREAM_KIND: [u8; 4] = *b"SIMP";
/// Payload layout revision.
pub const STREAM_VERSION: u32 = 1;

/// Everything needed to render one scoring request deterministically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UttPlan {
    /// Index into [`LanguageId::all`] (25 entries: 23 targets + 2
    /// out-of-set languages).
    pub language: u8,
    /// Code-switching: render the first half in `language`, the second in
    /// this one.
    pub second_language: Option<u8>,
    /// Utterance length in 10 ms frames.
    pub num_frames: u32,
    /// Master seed for phone sequence + noise.
    pub seed: u64,
    /// Speaker identity seed.
    pub speaker_seed: u64,
    /// Broadcast (VOA) channel when true, telephone (CTS) otherwise.
    pub voa: bool,
    /// Channel SNR in dB — drifts across ticks in drift scenarios.
    pub snr_db: f32,
    /// True when `language` is out-of-set (open-set traffic). Recorded so
    /// invariants can reason about how much alien speech was sent.
    pub open_set: bool,
}

impl UttPlan {
    pub fn language_id(&self) -> LanguageId {
        LanguageId::all()[self.language as usize]
    }

    pub fn second_language_id(&self) -> Option<LanguageId> {
        self.second_language.map(|i| LanguageId::all()[i as usize])
    }
}

/// One simulator action, pinned to its tick.
#[derive(Clone, Debug, PartialEq)]
pub enum SimCommand {
    /// Render the planned utterance and submit it with the deadline.
    Score {
        tick: u32,
        plan: UttPlan,
        deadline_ms: u32,
    },
    /// Open a fresh connection and run fuzz-corpus case
    /// `case_index % corpus_len` against it.
    Hostile { tick: u32, case_index: u32 },
    /// SIGKILL replica `replica` (index into the scenario's replica
    /// processes) mid-run.
    KillReplica { tick: u32, replica: u32 },
    /// Trigger one adaptation cycle on the adapt endpoint.
    Adapt { tick: u32 },
    /// SIGKILL the front process (no shutdown handshake, no fsync
    /// opportunity) — the crash-recovery drill.
    CrashAdaptd { tick: u32 },
    /// Respawn the front process with the same command line (hence the
    /// same `--wal-dir`) on the same port.
    RestartAdaptd { tick: u32 },
    /// Respawn replica `replica` on the port it had.
    RestartReplica { tick: u32, replica: u32 },
    /// Run the whole malformed corpus against the front.
    Fuzz { tick: u32 },
    /// One-deep rollback at the front (a router rolls its fleet).
    Rollback { tick: u32 },
    /// Deep rollback of the front to lineage generation `generation`.
    RollbackTo { tick: u32, generation: u64 },
}

impl SimCommand {
    fn tag(&self) -> u8 {
        match self {
            SimCommand::Score { .. } => CMD_SCORE,
            SimCommand::Hostile { .. } => CMD_HOSTILE,
            SimCommand::KillReplica { .. } => CMD_KILL,
            SimCommand::Adapt { .. } => CMD_ADAPT,
            SimCommand::CrashAdaptd { .. } => CMD_CRASH_ADAPTD,
            SimCommand::RestartAdaptd { .. } => CMD_RESTART_ADAPTD,
            SimCommand::RestartReplica { .. } => CMD_RESTART_REPLICA,
            SimCommand::Fuzz { .. } => CMD_FUZZ,
            SimCommand::Rollback { .. } => CMD_ROLLBACK,
            SimCommand::RollbackTo { .. } => CMD_ROLLBACK_TO,
        }
    }

    pub fn tick(&self) -> u32 {
        match self {
            SimCommand::Score { tick, .. }
            | SimCommand::Hostile { tick, .. }
            | SimCommand::KillReplica { tick, .. }
            | SimCommand::Adapt { tick }
            | SimCommand::CrashAdaptd { tick }
            | SimCommand::RestartAdaptd { tick }
            | SimCommand::RestartReplica { tick, .. }
            | SimCommand::Fuzz { tick }
            | SimCommand::Rollback { tick }
            | SimCommand::RollbackTo { tick, .. } => *tick,
        }
    }
}

const CMD_SCORE: u8 = 1;
const CMD_HOSTILE: u8 = 2;
const CMD_KILL: u8 = 3;
const CMD_ADAPT: u8 = 4;
const CMD_CRASH_ADAPTD: u8 = 5;
const CMD_RESTART_ADAPTD: u8 = 6;
const CMD_RESTART_REPLICA: u8 = 7;
const CMD_FUZZ: u8 = 8;
const CMD_ROLLBACK: u8 = 9;
const CMD_ROLLBACK_TO: u8 = 10;
/// `second_language` sentinel for "no code switch".
const NO_SECOND: u8 = 0xFF;

/// A full, self-describing run plan.
#[derive(Clone, Debug, PartialEq)]
pub struct CommandStream {
    /// Scenario name the stream was generated from — replay uses it to
    /// look up the invariant set.
    pub scenario: String,
    pub seed: u64,
    pub ticks: u32,
    pub commands: Vec<SimCommand>,
}

impl CommandStream {
    /// Sealed artifact bytes. Byte-identical for identical streams — the
    /// determinism contract is checked against exactly these bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.put_str(&self.scenario);
        w.put_u64(self.seed);
        w.put_u32(self.ticks);
        w.put_u64(self.commands.len() as u64);
        for cmd in &self.commands {
            w.put_u8(cmd.tag());
            w.put_u32(cmd.tick());
            match cmd {
                SimCommand::Score {
                    plan, deadline_ms, ..
                } => {
                    w.put_u8(plan.language);
                    w.put_u8(plan.second_language.unwrap_or(NO_SECOND));
                    w.put_u32(plan.num_frames);
                    w.put_u64(plan.seed);
                    w.put_u64(plan.speaker_seed);
                    w.put_u8(plan.voa as u8);
                    w.put_f32(plan.snr_db);
                    w.put_u8(plan.open_set as u8);
                    w.put_u32(*deadline_ms);
                }
                SimCommand::Hostile { case_index: n, .. }
                | SimCommand::KillReplica { replica: n, .. }
                | SimCommand::RestartReplica { replica: n, .. } => w.put_u32(*n),
                SimCommand::RollbackTo { generation, .. } => w.put_u64(*generation),
                _ => {}
            }
        }
        seal(STREAM_KIND, STREAM_VERSION, &w.into_bytes())
    }

    /// The sealed stream's own CRC-32 (the container trailer) — quoted in
    /// verdict files so a replay can prove it ran the same plan. Read out
    /// of the trailer rather than recomputed over the whole file: the
    /// CRC of `data ‖ crc(data)` is the same residue constant for every
    /// sealed artifact, which identifies nothing.
    pub fn crc32(&self) -> u32 {
        let bytes = self.encode();
        let trailer: [u8; 4] = bytes[bytes.len() - 4..].try_into().expect("sealed trailer");
        u32::from_le_bytes(trailer)
    }

    /// Decode a sealed stream, strictly: bad magic/kind/version/CRC,
    /// truncation, an unknown command tag, an out-of-range language
    /// index, or trailing bytes are all typed errors.
    pub fn decode(bytes: &[u8]) -> Result<CommandStream, ArtifactError> {
        let payload = open(bytes, STREAM_KIND, STREAM_VERSION)?;
        let mut r = ArtifactReader::new(payload);
        let scenario = r.get_str()?;
        let seed = r.get_u64()?;
        let ticks = r.get_u32()?;
        let count = r.get_u64()? as usize;
        // Each command is ≥ 5 bytes; refuse absurd counts before reserving.
        if count > payload.len() / 5 {
            return Err(ArtifactError::Corrupt("command count exceeds payload"));
        }
        let num_languages = LanguageId::all().len() as u8;
        let mut commands = Vec::with_capacity(count);
        for _ in 0..count {
            let (tag, tick) = (r.get_u8()?, r.get_u32()?);
            let cmd = match tag {
                CMD_SCORE => {
                    let language = r.get_u8()?;
                    let second = r.get_u8()?;
                    let num_frames = r.get_u32()?;
                    let seed = r.get_u64()?;
                    let speaker_seed = r.get_u64()?;
                    let voa = r.get_u8()? != 0;
                    let snr_db = r.get_f32()?;
                    let open_set = r.get_u8()? != 0;
                    let deadline_ms = r.get_u32()?;
                    if language >= num_languages || (second != NO_SECOND && second >= num_languages)
                    {
                        return Err(ArtifactError::Corrupt("language index out of range"));
                    }
                    SimCommand::Score {
                        tick,
                        plan: UttPlan {
                            language,
                            second_language: (second != NO_SECOND).then_some(second),
                            num_frames,
                            seed,
                            speaker_seed,
                            voa,
                            snr_db,
                            open_set,
                        },
                        deadline_ms,
                    }
                }
                CMD_HOSTILE => SimCommand::Hostile {
                    tick,
                    case_index: r.get_u32()?,
                },
                CMD_KILL => SimCommand::KillReplica {
                    tick,
                    replica: r.get_u32()?,
                },
                CMD_ADAPT => SimCommand::Adapt { tick },
                CMD_CRASH_ADAPTD => SimCommand::CrashAdaptd { tick },
                CMD_RESTART_ADAPTD => SimCommand::RestartAdaptd { tick },
                CMD_RESTART_REPLICA => SimCommand::RestartReplica {
                    tick,
                    replica: r.get_u32()?,
                },
                CMD_FUZZ => SimCommand::Fuzz { tick },
                CMD_ROLLBACK => SimCommand::Rollback { tick },
                CMD_ROLLBACK_TO => SimCommand::RollbackTo {
                    tick,
                    generation: r.get_u64()?,
                },
                _ => return Err(ArtifactError::Corrupt("unknown sim command tag")),
            };
            if cmd.tick() >= ticks {
                return Err(ArtifactError::Corrupt("command tick beyond the run"));
            }
            commands.push(cmd);
        }
        if r.remaining() != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        Ok(CommandStream {
            scenario,
            seed,
            ticks,
            commands,
        })
    }
}
