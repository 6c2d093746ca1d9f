//! The flag parser `lre-serve`, `lre-adaptd` and `lre-router` share: a
//! cursor over `--flag value` pairs, the group of flags the two scoring
//! servers have in common and the vote log they build from it (a durable
//! WAL under `--wal-dir`, a scratch one under the temp directory without
//! it), and the one way a binary dies on a start-up error. (The
//! adaptation-guard group `lre-adaptd` and `lre-router` share sits beside
//! `AdaptConfig` in `lre-adapt`, which this crate cannot name.)

use crate::obs::ServeObs;
use crate::server::ServerConfig;
use crate::votelog::{vote_wal_options, DrainPath, VoteLog};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// The process's arguments, consumed front to back.
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// `usage` is the line printed, before exit code 2, on a bad argument.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    pub fn next_flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value following `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        match self.rest.next().map(|v| v.parse()) {
            Some(Ok(v)) => v,
            Some(Err(_)) => self.fail(&format!("bad value for {flag}")),
            None => self.fail(&format!("missing value for {flag}")),
        }
    }

    /// Print `msg` and the usage line, exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\nusage: {}", self.usage);
        std::process::exit(2);
    }
}

/// Unwrap a start-up step or print `error: {what}: {cause}` and exit 1.
pub fn or_die<T, E: Display>(result: Result<T, E>, what: impl Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

/// What `lre-serve` and `lre-adaptd` both take: `--bundle --addr --workers
/// --max-inflight --unknown-threshold --log-capacity --wal-dir
/// --wal-fsync-ms`.
pub struct ServerArgs {
    pub bundle: Option<PathBuf>,
    pub addr: String,
    pub cfg: ServerConfig,
    /// Most votes the vote log buffers.
    pub log_capacity: usize,
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync batching interval (0 = fsync every append).
    pub wal_fsync_ms: u64,
}

impl Default for ServerArgs {
    fn default() -> ServerArgs {
        ServerArgs {
            bundle: None,
            addr: "127.0.0.1:7700".to_string(),
            cfg: ServerConfig::default(),
            log_capacity: 4096,
            wal_dir: None,
            wal_fsync_ms: 50,
        }
    }
}

impl ServerArgs {
    /// Take `flag`'s value if the flag is one of this group's; `false`
    /// leaves the flag to the caller.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--bundle" => self.bundle = Some(args.value(flag)),
            "--addr" => self.addr = args.value(flag),
            "--workers" => self.cfg.engine.workers = args.value(flag),
            "--max-inflight" => self.cfg.max_inflight = args.value(flag),
            "--unknown-threshold" => {
                let t: f32 = args.value(flag);
                if !t.is_finite() {
                    args.fail("bad value for --unknown-threshold (must be finite)");
                }
                self.cfg.engine.unknown_threshold = Some(t);
            }
            "--log-capacity" => self.log_capacity = args.value(flag),
            "--wal-dir" => self.wal_dir = Some(args.value(flag)),
            "--wal-fsync-ms" => self.wal_fsync_ms = args.value(flag),
            _ => return false,
        }
        true
    }

    /// The bundle path, which both servers require.
    pub fn bundle(&self, args: &Args) -> PathBuf {
        match &self.bundle {
            Some(path) => path.clone(),
            None => args.fail("--bundle is required"),
        }
    }

    /// The vote log a server tees its scores into, over a WAL fsynced
    /// every `--wal-fsync-ms`: durable in `dir`, with what it replayed
    /// printed under `[name]`, or, without one, a scratch WAL under the
    /// temp directory. Exits 1 when the WAL does not open.
    pub fn vote_log(
        &self,
        dir: Option<&Path>,
        drain: DrainPath,
        obs: &ServeObs,
        name: &str,
    ) -> VoteLog {
        let mut opts = vote_wal_options();
        opts.fsync_interval = Duration::from_millis(self.wal_fsync_ms);
        let Some(dir) = dir else {
            let scratch = VoteLog::new(self.log_capacity, drain, opts, &obs.registry);
            let tmp = std::env::temp_dir();
            return or_die(
                scratch,
                format!("opening a scratch vote WAL under {}", tmp.display()),
            );
        };
        let opened = VoteLog::open(
            dir,
            self.log_capacity,
            drain,
            opts,
            &obs.registry,
            Arc::clone(&obs.flight),
        );
        let (log, recovery) = or_die(opened, format!("opening vote WAL at {}", dir.display()));
        eprintln!(
            "[{name}] vote WAL recovered: {} records replayed, {} torn records skipped \
             ({}, fsync every {} ms)",
            recovery.replayed,
            recovery.torn,
            dir.display(),
            self.wal_fsync_ms
        );
        log
    }
}
