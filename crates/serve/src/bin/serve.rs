//! The scoring server: load a bundle, listen, serve until shut down.
//!
//! ```text
//! lre-serve --bundle PATH [--addr 127.0.0.1:7700] [--workers N]
//!           [--queue N] [--max-inflight N] [--max-global-inflight N]
//!           [--fleet] [--log-capacity N]
//!           [--wal-dir DIR] [--wal-fsync-ms N] [--unknown-threshold LLR]
//! ```
//!
//! `--max-global-inflight` caps score requests outstanding across *all*
//! connections (0 = unlimited), on top of the per-connection window;
//! refusals surface as `STATUS_OVERLOADED` and the `shed_global` counter.
//!
//! `--unknown-threshold LLR` turns on open-set rejection: a scored
//! utterance whose *best* fused LLR falls below the threshold is still
//! answered (with its full LLR vector) but flagged `unknown` via the
//! reply's decision sentinel, and its score is kept out of the
//! adaptation vote log. The count is surfaced as the `unknown` field of
//! the stats reply. See `docs/SERVING.md`.
//!
//! `--fleet` runs the server as a routable fleet replica: scored
//! utterances are teed into a vote log (`--log-capacity N` caps it) and the
//! fleet-rollout protocol tags — vote drain, stage/commit/abort,
//! rollback — are answered, so an `lre-router` can coordinate fleet-wide
//! adaptation. Without it those tags are refused `STATUS_UNSUPPORTED`.
//!
//! `--wal-dir DIR` (fleet mode) makes the vote log durable: every
//! admitted vote is teed into a write-ahead log under `DIR`, replayed
//! into the buffer on restart, and cleared by a router drain.
//! `--wal-fsync-ms N` sets the fsync batching interval (0 = fsync every
//! append; default 50). The `wal-status` protocol tag reports the log's
//! state. See `docs/DURABILITY.md`.

use lre_artifact::{crc32, ArtifactRead};
use lre_obs::install_panic_dump;
use lre_serve::args::{or_die, Args, ServerArgs};
use lre_serve::{
    vote_wal_options, FleetReplica, ScorerHandle, ScoringSystem, ServeObs, Server, ServerHooks,
    SystemBundle, VoteLog, DEFAULT_FLIGHT_CAPACITY,
};
use lre_wal::WalObs;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "lre-serve --bundle PATH [--addr HOST:PORT] [--workers N] [--queue N] \
    [--max-inflight N] [--max-global-inflight N] [--fleet] [--log-capacity N] \
    [--wal-dir DIR] [--wal-fsync-ms N] [--unknown-threshold LLR]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut server = ServerArgs::default();
    let mut fleet = false;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--queue" => server.cfg.engine.queue_capacity = args.value(&flag),
            "--fleet" => fleet = true,
            other if server.take(other, &mut args) => {}
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    let bundle_path = server.bundle(&args);
    let ServerArgs {
        addr,
        cfg,
        log_capacity,
        wal_dir,
        wal_fsync_ms,
        ..
    } = server;
    let bundle = or_die(
        SystemBundle::load_artifact(&bundle_path),
        format!("loading {}", bundle_path.display()),
    );
    eprintln!(
        "[serve] bundle: scale={}, seed={}, {} subsystems",
        bundle.scale_name,
        bundle.seed,
        bundle.subsystems.len()
    );
    let system = or_die(ScoringSystem::from_bundle(bundle), "invalid bundle");
    if let Some(t) = cfg.engine.unknown_threshold {
        eprintln!("[serve] open-set rejection enabled: best-LLR threshold {t}");
    }
    let system = Arc::new(system);
    let listener = or_die(TcpListener::bind(&addr), format!("binding {addr}"));
    // Telemetry is always on for the serving binary (overhead is gated
    // ≤3% by the perfbaseline); the flight recorder also dumps on panic.
    let obs = ServeObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);
    let mut hooks = ServerHooks {
        obs: Some(Arc::clone(&obs)),
        ..ServerHooks::default()
    };
    let handle = if fleet {
        // A fleet replica serves through a hot-swappable handle tagged
        // with the sealed bundle's checksum (what stage/commit/rollback
        // verify against) and tees scores into the vote log the router
        // drains.
        let sealed = or_die(
            std::fs::read(&bundle_path),
            format!("reading {}", bundle_path.display()),
        );
        let checksum = crc32(&sealed);
        let handle = Arc::new(ScorerHandle::new(system, checksum));
        eprintln!(
            "[serve] fleet replica mode: vote log capacity {log_capacity}, \
             bundle checksum {checksum:#010x}"
        );
        // With --wal-dir the votes survive a crash, a router drain clears
        // the WAL with the buffer, and the wal-status tag answers from it.
        let log = match &wal_dir {
            Some(dir) => {
                let mut opts = vote_wal_options();
                opts.fsync_interval = Duration::from_millis(wal_fsync_ms);
                let wal_obs = WalObs::new(&obs.registry, Some(Arc::clone(&obs.flight)));
                let (log, recovery) = or_die(
                    VoteLog::open(dir, log_capacity, opts, Some(wal_obs)),
                    format!("opening WAL at {}", dir.display()),
                );
                eprintln!(
                    "[serve] vote WAL at {}: replayed {} records ({} torn skipped), \
                     fsync every {wal_fsync_ms} ms",
                    dir.display(),
                    recovery.replayed,
                    recovery.torn
                );
                log
            }
            None => VoteLog::new(log_capacity),
        };
        let log = Arc::new(log);
        hooks.durability = wal_dir.is_some().then(|| Arc::clone(&log) as _);
        hooks.tap = Some(Arc::clone(&log) as _);
        let mut replica = FleetReplica::new(Arc::clone(&handle), log);
        // Commits and rollbacks land in the flight recorder.
        replica.set_flight(Arc::clone(&obs.flight));
        hooks.fleet = Some(Arc::new(replica));
        handle
    } else {
        if wal_dir.is_some() {
            eprintln!(
                "[serve] note: --wal-dir only applies with --fleet \
                 (use lre-adaptd for a durable single adapting server)"
            );
        }
        Arc::new(ScorerHandle::new(system, 0))
    };
    let server = or_die(
        Server::start_adaptive(listener, handle, cfg, hooks),
        "starting server",
    );
    println!("listening on {}", server.local_addr());
    server.join();
    eprintln!("[serve] shut down cleanly");
}
