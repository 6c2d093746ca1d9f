//! The scoring server: load a bundle, listen, serve until shut down.
//!
//! ```text
//! lre-serve --bundle PATH [--addr 127.0.0.1:7700] [--workers N]
//!           [--queue N] [--max-inflight N]
//!           [--fleet] [--log-capacity N]
//!           [--wal-dir DIR] [--wal-fsync-ms N] [--unknown-threshold LLR]
//! ```
//!
//! `--unknown-threshold LLR` turns on open-set rejection: a scored
//! utterance whose *best* fused LLR falls below the threshold is still
//! answered (with its full LLR vector) but flagged `unknown` via the
//! reply's decision sentinel, and its score is kept out of the
//! adaptation vote log. The count is the `engine.unknown` series, the
//! `unknown` field of `lre-client --stats`. See `docs/SERVING.md`.
//!
//! `--fleet` runs the server as a routable fleet replica: scored
//! utterances are teed into a vote log (`--log-capacity N` caps it) and the
//! fleet-rollout protocol tags — vote drain, stage/commit/abort,
//! rollback — are answered, so an `lre-router` can coordinate fleet-wide
//! adaptation. Without it those tags are refused `STATUS_UNSUPPORTED`.
//!
//! The vote log keeps its window in a write-ahead log, never in RAM: every
//! admitted vote is appended to it, and a router drain reads the window
//! back and clears it. Without `--wal-dir` that WAL is scratch: a fresh
//! `lre-votes-<pid>-<n>` directory under `TMPDIR` (or `/tmp`), never
//! replayed and removed when the log drops at a graceful shutdown; a
//! SIGKILLed replica leaves it behind, and a `TMPDIR` where it cannot be
//! made stops `--fleet` at start (exit 1). `--wal-dir DIR` (fleet mode
//! only; without `--fleet` it is a usage error) makes the WAL durable
//! under `DIR`: replayed into the window on restart, and published on the
//! `wal.*` series, which `lre-client --wal-status` reads. `--wal-fsync-ms
//! N` sets the fsync batching interval of either (0 = fsync every append;
//! default 50). See `docs/DURABILITY.md`.
//!
//! A graceful shutdown is `Server::join` (every connection answered and
//! joined, the engine drained) and the drops that follow it: the vote
//! log's drop closes its WAL (a last fsync) and removes a scratch window.

use lre_obs::install_panic_dump;
use lre_serve::args::{or_die, Args, ServerArgs};
use lre_serve::{
    DrainPath, FleetReplica, ScorerHandle, ScoringSystem, Server, ServerHooks, SystemBundle,
};
use std::net::TcpListener;
use std::sync::Arc;

const USAGE: &str = "lre-serve --bundle PATH [--addr HOST:PORT] [--workers N] [--queue N] \
    [--max-inflight N] [--fleet] [--log-capacity N] \
    [--wal-dir DIR (with --fleet)] [--wal-fsync-ms N] [--unknown-threshold LLR]";

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
    if server.wal_dir.is_some() && !fleet {
        args.fail("--wal-dir needs --fleet (lre-adaptd is the durable single adapting server)");
    }
    // The file is streamed, never held: a checking pass, then a decode
    // section by section (its identity carries the fleet handle's
    // checksum, what stage/commit/rollback verify against).
    let (bundle, sealed) = or_die(
        SystemBundle::load_streamed(&bundle_path),
        format!("loading {}", bundle_path.display()),
    );
    let checksum = fleet.then_some(sealed.crc);
    eprintln!(
        "[serve] bundle: scale={}, seed={}, {} subsystems",
        bundle.scale_name,
        bundle.seed,
        bundle.subsystems.len()
    );
    let system = or_die(ScoringSystem::from_bundle(bundle), "invalid bundle");
    if let Some(t) = server.cfg.engine.unknown_threshold {
        eprintln!("[serve] open-set rejection enabled: best-LLR threshold {t}");
    }
    let system = Arc::new(system);
    let listener = or_die(
        TcpListener::bind(&server.addr),
        format!("binding {}", server.addr),
    );
    let mut hooks = ServerHooks::default();
    let obs = Arc::clone(&hooks.obs);
    // The flight recorder also dumps to stderr on panic.
    install_panic_dump(&obs.flight);
    let handle = if let Some(checksum) = checksum {
        // A fleet replica serves through a hot-swappable handle tagged
        // with the sealed bundle's checksum and tees scores into the vote
        // log the router drains. With --wal-dir the votes survive a crash;
        // without it they sit in a scratch WAL that goes with the log.
        let handle = Arc::new(ScorerHandle::new(system, checksum));
        eprintln!(
            "[serve] fleet replica mode: vote log capacity {}, bundle checksum {checksum:#010x}",
            server.log_capacity
        );
        let wal_dir = server.wal_dir.as_deref();
        let log = Arc::new(server.vote_log(wal_dir, DrainPath::Wire, &obs, "serve"));
        hooks.tap = Some(Arc::clone(&log) as _);
        let replica = FleetReplica::new(
            Arc::clone(&handle),
            Arc::clone(&log),
            Arc::clone(&obs.flight),
        );
        hooks.fleet = Some(Arc::new(replica));
        handle
    } else {
        Arc::new(ScorerHandle::new(system, 0))
    };
    let server = or_die(
        Server::start(listener, handle, server.cfg, hooks),
        "starting server",
    );
    println!("listening on {}", server.local_addr());
    // Every connection is answered and joined, then the engine drained:
    // nothing holds the vote log after this, and it drops with the server.
    server.join();
    eprintln!("[serve] shut down cleanly");
}
