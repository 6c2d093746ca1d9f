//! The scoring server: load a bundle, listen, serve until shut down.
//!
//! ```text
//! lre-serve --bundle PATH [--addr 127.0.0.1:7700] [--workers N]
//!           [--queue N] [--max-inflight N] [--max-global-inflight N]
//!           [--lazy]
//! ```
//!
//! `--max-global-inflight` caps score requests outstanding across *all*
//! connections (0 = unlimited), on top of the per-connection window;
//! refusals surface as `STATUS_OVERLOADED` and the `shed_global` counter.
//!
//! `--lazy` opens the bundle through its offset table and decodes each
//! subsystem section on first use, so startup cost is the header parse
//! rather than the full model decode.
//!
//! `--fast-math` scores with the bounded-error polynomial kernels instead
//! of exact libm arithmetic. It is refused unless the bundle was built
//! with `lre-train-bundle --allow-fast-math`: fast-math trades the
//! bit-identity contract for speed, so the producer must have opted in.
//! The active mode is surfaced as the `fast_math` field of the v2 stats
//! reply.
//!
//! `--unknown-threshold LLR` turns on open-set rejection: a scored
//! utterance whose *best* fused LLR falls below the threshold is still
//! answered (with its full LLR vector) but flagged `unknown` via the
//! reply's decision sentinel, and its score is kept out of the
//! adaptation vote log. The count is surfaced as the `unknown` field of
//! the v2 stats reply. See `docs/SERVING.md`.
//!
//! `--fleet` runs the server as a routable fleet replica: scored
//! utterances are teed into a vote log (`--votelog N` caps it) and the
//! fleet-rollout protocol tags — vote drain, stage/commit/abort,
//! rollback — are answered, so an `lre-router` can coordinate fleet-wide
//! adaptation. Without it those tags are refused `STATUS_UNSUPPORTED`.
//!
//! `--wal-dir DIR` (fleet mode) makes the vote log durable: every
//! admitted vote is teed into a segmented write-ahead log under `DIR`,
//! replayed into the buffer on restart, and truncated by a router drain.
//! `--wal-fsync-ms N` sets the fsync batching interval (0 = fsync every
//! append; default 50). The `wal-status` protocol tag reports the log's
//! state. See `docs/DURABILITY.md`.

use lre_artifact::{crc32, ArtifactRead};
use lre_dba::ScoringMode;
use lre_obs::install_panic_dump;
use lre_serve::{
    vote_wal_options, DurableVoteLog, FleetReplica, LazyBundle, ScorerHandle, ScoringSystem,
    ServeObs, Server, ServerConfig, ServerHooks, SystemBundle, VoteLog, WalOnlyDurability,
    DEFAULT_FLIGHT_CAPACITY,
};
use lre_wal::WalObs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: lre-serve --bundle PATH [--addr HOST:PORT] [--workers N] \
         [--queue N] [--max-inflight N] \
         [--max-global-inflight N] [--lazy] [--fast-math] [--fleet] [--votelog N] \
         [--wal-dir DIR] [--wal-fsync-ms N] [--unknown-threshold LLR]"
    );
    std::process::exit(2);
}

/// `--fast-math` without the bundle's consent is a startup error, not a
/// silent downgrade: the operator asked for arithmetic the bundle's
/// producer never validated.
fn check_fastmath_opt_in(requested: bool, opted_in: bool) {
    if requested && !opted_in {
        eprintln!(
            "error: --fast-math refused: bundle was not built with \
             --allow-fast-math (its scores were validated under exact \
             arithmetic only)"
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut bundle_path: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7700".to_string();
    let mut cfg = ServerConfig::default();
    let mut lazy = false;
    let mut fast_math = false;
    let mut fleet = false;
    let mut votelog_capacity = 4096usize;
    let mut wal_dir: Option<PathBuf> = None;
    let mut wal_fsync_ms = 50u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let parse_num = |args: &[String], i: usize, what: &str| -> usize {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("bad {what} (positive integer)")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bundle" => {
                i += 1;
                bundle_path = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| usage("missing --bundle path")),
                ));
            }
            "--addr" => {
                i += 1;
                addr = args
                    .get(i)
                    .unwrap_or_else(|| usage("missing --addr"))
                    .clone();
            }
            "--workers" => {
                i += 1;
                cfg.engine.workers = parse_num(&args, i, "--workers");
            }
            "--queue" => {
                i += 1;
                cfg.engine.queue_capacity = parse_num(&args, i, "--queue");
            }
            "--max-inflight" => {
                i += 1;
                cfg.max_inflight = parse_num(&args, i, "--max-inflight");
            }
            "--max-global-inflight" => {
                i += 1;
                cfg.max_global_inflight = parse_num(&args, i, "--max-global-inflight");
            }
            "--unknown-threshold" => {
                i += 1;
                let t: f32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f32| t.is_finite())
                    .unwrap_or_else(|| usage("bad --unknown-threshold (finite LLR)"));
                cfg.engine.unknown_threshold = Some(t);
            }
            "--lazy" => lazy = true,
            "--fast-math" => fast_math = true,
            "--fleet" => fleet = true,
            "--votelog" => {
                i += 1;
                votelog_capacity = parse_num(&args, i, "--votelog");
            }
            "--wal-dir" => {
                i += 1;
                wal_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage("missing --wal-dir")),
                ));
            }
            "--wal-fsync-ms" => {
                i += 1;
                wal_fsync_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --wal-fsync-ms (integer)"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let bundle_path = bundle_path.unwrap_or_else(|| usage("--bundle is required"));

    let mut system = if lazy {
        match LazyBundle::load(&bundle_path).and_then(|b| {
            eprintln!(
                "[serve] lazy bundle: scale={}, seed={}, {} subsystems (sections decode on demand)",
                b.scale_name,
                b.seed,
                b.num_subsystems()
            );
            check_fastmath_opt_in(fast_math, b.fastmath_opt_in);
            ScoringSystem::from_lazy(b)
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: loading {}: {e}", bundle_path.display());
                std::process::exit(1);
            }
        }
    } else {
        let bundle = match SystemBundle::load_artifact(&bundle_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: loading {}: {e}", bundle_path.display());
                std::process::exit(1);
            }
        };
        eprintln!(
            "[serve] bundle: scale={}, seed={}, {} subsystems",
            bundle.scale_name,
            bundle.seed,
            bundle.subsystems.len()
        );
        check_fastmath_opt_in(fast_math, bundle.fastmath_opt_in);
        match ScoringSystem::from_bundle(bundle) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: invalid bundle: {e}");
                std::process::exit(1);
            }
        }
    };
    if fast_math {
        system.set_scoring_mode(ScoringMode::FastMath);
        cfg.engine.fast_math = true;
        eprintln!("[serve] fast-math scoring enabled (bundle opted in)");
    }
    if let Some(t) = cfg.engine.unknown_threshold {
        eprintln!("[serve] open-set rejection enabled: best-LLR threshold {t}");
    }
    let system = Arc::new(system);
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Telemetry is always on for the serving binary (overhead is gated
    // ≤3% by the perfbaseline); the flight recorder also dumps on panic.
    let obs = ServeObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);
    let started = if fleet {
        // A fleet replica serves through a hot-swappable handle tagged
        // with the sealed bundle's checksum (what stage/commit/rollback
        // verify against) and tees scores into the vote log the router
        // drains.
        let checksum = match std::fs::read(&bundle_path) {
            Ok(bytes) => crc32(&bytes),
            Err(e) => {
                eprintln!("error: reading {}: {e}", bundle_path.display());
                std::process::exit(1);
            }
        };
        let handle = Arc::new(ScorerHandle::new(system, checksum));
        eprintln!(
            "[serve] fleet replica mode: vote log capacity {votelog_capacity}, \
             bundle checksum {checksum:#010x}"
        );
        if let Some(dir) = &wal_dir {
            // Durable replica: votes survive a crash, drains truncate the
            // WAL, and the wal-status tag answers from it.
            let mut opts = vote_wal_options();
            opts.fsync_interval = Duration::from_millis(wal_fsync_ms);
            let wal_obs = WalObs::new(&obs.registry, Some(Arc::clone(&obs.flight)));
            let (log, recovery) =
                match DurableVoteLog::open(dir, votelog_capacity, opts, Some(wal_obs)) {
                    Ok(ok) => ok,
                    Err(e) => {
                        eprintln!("error: opening WAL at {}: {e}", dir.display());
                        std::process::exit(1);
                    }
                };
            let log = Arc::new(log);
            eprintln!(
                "[serve] vote WAL at {}: replayed {} records ({} torn skipped), \
                 fsync every {wal_fsync_ms} ms",
                dir.display(),
                recovery.replayed,
                recovery.torn
            );
            let mut replica =
                FleetReplica::new_durable(Arc::clone(&handle), Arc::clone(&log), fast_math);
            replica.set_flight(Arc::clone(&obs.flight));
            let replica = Arc::new(replica);
            let durability = Arc::new(WalOnlyDurability::new(Arc::clone(&log)));
            Server::start_adaptive(
                listener,
                handle,
                cfg,
                ServerHooks {
                    tap: Some(log as _),
                    control: None,
                    fleet: Some(replica as _),
                    durability: Some(durability as _),
                    obs: Some(obs),
                },
            )
        } else {
            let log = Arc::new(VoteLog::new(votelog_capacity));
            let mut replica = FleetReplica::new(Arc::clone(&handle), Arc::clone(&log), fast_math);
            // Commits and rollbacks land in the flight recorder.
            replica.set_flight(Arc::clone(&obs.flight));
            let replica = Arc::new(replica);
            Server::start_adaptive(
                listener,
                handle,
                cfg,
                ServerHooks {
                    tap: Some(log as _),
                    control: None,
                    fleet: Some(replica as _),
                    durability: None,
                    obs: Some(obs),
                },
            )
        }
    } else {
        if wal_dir.is_some() {
            eprintln!(
                "[serve] note: --wal-dir only applies with --fleet \
                 (use lre-adaptd for a durable single adapting server)"
            );
        }
        Server::start_adaptive(
            listener,
            Arc::new(ScorerHandle::new(system, 0)),
            cfg,
            ServerHooks {
                obs: Some(obs),
                ..ServerHooks::default()
            },
        )
    };
    let server = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: starting server: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    server.join();
    eprintln!("[serve] shut down cleanly");
}
