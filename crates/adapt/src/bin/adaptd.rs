//! The adapting scoring server: serve a bundle, tap every score into the
//! vote log, and boost the model online with guarded hot-swaps.
//!
//! ```text
//! lre-adaptd --bundle PATH --guard PATH [--addr 127.0.0.1:7700]
//!            [--workers N] [--max-inflight N] [--max-global-inflight N]
//!            [--interval-secs N] [--min-utts N] [--v-threshold N]
//!            [--guard-max-eer-regress X] [--guard-max-cavg-regress X]
//!            [--log-capacity N] [--unknown-threshold LLR]
//!            [--wal-dir DIR] [--wal-fsync-ms N] [--keep-generations N]
//! ```
//!
//! `--interval-secs 0` (the default) disables the background cadence;
//! cycles then run only when a client sends an adapt request
//! (`lre-client --adapt`). A negative `--guard-max-eer-regress` forces
//! every candidate to fail the guard — the rollback drill CI exercises.
//!
//! `--unknown-threshold LLR` enables open-set rejection exactly as on
//! `lre-serve`: replies whose best fused LLR falls below the threshold
//! are flagged `unknown` — and, critically, are never teed into the vote
//! log, so alien speech cannot steer adaptation.
//!
//! `--wal-dir DIR` makes adaptation state durable: votes tee into a
//! write-ahead log under `DIR/votes` (fsynced every
//! `--wal-fsync-ms`, default 50; 0 = fsync inline on every append), and
//! every served generation's pristine sealed bytes land in the lineage
//! chain under `DIR/lineage` *before* the hot swap. On restart against
//! the same `DIR` the daemon replays the vote window, resumes serving
//! from the chain head (ignoring `--bundle` except to root a fresh
//! chain), and answers `lre-client --wal-status` / `--rollback-to GEN`.
//! `--keep-generations N` prunes all but the newest N generations' bytes
//! after each promote (0 = keep everything).

use lre_adapt::{bundle_checksum, AdaptController, AdaptWorker, GuardArgs, VoteLog};
use lre_artifact::ArtifactRead;
use lre_dba::GuardSet;
use lre_obs::install_panic_dump;
use lre_serve::args::{or_die, Args, ServerArgs};
use lre_serve::{
    vote_wal_options, ScorerHandle, ScoringSystem, ServeObs, Server, ServerHooks, SystemBundle,
    DEFAULT_FLIGHT_CAPACITY,
};
use lre_wal::{LineageStore, WalObs};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "lre-adaptd --bundle PATH --guard PATH [--addr HOST:PORT] [--workers N] \
    [--max-inflight N] [--max-global-inflight N] [--interval-secs N] [--min-utts N] \
    [--v-threshold N] [--guard-max-eer-regress X] [--guard-max-cavg-regress X] \
    [--log-capacity N] [--unknown-threshold LLR] [--wal-dir DIR] [--wal-fsync-ms N] \
    [--keep-generations N]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut server = ServerArgs::default();
    let mut guard_args = GuardArgs::default();
    let mut interval_secs = 0u64;
    let mut keep_generations = 0usize;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--interval-secs" => interval_secs = args.value(&flag),
            "--keep-generations" => keep_generations = args.value(&flag),
            other if server.take(other, &mut args) || guard_args.take(other, &mut args) => {}
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    let bundle_path = server.bundle(&args);
    let Some(guard_path) = guard_args.guard else {
        args.fail("--guard is required")
    };
    let ServerArgs {
        addr,
        cfg,
        log_capacity,
        wal_dir,
        wal_fsync_ms,
        ..
    } = server;

    let mut bytes = or_die(
        std::fs::read(&bundle_path),
        format!("reading {}", bundle_path.display()),
    );
    // The adapting server decodes eagerly: the controller re-decodes the
    // sealed bytes each cycle anyway, and every section must be coherent
    // before generation 0 serves a single request.
    let mut bundle = or_die(
        SystemBundle::from_artifact_bytes(&bytes),
        format!("loading {}", bundle_path.display()),
    );
    eprintln!(
        "[adaptd] bundle: scale={}, seed={}, {} subsystems, lineage generation {}",
        bundle.scale_name,
        bundle.seed,
        bundle.subsystems.len(),
        bundle.lineage.generation
    );
    let guard = or_die(
        GuardSet::load_artifact(&guard_path),
        format!("loading {}", guard_path.display()),
    );
    eprintln!(
        "[adaptd] guard set: {} held-back utterances, {} subsystems",
        guard.num_utts(),
        guard.num_subsystems()
    );
    if let Some(t) = cfg.engine.unknown_threshold {
        eprintln!("[adaptd] open-set rejection enabled: best-LLR threshold {t}");
    }
    // Telemetry: guard verdicts, promotions, rollbacks and WAL activity
    // land in the flight recorder, which also dumps to stderr on panic.
    let obs = ServeObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);

    // Durable state recovery, before anything serves: if the lineage
    // chain already has a head, its pristine bytes are the serving
    // bundle — --bundle only roots a fresh chain. The vote WAL replays
    // the buffered adaptation window the previous process never drained.
    let mut lineage = None;
    let log = match &wal_dir {
        Some(dir) => {
            let store = or_die(
                LineageStore::open(&dir.join("lineage")),
                format!("opening lineage store under {}", dir.display()),
            );
            if let Some(head) = store.head().copied() {
                let at_head = format!("lineage head {}", head.generation);
                bytes = or_die(store.load(head.generation), format!("loading {at_head}"));
                bundle = or_die(
                    SystemBundle::from_artifact_bytes(&bytes),
                    format!("decoding {at_head}"),
                );
                eprintln!(
                    "[adaptd] resuming from lineage head: generation {} ({} chain entries, {} retained)",
                    head.generation,
                    store.entries().len(),
                    store.retained()
                );
            }
            lineage = Some((store, keep_generations));
            let mut opts = vote_wal_options();
            opts.fsync_interval = Duration::from_millis(wal_fsync_ms);
            let wal_obs = WalObs::new(&obs.registry, Arc::clone(&obs.flight));
            let (log, recovery) = or_die(
                VoteLog::open(&dir.join("votes"), log_capacity, opts, wal_obs),
                format!("opening vote WAL under {}", dir.display()),
            );
            eprintln!(
                "[adaptd] vote WAL recovered: {} records replayed, {} torn records skipped",
                recovery.replayed, recovery.torn
            );
            log
        }
        None => VoteLog::new(log_capacity),
    };
    let log = Arc::new(log);

    let system = Arc::new(or_die(ScoringSystem::from_bundle(bundle), "invalid bundle"));
    let handle = Arc::new(ScorerHandle::new(system, bundle_checksum(&bytes)));
    let controller = AdaptController::new(
        Arc::clone(&handle),
        Arc::clone(&log),
        lineage,
        guard,
        bytes,
        guard_args.adapt,
        Arc::clone(&obs.flight),
    );
    let controller = Arc::new(or_die(controller, "wiring adaptation controller"));
    let worker = (interval_secs > 0).then(|| {
        AdaptWorker::spawn(
            Arc::clone(&controller),
            Duration::from_secs(interval_secs),
            |report| {
                eprintln!(
                    "[adaptd] cycle: outcome={} generation={} selected={} drained={}",
                    report.outcome, report.generation, report.selected, report.drained
                );
            },
        )
    });

    let listener = or_die(TcpListener::bind(&addr), format!("binding {addr}"));
    let hooks = ServerHooks {
        tap: Some(log as _),
        control: Some(Arc::clone(&controller) as _),
        fleet: None,
        durability: wal_dir.is_some().then(|| Arc::clone(&controller) as _),
        obs,
    };
    let server = or_die(
        Server::start(listener, Arc::clone(&handle), cfg, hooks),
        "starting server",
    );
    println!("listening on {}", server.local_addr());
    server.join();
    drop(worker); // stop the cadence before reporting
    eprintln!(
        "[adaptd] shut down cleanly at generation {}",
        handle.generation()
    );
}
