//! The adapting scoring server: serve a bundle, tap every score into the
//! vote log, and boost the model online with guarded hot-swaps.
//!
//! ```text
//! lre-adaptd --bundle PATH --guard PATH [--addr 127.0.0.1:7700]
//!            [--workers N] [--max-inflight N] [--min-utts N]
//!            [--v-threshold N]
//!            [--guard-max-eer-regress X] [--guard-max-cavg-regress X]
//!            [--log-capacity N] [--unknown-threshold LLR]
//!            [--wal-dir DIR] [--wal-fsync-ms N] [--keep-generations N]
//! ```
//!
//! A cycle runs when a client sends an adapt request (`lre-client
//! --adapt`); to adapt on a cadence, run that on an external schedule.
//! `--guard` is validated at start and read again by every cycle, so the
//! file must stay in place while the daemon runs: a cycle that finds it
//! gone, damaged or replaced ends `failed` with a `guard_failed` flight
//! event, and serving goes on. A negative `--guard-max-eer-regress`
//! forces every candidate to fail the guard — the rollback drill CI
//! exercises.
//!
//! `--unknown-threshold LLR` enables open-set rejection exactly as on
//! `lre-serve`: replies whose best fused LLR falls below the threshold
//! are flagged `unknown` — and, critically, are never teed into the vote
//! log, so alien speech cannot steer adaptation.
//!
//! `--bundle` is read a section at a time, never held: a checking pass,
//! then the decode the scorer is built from. The daemon keeps no bundle
//! bytes. Every bundle it serves is a file of a chain that a cycle reads
//! its parent from and splices its candidate into; a cycle that finds
//! that file gone, damaged or replaced ends `failed` with a
//! `bundle_failed` flight event, and serving goes on.
//!
//! `--wal-dir DIR` makes adaptation state durable: votes tee into a
//! write-ahead log under `DIR/votes` (fsynced every
//! `--wal-fsync-ms`, default 50; 0 = fsync inline on every append), and
//! the chain is the lineage under `DIR/lineage`: `--bundle` is copied in
//! as its root, and every promoted generation's pristine sealed file
//! lands there *before* the hot swap. On restart against the same `DIR`
//! the daemon replays the vote window, resumes serving from the chain
//! head (`--bundle` must still decode, but only roots a fresh chain),
//! publishes the WAL and the chain on its `wal.*` and `lineage.*` series
//! (`lre-client --wal-status`), and answers `--rollback-to GEN`. Every
//! adaptation cycle lands in its `adapt.*` series.
//! `--keep-generations N` prunes all but the newest N generations' bytes
//! after each promote (0 = keep everything), never the one serving nor
//! the one a one-deep rollback restores. Without `--wal-dir` the vote
//! window is a scratch WAL and the chain a scratch chain
//! (`lre-bundles-<pid>-<n>`, holding what serves and what a rollback
//! restores) under `TMPDIR` (or `/tmp`), never reopened.
//!
//! A graceful shutdown is `Server::join` (every connection answered and
//! joined, the engine drained) followed by the ordinary drops at the end
//! of `main`: the vote log's drop closes its WAL, whose drop fsyncs what
//! is still unsynced, and removes a scratch window's directory; the
//! controller's drop removes a scratch chain's.

use lre_adapt::{AdaptController, DrainPath, GuardArgs};
use lre_artifact::SealedFile;
use lre_dba::GuardFile;
use lre_obs::install_panic_dump;
use lre_serve::args::{or_die, Args, ServerArgs};
use lre_serve::{
    FleetReplica, ScorerHandle, ScoringSystem, ServeObs, Server, ServerHooks, SystemBundle,
    DEFAULT_FLIGHT_CAPACITY,
};
use lre_wal::LineageStore;
use std::net::TcpListener;
use std::sync::Arc;

const USAGE: &str = "lre-adaptd --bundle PATH --guard PATH [--addr HOST:PORT] [--workers N] \
    [--max-inflight N] [--min-utts N] \
    [--v-threshold N] [--guard-max-eer-regress X] [--guard-max-cavg-regress X] \
    [--log-capacity N] [--unknown-threshold LLR] [--wal-dir DIR] [--wal-fsync-ms N] \
    [--keep-generations N]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut server = ServerArgs::default();
    let mut guard_args = GuardArgs::default();
    let mut keep_generations = 0usize;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--keep-generations" => keep_generations = args.value(&flag),
            other if server.take(other, &mut args) || guard_args.take(other, &mut args) => {}
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    let bundle_path = server.bundle(&args);
    let Some(guard_path) = guard_args.guard else {
        args.fail("--guard is required")
    };
    // The guard set is validated whole here and read again, record by
    // record, by every cycle: none of it stays resident, so the file must
    // stay in place while the daemon runs.
    let guard = or_die(
        GuardFile::open(&guard_path),
        format!("loading {}", guard_path.display()),
    );
    eprintln!(
        "[adaptd] guard set: {} held-back utterances, {} subsystems, read from {} each cycle",
        guard.num_utts(),
        guard.num_subsystems(),
        guard_path.display()
    );
    if let Some(t) = server.cfg.engine.unknown_threshold {
        eprintln!("[adaptd] open-set rejection enabled: best-LLR threshold {t}");
    }
    // Telemetry: guard verdicts, promotions, installs, rollbacks and WAL
    // activity land in the flight recorder, which also dumps to stderr on
    // panic.
    let obs = ServeObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);

    // The bundle is streamed, never held: the scorer is built from the
    // decode, and the controller keeps the file's name and identity.
    // --bundle must decode even when a lineage head supersedes it.
    let (mut bundle, id) = or_die(
        SystemBundle::load_streamed(&bundle_path),
        format!("loading {}", bundle_path.display()),
    );
    let mut served = SealedFile {
        path: bundle_path,
        id,
    };
    eprintln!(
        "[adaptd] bundle: scale={}, seed={}, {} subsystems, lineage generation {}",
        bundle.scale_name,
        bundle.seed,
        bundle.subsystems.len(),
        bundle.lineage.generation
    );

    // Durable state recovery, before anything serves: if the lineage
    // chain already has a head, its file is the serving bundle — --bundle
    // only roots a fresh chain, and its decode is dropped before the
    // head's is made. The vote WAL replays the buffered adaptation window
    // the previous process never drained.
    let chain = server.wal_dir.as_ref().map(|dir| {
        or_die(
            LineageStore::open(&dir.join("lineage")),
            format!("opening lineage store under {}", dir.display()),
        )
    });
    if let Some(store) = &chain {
        if let Some(head) = store.head().copied() {
            drop(bundle);
            let at_head = format!("lineage head {}", head.generation);
            let path = or_die(store.file(head.generation), format!("loading {at_head}")).path;
            let (decoded, id) = or_die(
                SystemBundle::load_streamed(&path),
                format!("decoding {at_head}"),
            );
            (bundle, served) = (decoded, SealedFile { path, id });
            eprintln!(
                "[adaptd] resuming from lineage head: generation {} ({} chain entries, {} retained)",
                head.generation,
                store.entries().len(),
                store.retained()
            );
        }
    }
    let votes = server.wal_dir.as_ref().map(|dir| dir.join("votes"));
    let log = server.vote_log(votes.as_deref(), DrainPath::InProcess, &obs, "adaptd");
    let log = Arc::new(log);

    let system = Arc::new(or_die(ScoringSystem::from_bundle(bundle), "invalid bundle"));
    let handle = Arc::new(ScorerHandle::new(system, served.id.crc));
    // The controller adapts a fleet of one: the replica over the handle
    // and vote log this process serves from. It records its installs into
    // the same flight recorder as the controller's decisions.
    let replica = FleetReplica::new(
        Arc::clone(&handle),
        Arc::clone(&log),
        Arc::clone(&obs.flight),
    );
    let controller = AdaptController::new(
        vec![Arc::new(replica)],
        chain.map(|store| (store, keep_generations)),
        &obs.registry,
        guard,
        served,
        guard_args.adapt,
        Arc::clone(&obs.flight),
    );
    let controller = Arc::new(or_die(controller, "wiring adaptation controller"));
    let listener = or_die(
        TcpListener::bind(&server.addr),
        format!("binding {}", server.addr),
    );
    let hooks = ServerHooks {
        tap: Some(Arc::clone(&log) as _),
        control: Some(Arc::clone(&controller) as _),
        // The replica is driven in process only: no fleet-rollout tag
        // (drain, stage, commit, abort, rollback) is answered on the wire.
        fleet: None,
        obs,
    };
    let server = or_die(
        Server::start(listener, Arc::clone(&handle), server.cfg, hooks),
        "starting server",
    );
    println!("listening on {}", server.local_addr());
    server.join();
    eprintln!(
        "[adaptd] shut down cleanly at generation {}",
        handle.generation()
    );
}
