//! The fleet router: one client-facing address over N scoring replicas.
//!
//! ```text
//! lre-router --addr HOST:PORT --replica HOST:PORT [--replica ...]
//!            [--max-inflight N] [--health-interval-ms N]
//!            [--bundle PATH --guard PATH] [--min-utts N]
//!            [--v-threshold N] [--guard-max-eer-regress X]
//!            [--guard-max-cavg-regress X]
//! ```
//!
//! With `--bundle` and `--guard` the router also runs the adaptation
//! controller over its replicas: `lre-client --adapt` drains every
//! replica's vote log, boosts one candidate from the merged pool, and
//! promotes it through the two-phase rollout. Without them, adapt
//! requests are refused `STATUS_UNSUPPORTED` (the router still routes,
//! health-checks, and fans out rollbacks). A negative
//! `--guard-max-eer-regress` forces every candidate to fail the guard —
//! the fleet rollback drill.
//!
//! The router scores nothing, so it decodes no bundle: `--bundle` is
//! checked whole as a sealed container and copied into the controller's
//! scratch chain (`lre-bundles-<pid>-<n>` under `TMPDIR`, removed at
//! exit), the file every cycle reads its parent from.

use lre_adapt::{AdaptController, GuardArgs};
use lre_artifact::{check_stream, ArtifactWrite, SealedFile};
use lre_dba::GuardFile;
use lre_obs::install_panic_dump;
use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::args::{or_die, Args};
use lre_serve::{SystemBundle, DEFAULT_FLIGHT_CAPACITY};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "lre-router --addr HOST:PORT --replica HOST:PORT [--replica ...] \
    [--max-inflight N] [--health-interval-ms N] \
    [--bundle PATH --guard PATH] [--min-utts N] [--v-threshold N] \
    [--guard-max-eer-regress X] [--guard-max-cavg-regress X]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut addr = "127.0.0.1:7800".to_string();
    let mut replicas: Vec<String> = Vec::new();
    let mut cfg = RouterConfig::default();
    let mut bundle_path: Option<PathBuf> = None;
    let mut guard_args = GuardArgs::default();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => addr = args.value(&flag),
            "--replica" => {
                // One row per address in the stats-v3 dump: a repeat would
                // name its series twice.
                let replica: String = args.value(&flag);
                if replicas.contains(&replica) {
                    args.fail(&format!("--replica {replica} given twice"));
                }
                replicas.push(replica);
            }
            "--max-inflight" => cfg.max_inflight = args.value(&flag),
            "--health-interval-ms" => {
                cfg.health_interval = Duration::from_millis(args.value(&flag))
            }
            "--bundle" => bundle_path = Some(args.value(&flag)),
            other if guard_args.take(other, &mut args) => {}
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    if replicas.is_empty() {
        args.fail("at least one --replica is required");
    }
    if bundle_path.is_some() != guard_args.guard.is_some() {
        args.fail("--bundle and --guard come together (both or neither)");
    }

    // The flight recorder also dumps to stderr on panic.
    let obs = RouterObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);
    let backends: Vec<Arc<Backend>> = replicas
        .iter()
        .map(|a| Arc::new(Backend::new(a.clone(), &obs)))
        .collect();

    let adapt = bundle_path.zip(guard_args.guard).map(|(bp, gp)| {
        // The guard is validated here and read again by every cycle, so
        // its file must stay in place. The bundle is checked whole, not
        // decoded; the controller copies it into its chain.
        let guard = or_die(GuardFile::open(&gp), format!("loading {}", gp.display()));
        let id = std::fs::File::open(&bp)
            .map_err(Into::into)
            .and_then(|f| check_stream(f, SystemBundle::KIND, SystemBundle::VERSION));
        let id = or_die(id, format!("loading {}", bp.display()));
        let parent = SealedFile { path: bp, id };
        let controller = AdaptController::new(
            backends.iter().map(|b| Arc::clone(b) as _).collect(),
            None,
            &obs.registry,
            guard,
            parent,
            guard_args.adapt,
            Arc::clone(&obs.flight),
        );
        let controller = or_die(controller, "invalid bundle or guard for fleet adaptation");
        eprintln!(
            "[router] fleet adaptation armed (min_utts={})",
            guard_args.adapt.min_utts
        );
        Arc::new(controller)
    });

    let listener = or_die(TcpListener::bind(&addr), format!("binding {addr}"));
    let router = or_die(
        Router::start(listener, backends, cfg, adapt, obs),
        "starting router",
    );
    let admitted = router.backends().iter().filter(|b| b.is_healthy()).count();
    eprintln!(
        "[router] {} replicas configured, {} admitted at startup",
        router.backends().len(),
        admitted
    );
    println!("listening on {}", router.local_addr());
    router.join();
    eprintln!("[router] shut down cleanly");
}
