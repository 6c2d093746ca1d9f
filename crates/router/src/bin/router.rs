//! The fleet router: one client-facing address over N scoring replicas.
//!
//! ```text
//! lre-router --addr HOST:PORT --replica HOST:PORT [--replica ...]
//!            [--policy least-inflight|hash] [--vnodes N]
//!            [--max-inflight N] [--health-interval-ms N]
//!            [--bundle PATH --guard PATH] [--min-utts N]
//!            [--v-threshold N] [--guard-max-eer-regress X]
//!            [--guard-max-cavg-regress X]
//! ```
//!
//! With `--bundle` and `--guard` the router also coordinates fleet-wide
//! adaptation: `lre-client --adapt` drains every replica's vote log,
//! boosts one candidate from the merged pool, and promotes it through
//! the two-phase rollout. Without them, adapt requests are refused
//! `STATUS_UNSUPPORTED` (the router still routes, health-checks, and
//! fans out rollbacks). A negative `--guard-max-eer-regress` forces
//! every candidate to fail the guard — the fleet rollback drill.

use lre_adapt::GuardArgs;
use lre_artifact::ArtifactRead;
use lre_dba::GuardSet;
use lre_obs::install_panic_dump;
use lre_router::{Backend, FleetAdapter, Policy, Router, RouterConfig, RouterObs};
use lre_serve::args::{or_die, Args};
use lre_serve::DEFAULT_FLIGHT_CAPACITY;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "lre-router --addr HOST:PORT --replica HOST:PORT [--replica ...] \
    [--policy least-inflight|hash] [--vnodes N] [--max-inflight N] [--health-interval-ms N] \
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
            "--replica" => replicas.push(args.value(&flag)),
            "--policy" => {
                cfg.policy = match args.value::<String>(&flag).as_str() {
                    "least-inflight" => Policy::LeastInflight,
                    "hash" => Policy::Hash,
                    _ => args.fail("bad --policy (least-inflight|hash)"),
                }
            }
            "--vnodes" => cfg.vnodes = args.value(&flag),
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

    let backends: Vec<Arc<Backend>> = replicas
        .iter()
        .map(|a| Arc::new(Backend::new(a.clone())))
        .collect();

    // Telemetry is always on for the router binary: per-backend routed
    // latency, eject/re-admit counters, and the flight recorder (which
    // also dumps to stderr on panic).
    let obs = RouterObs::new(DEFAULT_FLIGHT_CAPACITY);
    install_panic_dump(&obs.flight);

    let fleet = bundle_path.zip(guard_args.guard).map(|(bp, gp)| {
        let parent_bytes = or_die(std::fs::read(&bp), format!("reading {}", bp.display()));
        let guard = or_die(
            GuardSet::load_artifact(&gp),
            format!("loading {}", gp.display()),
        );
        let mut adapter = or_die(
            FleetAdapter::new(backends.clone(), guard, parent_bytes, guard_args.adapt),
            "invalid bundle for fleet adaptation",
        );
        adapter.set_flight(Arc::clone(&obs.flight));
        eprintln!(
            "[router] fleet adaptation armed (min_utts={})",
            guard_args.adapt.min_utts
        );
        Arc::new(adapter)
    });

    let listener = or_die(TcpListener::bind(&addr), format!("binding {addr}"));
    let router = or_die(
        Router::start_observed(listener, backends, cfg, fleet, Some(obs)),
        "starting router",
    );
    let admitted = router.backends().iter().filter(|b| b.is_healthy()).count();
    eprintln!(
        "[router] {} replicas configured, {} admitted at startup, policy {:?}",
        router.backends().len(),
        admitted,
        cfg.policy
    );
    println!("listening on {}", router.local_addr());
    router.join();
    eprintln!("[router] shut down cleanly");
}
