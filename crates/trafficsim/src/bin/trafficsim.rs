//! Command-line front end for the traffic simulator.
//!
//! ```text
//! lre-trafficsim --scenario NAME --seed N --addr HOST:PORT
//!                [--replica HOST:PORT]... [--adapt-addr HOST:PORT]
//!                [--adaptd-cmd CMD] [--export PATH] [--verdicts-out PATH]
//!                [--tick-ms N]
//! lre-trafficsim --scenario-file PATH --seed N --addr HOST:PORT [...]
//! lre-trafficsim --replay PATH --addr HOST:PORT [...]
//! lre-trafficsim --scenario NAME --seed N --export PATH --export-only
//! lre-trafficsim --list
//! ```
//!
//! `--scenario-file` loads a [`ScenarioSpec`] from the `key = value` text
//! format instead of a built-in; replaying a stream generated from a file
//! needs the same `--scenario-file` again, since the invariants live in
//! the file, not the stream. `--adaptd-cmd` hands the driver the shell
//! command that starts the adapting server, which is what crash-recovery
//! scenarios use to deliver a real SIGKILL and respawn it.
//!
//! Exit status 0 iff every invariant passed. The verdict file (stdout by
//! default) is deterministic for a given plan and outcome set; measured
//! numbers go to stderr only.

use lre_serve::args::{or_die, Args};
use lre_trafficsim::{
    builtin_scenarios, by_name, generate, run, CommandStream, ScenarioSpec, SimConfig,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "lre-trafficsim (--scenario NAME --seed N | \
    --scenario-file PATH --seed N | --replay PATH) \
    --addr HOST:PORT [--replica HOST:PORT]... [--adapt-addr HOST:PORT] \
    [--adaptd-cmd CMD] [--export PATH] [--verdicts-out PATH] [--tick-ms N] \
    [--export-only] [--list]";

fn main() {
    let mut scenario: Option<String> = None;
    let mut scenario_file: Option<PathBuf> = None;
    let mut adaptd_cmd: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut addr: Option<SocketAddr> = None;
    let mut replicas: Vec<SocketAddr> = Vec::new();
    let mut adapt_addr: Option<SocketAddr> = None;
    let mut export: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut verdicts_out: Option<PathBuf> = None;
    let mut tick_ms = 50u64;
    let mut export_only = false;

    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--list" => {
                for s in builtin_scenarios() {
                    println!("{:<14} {}", s.name, s.about);
                }
                return;
            }
            "--scenario" => scenario = Some(args.value(&flag)),
            "--scenario-file" => scenario_file = Some(args.value(&flag)),
            "--adaptd-cmd" => adaptd_cmd = Some(args.value(&flag)),
            "--seed" => seed = Some(args.value(&flag)),
            "--addr" => addr = Some(args.value(&flag)),
            "--replica" => replicas.push(args.value(&flag)),
            "--adapt-addr" => adapt_addr = Some(args.value(&flag)),
            "--export" => export = Some(args.value(&flag)),
            "--replay" => replay = Some(args.value(&flag)),
            "--verdicts-out" => verdicts_out = Some(args.value(&flag)),
            "--tick-ms" => tick_ms = args.value(&flag),
            "--export-only" => export_only = true,
            other => args.fail(&format!("unknown argument {other}")),
        }
    }

    // --- Resolve the scenario file, if any: it supplies both the plan
    // (when generating) and the invariants (always).
    let file_spec: Option<ScenarioSpec> = scenario_file.as_ref().map(|path| {
        let text = or_die(
            std::fs::read_to_string(path),
            format!("reading {}", path.display()),
        );
        or_die(ScenarioSpec::parse(&text), path.display())
    });
    if scenario.is_some() && file_spec.is_some() {
        args.fail("--scenario and --scenario-file are mutually exclusive");
    }

    // --- Resolve the command stream: generate fresh or load a replay.
    let stream: CommandStream = match (&replay, &scenario) {
        (Some(path), None) => {
            let bytes = or_die(std::fs::read(path), format!("reading {}", path.display()));
            let stream = or_die(
                CommandStream::decode(&bytes),
                format!("{} is not a valid command stream", path.display()),
            );
            eprintln!(
                "[trafficsim] replaying {}: scenario={} seed={} ticks={} commands={}",
                path.display(),
                stream.scenario,
                stream.seed,
                stream.ticks,
                stream.commands.len()
            );
            stream
        }
        (None, Some(name)) => {
            let spec = by_name(name)
                .unwrap_or_else(|| args.fail(&format!("unknown scenario {name:?} (see --list)")));
            let seed = seed.unwrap_or_else(|| args.fail("--seed is required with --scenario"));
            generate(&spec, seed)
        }
        (None, None) => match &file_spec {
            Some(spec) => {
                let seed =
                    seed.unwrap_or_else(|| args.fail("--seed is required with --scenario-file"));
                generate(spec, seed)
            }
            None => args.fail("one of --scenario, --scenario-file, or --replay is required"),
        },
        (Some(_), Some(_)) => args.fail("--replay and --scenario are mutually exclusive"),
    };
    // The invariant set always comes from the stream's recorded scenario
    // name, so a replay judges exactly what the original run judged. A
    // stream generated from a scenario file carries the file's name, and
    // replaying it needs the same file again (checked by name).
    let spec = match file_spec {
        Some(spec) => {
            if spec.name != stream.scenario {
                eprintln!(
                    "error: stream was generated from scenario {:?} but the file defines {:?}",
                    stream.scenario, spec.name
                );
                std::process::exit(1);
            }
            spec
        }
        None => by_name(&stream.scenario).unwrap_or_else(|| {
            eprintln!(
                "error: stream names unknown scenario {:?}; pass its --scenario-file, \
                 or this binary is too old or too new",
                stream.scenario
            );
            std::process::exit(1);
        }),
    };

    if let Some(path) = &export {
        or_die(
            std::fs::write(path, stream.encode()),
            format!("writing {}", path.display()),
        );
        eprintln!(
            "[trafficsim] exported {} commands (crc32={:08x}) to {}",
            stream.commands.len(),
            stream.crc32(),
            path.display()
        );
    }
    if export_only {
        if export.is_none() {
            args.fail("--export-only needs --export PATH");
        }
        return;
    }

    let addr = addr.unwrap_or_else(|| args.fail("--addr is required"));
    let mut cfg = SimConfig::new(addr);
    cfg.replicas = replicas;
    cfg.adapt_addr = adapt_addr;
    cfg.tick_ms = tick_ms;
    cfg.hostile_timeout = Duration::from_secs(5);
    cfg.adaptd_cmd = adaptd_cmd;

    eprintln!(
        "[trafficsim] running scenario={} seed={} ticks={} commands={} against {}",
        stream.scenario,
        stream.seed,
        stream.ticks,
        stream.commands.len(),
        addr
    );
    let report = run(&stream, &spec.invariants, &cfg);
    eprint!("{}", report.detail);
    match &verdicts_out {
        Some(path) => {
            or_die(
                std::fs::write(path, &report.verdict_text),
                format!("writing {}", path.display()),
            );
            eprint!("{}", report.verdict_text);
        }
        None => print!("{}", report.verdict_text),
    }
    std::process::exit(if report.pass { 0 } else { 1 });
}
