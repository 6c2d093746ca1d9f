//! Command-line front end for the traffic simulator.
//!
//! ```text
//! lre-trafficsim --scenario NAME|PATH --seed N [--bundle PATH] [--guard PATH]
//!                [--work-dir DIR] [--export PATH] [--verdicts-out PATH]
//!                [--tick-ms N]
//! lre-trafficsim --replay PATH [--scenario PATH] [--bundle PATH] [...]
//! lre-trafficsim --scenario NAME|PATH --seed N --export PATH --export-only
//! lre-trafficsim --list
//! ```
//!
//! `--scenario` takes a built-in's name (`--list`) or the path of a
//! scenario file. The scenario starts its own processes — binaries from
//! this executable's directory, `{bundle}` / `{guard}` / `{work}` in its
//! process lines standing for `--bundle`, `--guard` and `--work-dir` —
//! and every run, a replay included, starts them fresh. `--work-dir`
//! (default: a new directory under the system temp dir) receives each
//! process's stderr as `NAME.log`; it must be empty or absent. A replay
//! judges the invariants of the scenario its stream names; a stream
//! generated from a file needs `--scenario PATH` again.
//!
//! Exit status 0 iff every invariant passed. The verdict file (stdout by
//! default) is deterministic for a given plan and outcome set; measured
//! numbers go to stderr only.

use lre_serve::args::{or_die, Args};
use lre_trafficsim::{
    builtin_scenarios, by_name, generate, run, CommandStream, ScenarioSpec, SimConfig,
};
use std::path::PathBuf;

const USAGE: &str = "lre-trafficsim (--scenario NAME|PATH --seed N | --replay PATH \
    [--scenario PATH]) [--bundle PATH] [--guard PATH] [--work-dir DIR] \
    [--export PATH] [--verdicts-out PATH] [--tick-ms N] [--export-only] [--list]";

fn main() {
    let mut scenario: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut export: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut verdicts_out: Option<PathBuf> = None;
    let mut export_only = false;
    let mut cfg = SimConfig::default();

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
            "--seed" => seed = Some(args.value(&flag)),
            "--bundle" => cfg.deployment.bundle = Some(args.value(&flag)),
            "--guard" => cfg.deployment.guard = Some(args.value(&flag)),
            "--work-dir" => cfg.deployment.work_dir = args.value(&flag),
            "--export" => export = Some(args.value(&flag)),
            "--replay" => replay = Some(args.value(&flag)),
            "--verdicts-out" => verdicts_out = Some(args.value(&flag)),
            "--tick-ms" => cfg.tick_ms = args.value(&flag),
            "--export-only" => export_only = true,
            other => args.fail(&format!("unknown argument {other}")),
        }
    }

    // --- A built-in by name, else a scenario file.
    let spec: Option<ScenarioSpec> = scenario.as_ref().map(|name| {
        by_name(name).unwrap_or_else(|| {
            let text = or_die(
                std::fs::read_to_string(name),
                format!("{name:?} is no built-in scenario (see --list) and reading it"),
            );
            or_die(ScenarioSpec::parse(&text), name)
        })
    });

    // --- Resolve the command stream: generate fresh or load a replay.
    let (stream, spec) = match (&replay, spec) {
        (Some(path), spec) => {
            let bytes = or_die(std::fs::read(path), format!("reading {}", path.display()));
            let stream = or_die(
                CommandStream::decode(&bytes),
                format!("{} is not a valid command stream", path.display()),
            );
            // The invariants come from the scenario the stream names, so
            // a replay judges exactly what the original run judged.
            let spec = spec.or_else(|| by_name(&stream.scenario));
            let spec = spec
                .filter(|s| s.name == stream.scenario)
                .ok_or("give its file as --scenario");
            (
                stream.clone(),
                or_die(spec, format!("stream of scenario {:?}", stream.scenario)),
            )
        }
        (None, Some(spec)) => {
            let seed = seed.unwrap_or_else(|| args.fail("--seed is required with --scenario"));
            (generate(&spec, seed), spec)
        }
        (None, None) => args.fail("one of --scenario or --replay is required"),
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

    eprintln!(
        "[trafficsim] running scenario={} seed={} ticks={} commands={} in {}",
        stream.scenario,
        stream.seed,
        stream.ticks,
        stream.commands.len(),
        cfg.deployment.work_dir.display()
    );
    let report = run(&stream, &spec, &cfg);
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
