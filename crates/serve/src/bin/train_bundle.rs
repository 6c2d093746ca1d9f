//! Train a full PPRVSM system and save it as a scoring bundle.
//!
//! ```text
//! lre-train-bundle [--scale smoke|demo|paper] [--seed N] --out PATH
//!                  [--guard-out PATH]
//! ```
//!
//! `--guard-out` additionally writes the experiment's dev split as a
//! sealed [`GuardSet`] — the held-back trial set `lre-adaptd`'s eval guard
//! shadow-scores adaptation candidates on.

use lre_artifact::ArtifactWrite;
use lre_corpus::Scale;
use lre_dba::{Experiment, ExperimentConfig, GuardSet};
use lre_serve::args::{or_die, Args};
use lre_serve::SystemBundle;
use std::path::PathBuf;

const USAGE: &str =
    "lre-train-bundle [--scale smoke|demo|paper] [--seed N] --out PATH [--guard-out PATH]";

fn main() {
    let mut scale = Scale::Smoke;
    let mut seed = 42u64;
    let mut out: Option<PathBuf> = None;
    let mut guard_out: Option<PathBuf> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            "--out" => out = Some(args.value(&flag)),
            "--guard-out" => guard_out = Some(args.value(&flag)),
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    let Some(out) = out else {
        args.fail("--out is required")
    };

    eprintln!(
        "[train-bundle] building experiment: scale={}, seed={seed} (AM training + decoding)",
        scale.name()
    );
    let t0 = std::time::Instant::now();
    let exp = Experiment::build(&ExperimentConfig::new(scale, seed));
    eprintln!(
        "[train-bundle] experiment ready in {:.1}s; packaging",
        t0.elapsed().as_secs_f64()
    );
    // Snapshot the dev split before the experiment is consumed: it is the
    // adaptation guard's held-back trial set.
    let guard = guard_out.as_ref().map(|_| GuardSet::from_experiment(&exp));
    let bundle = SystemBundle::from_experiment(exp);
    or_die(
        bundle.save_artifact(&out),
        format!("writing {}", out.display()),
    );
    if let (Some(path), Some(guard)) = (&guard_out, &guard) {
        or_die(
            guard.save_artifact(path),
            format!("writing {}", path.display()),
        );
        println!(
            "wrote {} ({} held-back utterances)",
            path.display(),
            guard.labels.len()
        );
    }
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {} ({} subsystems, {} fusion backends, {} bytes)",
        out.display(),
        bundle.subsystems.len(),
        bundle.fusions.len(),
        size
    );
}
