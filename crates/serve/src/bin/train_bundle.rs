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
use lre_serve::SystemBundle;
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: lre-train-bundle [--scale smoke|demo|paper] [--seed N] --out PATH \
         [--guard-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Smoke;
    let mut seed = 42u64;
    let mut out: Option<PathBuf> = None;
    let mut guard_out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("bad --scale (smoke|demo|paper)"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed"));
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage("missing --out path")),
                ));
            }
            "--guard-out" => {
                i += 1;
                guard_out = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| usage("missing --guard-out path")),
                ));
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let out = out.unwrap_or_else(|| usage("--out is required"));

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
    if let Err(e) = bundle.save_artifact(&out) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    if let (Some(path), Some(guard)) = (&guard_out, &guard) {
        if let Err(e) = guard.save_artifact(path) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "wrote {} ({} held-back utterances)",
            path.display(),
            guard.num_utts()
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
