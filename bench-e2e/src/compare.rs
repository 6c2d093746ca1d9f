//! `e2e --compare A B`: judge two sets of result files by the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Result files of one side: a file, or every `*.json` of a directory
/// (span dumps aside), end-to-end runs only.
fn collect(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            if name.ends_with(".json") && !name.ends_with(".spans.json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for f in files {
        let text = fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if run.get("trace").and_then(Json::as_f64) == Some(0.0) {
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no end-to-end result files", path.display()));
    }
    Ok(runs)
}

/// workload → metric → values.
fn by_workload(runs: &[Json]) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// Either side's inter-quartile spread is wider than the bound, so "no
    /// worse" cannot be told from noise.
    Unresolved,
    Regressed,
}

/// Judge B against base A. `worse` is the share of A's median by which
/// B's median is worse (negative when better).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if iqr_share(a).max(iqr_share(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!(
            "{:.4} [{q1:.4}, {q3:.4}] n={}",
            median(values),
            values.len()
        ),
        None => format!("{:.4} n=1", median(values)),
    }
}

/// Print the comparison; `Ok(true)` when some metric regressed.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|t| Json::parse(&t))?;
    let (runs_a, runs_b) = (by_workload(&collect(a)?), by_workload(&collect(b)?));
    let mut regressed = false;
    println!(
        "base A = {}, B = {}; ratio = B median / A median",
        a.display(),
        b.display()
    );
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            println!("{workload}: only in A");
            continue;
        };
        println!("{workload}");
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                println!("  {name:<16} missing on one side");
                continue;
            };
            let (verdict, worse) = judge(va, vb, lower, bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "  {name:<16} A {} | B {} {} | ratio {:.4} of A, worse by {:+.2} % (bound {:.0} %) {verdict:?}",
                describe(va),
                describe(vb),
                field("unit"),
                median(vb) / median(va),
                worse * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_by_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [108.0, 109.0, 107.0, 108.5, 107.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&steady, &steady, true, 0.05).0, Verdict::Ok);
        assert_eq!(judge(&steady, &slower, true, 0.05).0, Verdict::Regressed);
        // The same move is a gain when higher is better.
        assert_eq!(judge(&steady, &slower, false, 0.05).0, Verdict::Ok);
        assert_eq!(judge(&slower, &steady, false, 0.05).0, Verdict::Regressed);
        assert_eq!(judge(&steady, &noisy, true, 0.05).0, Verdict::Unresolved);
        let (_, worse) = judge(&steady, &slower, true, 0.05);
        assert!((worse - 0.08).abs() < 1e-12);
    }
}
