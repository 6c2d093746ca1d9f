//! Shared harness utilities for the table-regeneration binaries.
//!
//! Every binary accepts `--scale {smoke|demo|paper}` (default `demo`) and
//! `--seed N` (default 42), builds the shared [`Experiment`] once, and
//! prints its table in the same row/column layout as the paper. Each table
//! and figure is printed by one function here; `table1` … `table4` and
//! `figure3` call theirs, `alltables` calls them all off one build.

pub mod acoustic;

use lre_corpus::{Duration, Scale};
use lre_dba::{
    dba::{baseline_votes, run_dba, DbaOutcome},
    fuse_duration, select_tr_dba, DbaVariant, Experiment, ExperimentConfig,
};
use lre_eval::{det_curve, min_cavg, pooled_eer, probit, split_trials, CavgParams, ScoreMatrix};
use std::io::Write;

/// Parsed command-line options common to every table binary.
#[derive(Clone, Copy, Debug)]
pub struct HarnessArgs {
    pub scale: Scale,
    pub seed: u64,
    /// Reuse/populate the on-disk supervector cache (`target/svcache`).
    pub cache: bool,
    /// Worker-thread count for the utterance-parallel stages; `None` uses
    /// every available core.
    pub threads: Option<usize>,
}

impl HarnessArgs {
    /// Parse `--scale` / `--seed` / `--threads` from `std::env::args`.
    /// Unknown flags abort with a usage message. A `--threads N` request is
    /// applied to rayon's global pool immediately, so every parallel stage
    /// of the calling binary (decoding, DBA sweeps) runs at that width.
    pub fn parse() -> HarnessArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = Self::parse_from(&args);
        if let Some(n) = parsed.threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("configure global thread pool");
        }
        parsed
    }

    /// [`HarnessArgs::parse`] without the global-pool side effect (testable).
    /// `--threads 0` would silently ask the pool builder for "default
    /// width", defeating the point of the flag — it is clamped to 1 with a
    /// warning instead.
    pub fn parse_from(args: &[String]) -> HarnessArgs {
        let mut scale = Scale::Demo;
        let mut seed = 42u64;
        let mut cache = false;
        let mut threads = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --scale (smoke|demo|paper)"));
                }
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --seed"));
                }
                "--cache" => cache = true,
                "--threads" => {
                    i += 1;
                    let n: usize = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --threads (integer)"));
                    if n == 0 {
                        eprintln!("[harness] --threads 0 is meaningless; clamping to 1");
                    }
                    threads = Some(n.max(1));
                }
                other => usage(&format!("unknown argument {other}")),
            }
            i += 1;
        }
        HarnessArgs {
            scale,
            seed,
            cache,
            threads,
        }
    }

    /// Build the shared experiment, reporting progress and wall time.
    pub fn build_experiment(&self) -> Experiment {
        eprintln!(
            "[harness] building experiment: scale={}, seed={} (AM training + decoding; \
             this is the dominant cost, per §5.4)",
            self.scale.name(),
            self.seed
        );
        let t0 = std::time::Instant::now();
        let cfg = ExperimentConfig::new(self.scale, self.seed);
        let exp = if self.cache {
            Experiment::build_cached(&cfg, std::path::Path::new("target/svcache"))
        } else {
            Experiment::build(&cfg)
        };
        eprintln!(
            "[harness] experiment ready in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        exp
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: <bin> [--scale smoke|demo|paper] [--seed N] [--cache] [--threads N]"
    );
    std::process::exit(2);
}

/// Print the Table-2/Table-3 layout: per front-end × duration, baseline
/// EER/Cavg and the DBA sweep over V = 6…1. DBA retraining runs once per
/// `(duration, V)` cell and is shared across front-ends (it retrains all six
/// subsystems in one pass), so the whole table costs 18 retraining passes.
pub fn print_dba_table(exp: &Experiment, variant: DbaVariant, args: &HarnessArgs) {
    println!(
        "# Table {}: Performance of DBA ({}), closed-set (EER and Cavg in %)",
        if variant == DbaVariant::M1 { 2 } else { 3 },
        variant.name()
    );
    println!("# scale={}, seed={}", args.scale.name(), args.seed);
    println!(
        "{:<12} | {:<4} | {:<6} | Baseline | V=6   | V=5   | V=4   | V=3   | V=2   | V=1",
        "Front-end", "dur", "metric"
    );

    // One DBA retraining pass per V (selection pools all durations, as the
    // paper's Table 1 counts imply); reused by every row of the table.
    let outcomes: Vec<_> = (1..=6u8).rev().map(|v| run_dba(exp, variant, v)).collect();

    for &d in Duration::all().iter() {
        let di = Experiment::duration_index(d);
        let labels = &exp.test_labels[di];

        for (q, fe) in exp.frontends.iter().enumerate() {
            let base = &exp.baseline_test_scores[q][di];
            let base_eer = pooled_eer(base, labels);
            let base_cavg = min_cavg(base, labels, &CavgParams::default());

            print!(
                "{:<12} | {:<4} | EER    | {:<8}",
                fe.spec.name,
                d.name(),
                pct(base_eer)
            );
            for out in &outcomes {
                print!(" | {:<5}", pct(pooled_eer(&out.test_scores[di][q], labels)));
            }
            println!();
            print!(
                "{:<12} | {:<4} | Cavg   | {:<8}",
                fe.spec.name,
                d.name(),
                pct(base_cavg)
            );
            for out in &outcomes {
                print!(
                    " | {:<5}",
                    pct(min_cavg(
                        &out.test_scores[di][q],
                        labels,
                        &CavgParams::default()
                    ))
                );
            }
            println!();
        }
    }
}

/// Print **Table 1**: size and pseudo-label error rate of `Tr_DBA`
/// (DBA-M1 selection) for V = 6…1, pooled over the three test sets.
pub fn print_table1(exp: &Experiment) {
    let mut numbers = [0usize; 6];
    let mut wrongs = [0usize; 6];
    let mut pool = 0usize;
    for &d in Duration::all().iter() {
        let votes = baseline_votes(exp, d);
        let truth = &exp.test_labels[Experiment::duration_index(d)];
        pool += truth.len();
        for v in 1..=6u8 {
            let sel = select_tr_dba(&votes, v);
            numbers[(v - 1) as usize] += sel.len();
            wrongs[(v - 1) as usize] += sel.iter().filter(|s| s.label != truth[s.utt]).count();
        }
    }
    println!("test pool: {pool} utterances (all durations)");
    print!("{:<12}", "");
    for v in (1..=6usize).rev() {
        print!(" | V = {v}    ");
    }
    println!();
    print!("{:<12}", "number");
    for v in (1..=6usize).rev() {
        print!(" | {:<9}", numbers[v - 1]);
    }
    println!();
    print!("{:<12}", "error rate");
    for v in (1..=6usize).rev() {
        let n = numbers[v - 1];
        print!(
            " | {:<8.2}%",
            if n == 0 {
                0.0
            } else {
                100.0 * wrongs[v - 1] as f64 / n as f64
            }
        );
    }
    println!();
}

/// DBA at V = 3 — what Table 4, Figure 3 and the headline line report:
/// both variants' retrained subsystems and, per duration (indexed like
/// [`Duration::all`]), the fused test scores of three systems.
pub struct DbaAtV3 {
    m1: DbaOutcome,
    m2: DbaOutcome,
    /// The six baseline subsystems, uniform weights.
    pub baseline_fused: Vec<ScoreMatrix>,
    /// The paper's configuration, (DBA-M1)+(DBA-M2): all twelve retrained
    /// subsystems with Eq. 15 weights. Table 4's `fusion(M1+M2)` row.
    pub m1m2_fused: Vec<ScoreMatrix>,
    /// The six DBA-M2 subsystems alone. At reproduction scale DBA-M1 is
    /// data-starved on long segments (hundreds of pseudo-labels vs the
    /// paper's ~16k), so this is the stronger DBA system: Table 4's
    /// `fusion(M2)` row, Figure 3's `dba_*` curves and the headline.
    pub m2_fused: Vec<ScoreMatrix>,
}

impl DbaAtV3 {
    /// Two retraining passes (M1, M2) and nine fusions.
    pub fn run(exp: &Experiment) -> DbaAtV3 {
        let m1 = run_dba(exp, DbaVariant::M1, 3);
        let m2 = run_dba(exp, DbaVariant::M2, 3);
        let (mut baseline_fused, mut m1m2_fused, mut m2_fused) =
            (Vec::new(), Vec::new(), Vec::new());
        for &d in Duration::all().iter() {
            let di = Experiment::duration_index(d);
            let baseline_test: Vec<ScoreMatrix> = exp
                .baseline_test_scores
                .iter()
                .map(|per| per[di].clone())
                .collect();
            let baseline = fuse_duration(exp, &exp.baseline_dev_scores, &baseline_test, d, None);
            baseline_fused.push(baseline.test_scores);

            let mut dev = Vec::new();
            let mut test = Vec::new();
            let mut counts = Vec::new();
            for out in [&m1, &m2] {
                dev.extend(out.dev_scores.iter().cloned());
                test.extend(out.test_scores[di].iter().cloned());
                counts.extend(out.criterion_counts.iter().copied());
            }
            m1m2_fused.push(fuse_duration(exp, &dev, &test, d, Some(&counts)).test_scores);

            let m2_only = fuse_duration(
                exp,
                &m2.dev_scores,
                &m2.test_scores[di],
                d,
                Some(&m2.criterion_counts),
            );
            m2_fused.push(m2_only.test_scores);
        }
        DbaAtV3 {
            m1,
            m2,
            baseline_fused,
            m1m2_fused,
            m2_fused,
        }
    }
}

/// Print **Table 4**: per-front-end and fused EER/min-Cavg, baseline
/// versus DBA at V = 3. A front-end's DBA cell is the better of its two
/// variants (the paper reports its single per-front-end "DBA" number this
/// way — M2 on 30 s, M1 on shorter segments); the DBA block ends with both
/// fusions, each row naming its own.
pub fn print_table4(exp: &Experiment, v3: &DbaAtV3) {
    let p = CavgParams::default();
    let cell = |m: &ScoreMatrix, labels: &[usize]| -> String {
        format!(
            "{}/{}",
            pct(pooled_eer(m, labels)),
            pct(min_cavg(m, labels, &p))
        )
    };
    let fusion_row = |name: &str, fused: &[ScoreMatrix]| {
        print!("{:<10}{:<14}", "", name);
        for (m, labels) in fused.iter().zip(&exp.test_labels) {
            print!("| {:<13}", cell(m, labels));
        }
        println!();
    };
    println!(
        "{:<10}{:<14}| 30s          | 10s          | 3s",
        "System", ""
    );
    for (q, fe) in exp.frontends.iter().enumerate() {
        print!(
            "{:<10}{:<14}",
            if q == 0 { "Baseline" } else { "" },
            fe.spec.name
        );
        for (per_dur, labels) in exp.baseline_test_scores[q].iter().zip(&exp.test_labels) {
            print!("| {:<13}", cell(per_dur, labels));
        }
        println!();
    }
    fusion_row("fusion", &v3.baseline_fused);
    for (q, fe) in exp.frontends.iter().enumerate() {
        print!(
            "{:<10}{:<14}",
            if q == 0 { "DBA" } else { "" },
            fe.spec.name
        );
        for (di, labels) in exp.test_labels.iter().enumerate() {
            let (s1, s2) = (&v3.m1.test_scores[di][q], &v3.m2.test_scores[di][q]);
            let best = if pooled_eer(s1, labels) <= pooled_eer(s2, labels) {
                s1
            } else {
                s2
            };
            print!("| {:<13}", cell(best, labels));
        }
        println!();
    }
    fusion_row("fusion(M1+M2)", &v3.m1m2_fused);
    fusion_row("fusion(M2)", &v3.m2_fused);
}

/// Write **Figure 3**'s DET curves — the baseline fusion against the
/// DBA-M2 fusion at V = 3 ([`DbaAtV3::m2_fused`]), on probit axes — as
/// `target/figure3/{baseline,dba}_{30s,10s,3s}.csv` (columns
/// `threshold,p_fa,p_miss,probit_fa,probit_miss`), and print the EER
/// crossings.
pub fn print_figure3(exp: &Experiment, v3: &DbaAtV3) {
    let dir = std::path::Path::new("target/figure3");
    std::fs::create_dir_all(dir).expect("mkdir");
    for (di, &d) in Duration::all().iter().enumerate() {
        let labels = &exp.test_labels[di];
        let (baseline, dba) = (&v3.baseline_fused[di], &v3.m2_fused[di]);
        for (name, m) in [("baseline", baseline), ("dba", dba)] {
            let (tar, non) = split_trials(m, labels);
            let path = dir.join(format!("{name}_{}.csv", d.name()));
            let mut f = std::fs::File::create(&path).expect("create CSV");
            writeln!(f, "threshold,p_fa,p_miss,probit_fa,probit_miss").unwrap();
            for pt in det_curve(&tar, &non) {
                // probit is only defined on (0,1): clamp the step-function
                // endpoints.
                let fa = pt.p_fa.clamp(1e-6, 1.0 - 1e-6);
                let miss = pt.p_miss.clamp(1e-6, 1.0 - 1e-6);
                writeln!(
                    f,
                    "{},{:.6},{:.6},{:.4},{:.4}",
                    pt.threshold,
                    pt.p_fa,
                    pt.p_miss,
                    probit(fa),
                    probit(miss)
                )
                .unwrap();
            }
        }
        println!(
            "{}: baseline fused EER {}% | DBA fused EER {}%  (CSV in target/figure3/)",
            d.name(),
            pct(pooled_eer(baseline, labels)),
            pct(pooled_eer(dba, labels))
        );
    }
}

/// Print the relative fused-EER change per duration, baseline fusion to
/// DBA-M2 fusion, beside the paper's.
pub fn print_headline(exp: &Experiment, v3: &DbaAtV3) {
    for (di, &d) in Duration::all().iter().enumerate() {
        let labels = &exp.test_labels[di];
        let b = pooled_eer(&v3.baseline_fused[di], labels);
        let a = pooled_eer(&v3.m2_fused[di], labels);
        println!(
            "{}: fused EER {} -> {}  (relative change {:+.2}%; paper: -1.8/-11.7/-15.4% for 30/10/3s)",
            d.name(),
            pct(b),
            pct(a),
            100.0 * (a - b) / b
        );
    }
}

/// Format a fraction as the paper's percent style with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.0243), "2.43");
        assert_eq!(pct(0.2300), "23.00");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let a = HarnessArgs::parse_from(&argv(&[]));
        assert_eq!(a.scale, Scale::Demo);
        assert_eq!(a.seed, 42);
        assert!(!a.cache);
        assert_eq!(a.threads, None);
    }

    #[test]
    fn parse_explicit_flags() {
        let a = HarnessArgs::parse_from(&argv(&[
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--cache",
            "--threads",
            "3",
        ]));
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.seed, 7);
        assert!(a.cache);
        assert_eq!(a.threads, Some(3));
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        // `--threads 0` used to slip through to the pool builder, where 0
        // means "pick a default width" — the opposite of what the caller
        // asked for. It must clamp to a real width of 1.
        let a = HarnessArgs::parse_from(&argv(&["--threads", "0"]));
        assert_eq!(a.threads, Some(1));
    }
}
