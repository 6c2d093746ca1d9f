//! Comparison of the paper's two LR families (§1): the acoustic GMM/SDC
//! baseline versus the phonotactic PPRVSM subsystems, on the same corpus.
//! The paper builds on the phonotactic family; this binary grounds that
//! choice empirically for the reproduction.

use lre_bench::acoustic::{AcousticConfig, AcousticSystem};
use lre_bench::{pct, HarnessArgs};
use lre_corpus::Duration;
use lre_dba::Experiment;
use lre_eval::pooled_eer;
use lre_phone::UniversalInventory;

fn main() {
    let args = HarnessArgs::parse();
    let exp = args.build_experiment();
    let inv = UniversalInventory::new();

    eprintln!("[harness] training acoustic GMM/SDC system…");
    let acoustic = AcousticSystem::train(&exp.ds, &inv, &AcousticConfig::default());

    println!(
        "# Acoustic (GMM/SDC) vs phonotactic (PPRVSM) baselines, scale={}, seed={}",
        args.scale.name(),
        args.seed
    );
    println!("{:<26} | 30s EER | 10s EER | 3s EER", "system");
    print!("{:<26}", "acoustic GMM-SDC");
    for &d in Duration::all().iter() {
        let di = Experiment::duration_index(d);
        let labels = &exp.test_labels[di];
        let m = acoustic.score_set(exp.ds.test_set(d), &exp.ds, &inv);
        print!(" | {:<7}", pct(pooled_eer(&m, labels)));
    }
    println!();
    for (q, fe) in exp.frontends.iter().enumerate() {
        print!("{:<26}", format!("phonotactic {}", fe.spec.name));
        for (di, _) in Duration::all().iter().enumerate() {
            let labels = &exp.test_labels[di];
            print!(
                " | {:<7}",
                pct(pooled_eer(&exp.baseline_test_scores[q][di], labels))
            );
        }
        println!();
    }
}
