//! **Figure 3** of the paper: DET curves of the baseline fusion versus the
//! DBA fusion at V = 3, for 30s/10s/3s tests, on probit axes. The DBA
//! curve is the DBA-M2 fusion — Table 4's `fusion(M2)` row, the stronger
//! DBA system at reproduction scale — not the paper's twelve-system
//! (DBA-M1)+(DBA-M2) one.
//!
//! Emits CSV (one file per curve under `target/figure3/`) with columns
//! `threshold,p_fa,p_miss,probit_fa,probit_miss`, plus a summary to stdout.

use lre_bench::{print_figure3, DbaAtV3, HarnessArgs};

fn main() {
    let exp = HarnessArgs::parse().build_experiment();
    print_figure3(&exp, &DbaAtV3::run(&exp));
}
