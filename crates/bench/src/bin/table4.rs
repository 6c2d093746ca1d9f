//! **Table 4** of the paper: per-front-end and fused performance, PPRVSM
//! baseline versus DBA at V = 3, with the paper's (DBA-M1)+(DBA-M2)
//! combination and the DBA-M2-only fusion as separate rows.
//! The paper's fused EER/Cavg: baseline 1.11/2.73/12.37 % → DBA
//! 1.09/2.41/10.47 % on 30s/10s/3s, i.e. the biggest relative gains on the
//! shortest utterances.

use lre_bench::{print_table4, DbaAtV3, HarnessArgs};

fn main() {
    let exp = HarnessArgs::parse().build_experiment();
    print_table4(&exp, &DbaAtV3::run(&exp));
}
