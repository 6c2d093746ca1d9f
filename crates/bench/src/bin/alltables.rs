//! Runs every table and figure off a single shared experiment build —
//! the efficient way to regenerate the full evaluation section
//! (the per-table binaries each rebuild the experiment).

use lre_bench::{
    print_dba_table, print_figure3, print_headline, print_table1, print_table4, DbaAtV3,
    HarnessArgs,
};
use lre_dba::DbaVariant;

fn main() {
    let args = HarnessArgs::parse();
    let exp = args.build_experiment();

    println!("\n==================== TABLE 1 ====================");
    print_table1(&exp);
    println!("\n==================== TABLE 2 ====================");
    print_dba_table(&exp, DbaVariant::M1, &args);
    println!("\n==================== TABLE 3 ====================");
    print_dba_table(&exp, DbaVariant::M2, &args);
    println!("\n==================== TABLE 4 ====================");
    let v3 = DbaAtV3::run(&exp);
    print_table4(&exp, &v3);
    println!("\n==================== FIGURE 3 ====================");
    print_figure3(&exp, &v3);
    println!("\n==================== HEADLINE ====================");
    print_headline(&exp, &v3);
}
