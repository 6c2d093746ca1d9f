//! **Table 1** of the paper: composition of `Tr_DBA` (DBA-M1) as the vote
//! threshold V varies — number of selected test utterances and the
//! pseudo-label error rate.
//!
//! Paper values (41,793-segment NIST LRE 2009 pool):
//! V=6: 4,939 utts / 4.74 %  …  V=1: 35,262 utts / 31.88 %
//! (number 4939 | 8364 | 11845 | 15894 | 22707 | 35262, error rate
//! 4.74 | 7.61 | 11.12 | 17.23 | 23.94 | 31.88 % for V = 6…1).
//! The reproduction reports the same two rows over the synthetic test pool
//! (all three durations pooled, as the paper's counts exceed a single
//! duration's 41,793/3 share).

use lre_bench::{print_table1, HarnessArgs};

fn main() {
    let exp = HarnessArgs::parse().build_experiment();
    print_table1(&exp);
}
