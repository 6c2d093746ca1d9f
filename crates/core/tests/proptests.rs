//! Property-based tests for the DBA voting and selection logic (Eq. 10–13).

use lre_dba::{select_tr_dba, vote_matrix};
use lre_eval::ScoreMatrix;
use proptest::prelude::*;

/// Random subsystem score matrices: `q` subsystems × `n` utterances × `k`
/// classes.
fn score_stack(q: usize, k: usize) -> impl Strategy<Value = (Vec<ScoreMatrix>, Vec<usize>)> {
    prop::collection::vec(
        (
            0..k,
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, k), q),
        ),
        3..25,
    )
    .prop_map(move |rows| {
        let mut mats: Vec<ScoreMatrix> = (0..q).map(|_| ScoreMatrix::new(k)).collect();
        let mut labels = Vec::new();
        for (lab, per_sub) in rows {
            labels.push(lab);
            for (m, row) in mats.iter_mut().zip(per_sub) {
                m.push_row(&row);
            }
        }
        (mats, labels)
    })
}

proptest! {
    #[test]
    fn vote_counts_bounded_by_subsystems((mats, _labels) in score_stack(5, 4)) {
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let votes = vote_matrix(&refs);
        for j in 0..votes.num_utts() {
            let row = votes.row(j);
            // No language collects more votes than there are subsystems, and
            // the votes across languages cannot exceed Q either (each
            // subsystem casts at most one).
            prop_assert!(row.iter().all(|&c| c as usize <= 5));
            prop_assert!(row.iter().map(|&c| c as usize).sum::<usize>() <= 5);
        }
    }

    #[test]
    fn selection_monotone_and_consistent((mats, _labels) in score_stack(4, 3)) {
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let votes = vote_matrix(&refs);
        let mut prev = usize::MAX;
        for v in 1..=4u8 {
            let sel = select_tr_dba(&votes, v);
            prop_assert!(sel.len() <= prev, "selection must shrink with V");
            prev = sel.len();
            for p in &sel {
                prop_assert!(p.votes >= v);
                prop_assert!(p.utt < votes.num_utts());
                prop_assert!(p.label < votes.num_classes());
                // The recorded vote count must match the matrix.
                prop_assert_eq!(votes.row(p.utt)[p.label], p.votes);
            }
            // No utterance selected twice.
            let mut seen = std::collections::HashSet::new();
            for p in &sel {
                prop_assert!(seen.insert(p.utt));
            }
        }
    }

    #[test]
    fn higher_v_selections_are_subsets((mats, _labels) in score_stack(4, 3)) {
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let votes = vote_matrix(&refs);
        let lo: std::collections::HashSet<(usize, usize)> =
            select_tr_dba(&votes, 1).into_iter().map(|p| (p.utt, p.label)).collect();
        for v in 2..=4u8 {
            for p in select_tr_dba(&votes, v) {
                prop_assert!(
                    lo.contains(&(p.utt, p.label)),
                    "V={v} selected ({},{}) absent at V=1",
                    p.utt,
                    p.label
                );
            }
        }
    }

    #[test]
    fn votes_invariant_to_positive_score_scaling((mats, _labels) in score_stack(3, 4), scale in 0.1f32..10.0) {
        // Eq. 13 only inspects score *signs*, so positive rescaling must not
        // change any vote.
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let before = vote_matrix(&refs);
        let scaled: Vec<ScoreMatrix> = mats
            .iter()
            .map(|m| {
                let mut out = ScoreMatrix::new(m.num_classes());
                for i in 0..m.num_utts() {
                    let row: Vec<f32> = m.row(i).iter().map(|v| v * scale).collect();
                    out.push_row(&row);
                }
                out
            })
            .collect();
        let refs2: Vec<&ScoreMatrix> = scaled.iter().collect();
        let after = vote_matrix(&refs2);
        for j in 0..before.num_utts() {
            prop_assert_eq!(before.row(j), after.row(j));
        }
    }
}
