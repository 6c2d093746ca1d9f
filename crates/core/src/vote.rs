//! Votes counting (Eq. 10–13) and `Tr_DBA` selection (§3 d–e).

use lre_eval::ScoreMatrix;

/// The votes-counting matrix **C_v**: `counts[j][k]` = number of subsystems
/// voting language `k` for test utterance `j` (Eq. 11–12).
#[derive(Clone, Debug)]
pub struct VoteMatrix {
    num_classes: usize,
    counts: Vec<u8>,
}

impl VoteMatrix {
    pub fn num_utts(&self) -> usize {
        self.counts.len() / self.num_classes
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Vote counts `C_vj` for utterance `j` (Eq. 11).
    pub fn row(&self, j: usize) -> &[u8] {
        &self.counts[j * self.num_classes..(j + 1) * self.num_classes]
    }

    /// The winning language and its vote count for utterance `j`
    /// (first-wins tie-breaking; the selection step re-checks ambiguity).
    pub fn winner(&self, j: usize) -> (usize, u8) {
        let row = self.row(j);
        let mut best = 0usize;
        for (k, &c) in row.iter().enumerate() {
            if c > row[best] {
                best = k;
            }
        }
        (best, row[best])
    }

    /// How many utterances got at least one vote from ≥1 subsystem.
    pub fn num_voted(&self) -> usize {
        (0..self.num_utts())
            .filter(|&j| self.winner(j).1 > 0)
            .count()
    }
}

/// Eq. 13: subsystem `q` casts a vote for language `k` on utterance `j` iff
/// `f_q(x_j)|mdl_qk > 0` **and** every other language's score is negative —
/// i.e. the SVM places the utterance on the positive side of exactly one
/// one-vs-rest hyperplane.
pub fn vote_matrix(subsystem_scores: &[&ScoreMatrix]) -> VoteMatrix {
    assert!(!subsystem_scores.is_empty());
    let num_classes = subsystem_scores[0].num_classes();
    let num_utts = subsystem_scores[0].num_utts();
    for m in subsystem_scores {
        assert_eq!(m.num_classes(), num_classes);
        assert_eq!(m.num_utts(), num_utts);
    }
    assert!(subsystem_scores.len() <= u8::MAX as usize);

    let mut counts = vec![0u8; num_utts * num_classes];
    for m in subsystem_scores {
        for j in 0..num_utts {
            if let Some(k) = eq13_vote(m.row(j)) {
                counts[j * num_classes + k] += 1;
            }
        }
    }
    VoteMatrix {
        num_classes,
        counts,
    }
}

/// One subsystem's Eq. 13 vote on one utterance: the language whose score
/// is the only strictly positive one in its OvR row, if there is one.
fn eq13_vote(row: &[f32]) -> Option<usize> {
    let mut positive = None;
    for (k, &s) in row.iter().enumerate() {
        if s > 0.0 {
            if positive.is_some() {
                return None;
            }
            positive = Some(k);
        }
    }
    positive
}

/// Whether one utterance can enter `Tr_DBA` at any threshold, judged from
/// its own per-subsystem OvR rows (`rows[q]` = subsystem `q`'s scores):
/// the rows' Eq. 13 votes give one language a count no other language
/// ties. It is `!select_tr_dba(&vote_matrix(..), 1).is_empty()` over a
/// one-utterance pool; votes and selection are per utterance, every legal
/// V is ≥ 1 and a higher V selects a subset, so an utterance it refuses is
/// selected at no V in any pool. Rows must share one class count and
/// number at most `u8::MAX`, as for [`vote_matrix`]; no rows, or rows of
/// no classes, select nothing.
pub fn selectable(rows: &[Vec<f32>]) -> bool {
    let num_classes = rows.first().map_or(0, Vec::len);
    if num_classes == 0 {
        return false;
    }
    assert!(rows.len() <= u8::MAX as usize);
    let mut counts = vec![0u8; num_classes];
    for row in rows {
        assert_eq!(row.len(), num_classes);
        if let Some(k) = eq13_vote(row) {
            counts[k] += 1;
        }
    }
    !select_tr_dba(
        &VoteMatrix {
            num_classes,
            counts,
        },
        1,
    )
    .is_empty()
}

/// A pseudo-labelled test utterance selected into `T_DBA`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PseudoLabel {
    /// Index into the test set.
    pub utt: usize,
    /// Assigned language (dense target index).
    pub label: usize,
    /// The vote count that earned the selection.
    pub votes: u8,
}

/// §3(e): select `T_DBA = {(x_tj, l_k) : c_jk ≥ V}`.
///
/// The paper writes `c_jk > V` but reports a non-empty V = 6 column with
/// Q = 6 subsystems, so the realized criterion must be `≥` (see DESIGN.md).
/// The pseudo-label is the unique vote *winner*; utterances whose top vote
/// count is tied between two languages (possible for V ≤ Q/2) are ambiguous
/// and skipped. This makes the selection monotone in V (higher thresholds
/// always select a subset), matching the paper's monotone Table-1 counts.
pub fn select_tr_dba(votes: &VoteMatrix, v_threshold: u8) -> Vec<PseudoLabel> {
    assert!(
        v_threshold >= 1,
        "V = 0 would select everything unconditionally"
    );
    let mut out = Vec::new();
    for j in 0..votes.num_utts() {
        let row = votes.row(j);
        let (winner, count) = votes.winner(j);
        if count < v_threshold {
            continue;
        }
        let tied = row.iter().filter(|&&c| c == count).count();
        if tied == 1 {
            out.push(PseudoLabel {
                utt: j,
                label: winner,
                votes: count,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[Vec<f32>]) -> ScoreMatrix {
        ScoreMatrix::from_rows(rows[0].len(), rows)
    }

    #[test]
    fn unique_positive_earns_vote() {
        let m = matrix(&[vec![1.0, -0.5, -0.2]]);
        let v = vote_matrix(&[&m]);
        assert_eq!(v.row(0), &[1, 0, 0]);
    }

    #[test]
    fn multiple_positives_earn_nothing() {
        let m = matrix(&[vec![1.0, 0.5, -0.2]]);
        let v = vote_matrix(&[&m]);
        assert_eq!(v.row(0), &[0, 0, 0]);
    }

    #[test]
    fn all_negative_earns_nothing() {
        let m = matrix(&[vec![-1.0, -0.5, -0.2]]);
        let v = vote_matrix(&[&m]);
        assert_eq!(v.row(0), &[0, 0, 0]);
        assert_eq!(v.num_voted(), 0);
    }

    #[test]
    fn votes_accumulate_across_subsystems() {
        let a = matrix(&[vec![1.0, -1.0], vec![-1.0, 1.0]]);
        let b = matrix(&[vec![0.5, -0.1], vec![0.3, -0.4]]); // disagrees on utt 1
        let v = vote_matrix(&[&a, &b]);
        assert_eq!(v.row(0), &[2, 0]);
        assert_eq!(v.row(1), &[1, 1]);
        assert_eq!(v.winner(0), (0, 2));
    }

    #[test]
    fn selection_respects_threshold() {
        let a = matrix(&[vec![1.0, -1.0], vec![-1.0, 1.0]]);
        let b = matrix(&[vec![0.5, -0.1], vec![-0.3, 0.4]]);
        let c = matrix(&[vec![0.2, -0.2], vec![0.1, 0.2]]); // utt1: two positives → no vote
        let v = vote_matrix(&[&a, &b, &c]);
        // utt0: 3 votes for class 0; utt1: 2 votes for class 1.
        let sel3 = select_tr_dba(&v, 3);
        assert_eq!(
            sel3,
            vec![PseudoLabel {
                utt: 0,
                label: 0,
                votes: 3
            }]
        );
        let sel2 = select_tr_dba(&v, 2);
        assert_eq!(sel2.len(), 2);
        assert_eq!(
            sel2[1],
            PseudoLabel {
                utt: 1,
                label: 1,
                votes: 2
            }
        );
    }

    #[test]
    fn ambiguous_double_qualification_skipped() {
        // Two subsystems vote class 0, two vote class 1 ⇒ at V=2 both qualify.
        let s0 = matrix(&[vec![1.0, -1.0]]);
        let s1 = matrix(&[vec![1.0, -1.0]]);
        let s2 = matrix(&[vec![-1.0, 1.0]]);
        let s3 = matrix(&[vec![-1.0, 1.0]]);
        let v = vote_matrix(&[&s0, &s1, &s2, &s3]);
        assert!(select_tr_dba(&v, 2).is_empty());
        assert!(select_tr_dba(&v, 1).is_empty());
    }

    #[test]
    fn zero_score_is_on_the_negative_side_of_eq13() {
        // Eq. 13 requires a strictly positive score; a score of exactly 0.0
        // sits *on* the hyperplane and earns nothing — neither as the
        // candidate positive nor as a disqualifying second positive.
        let on_plane = matrix(&[vec![0.0, -1.0, -1.0]]);
        assert_eq!(vote_matrix(&[&on_plane]).row(0), &[0, 0, 0]);
        let with_positive = matrix(&[vec![0.0, 2.0, -1.0]]);
        assert_eq!(vote_matrix(&[&with_positive]).row(0), &[0, 1, 0]);
        let negative_zero = matrix(&[vec![-0.0, 1.0, -1.0]]);
        assert_eq!(vote_matrix(&[&negative_zero]).row(0), &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "V = 0")]
    fn threshold_zero_is_rejected() {
        let m = matrix(&[vec![1.0, -1.0]]);
        select_tr_dba(&vote_matrix(&[&m]), 0);
    }

    #[test]
    fn threshold_at_q_selects_unanimity_and_q_plus_1_nothing() {
        // Three subsystems, unanimous on utt 0, split 2–1 on utt 1.
        let a = matrix(&[vec![1.0, -1.0], vec![1.0, -1.0]]);
        let b = matrix(&[vec![0.5, -0.5], vec![0.5, -0.5]]);
        let c = matrix(&[vec![0.2, -0.2], vec![-0.2, 0.2]]);
        let v = vote_matrix(&[&a, &b, &c]);
        // V = Q: only the unanimous utterance survives.
        let at_q = select_tr_dba(&v, 3);
        assert_eq!(
            at_q,
            vec![PseudoLabel {
                utt: 0,
                label: 0,
                votes: 3
            }]
        );
        // V = Q + 1 is unreachable: no subsystem casts two votes.
        assert!(select_tr_dba(&v, 4).is_empty());
        // V = u8::MAX likewise selects nothing rather than overflowing.
        assert!(select_tr_dba(&v, u8::MAX).is_empty());
    }

    #[test]
    fn all_negative_rows_select_nothing_at_any_threshold() {
        let a = matrix(&[vec![-1.0, -0.5], vec![-0.1, -0.2]]);
        let b = matrix(&[vec![-0.3, -0.4], vec![-2.0, -0.9]]);
        let v = vote_matrix(&[&a, &b]);
        assert_eq!(v.num_voted(), 0);
        for thr in [1u8, 2, 3] {
            assert!(select_tr_dba(&v, thr).is_empty());
        }
        // winner() on an all-zero row is well-defined: first class, 0 votes.
        assert_eq!(v.winner(0), (0, 0));
        assert_eq!(v.winner(1), (0, 0));
    }

    #[test]
    fn single_subsystem_votes_and_selects_alone() {
        // Q = 1 degenerates to "the one SVM's unique-positive decision".
        let m = matrix(&[vec![1.0, -1.0, -1.0], vec![-1.0, -1.0, -1.0]]);
        let v = vote_matrix(&[&m]);
        assert_eq!(v.row(0), &[1, 0, 0]);
        assert_eq!(v.row(1), &[0, 0, 0]);
        let sel = select_tr_dba(&v, 1);
        assert_eq!(
            sel,
            vec![PseudoLabel {
                utt: 0,
                label: 0,
                votes: 1
            }]
        );
        // A threshold above the single subsystem's reach selects nothing.
        assert!(select_tr_dba(&v, 2).is_empty());
    }

    #[test]
    fn selectable_is_a_one_utterance_pool_at_v_1() {
        let rows = |rows: &[&[f32]]| rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>();
        // A unique leader is selectable; a tie, no votes or no rows is not.
        assert!(selectable(&rows(&[&[1.0, -1.0], &[1.0, 0.5]])));
        assert!(!selectable(&rows(&[&[1.0, -1.0], &[-1.0, 1.0]])));
        assert!(!selectable(&rows(&[&[-1.0, -1.0], &[1.0, 0.5]])));
        assert!(!selectable(&[]));
        // One class: its only vote is a unique win; zero classes vote nothing.
        assert!(selectable(&rows(&[&[0.5]])));
        assert!(!selectable(&rows(&[&[0.0]])));
        assert!(!selectable(&rows(&[&[], &[]])));
    }

    #[test]
    fn monotone_in_threshold() {
        // Higher V never selects more utterances.
        let a = matrix(&[vec![1.0, -1.0], vec![0.4, -0.4], vec![-0.4, 0.4]]);
        let b = matrix(&[vec![0.6, -0.6], vec![-0.2, 0.1], vec![-0.1, 0.2]]);
        let v = vote_matrix(&[&a, &b]);
        let mut prev = usize::MAX;
        for thr in 1..=2u8 {
            let n = select_tr_dba(&v, thr).len();
            assert!(n <= prev);
            prev = n;
        }
    }
}
