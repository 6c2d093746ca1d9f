//! The eval guard's held-back trial set.
//!
//! A [`GuardSet`] snapshots the dev split of the experiment a bundle was
//! trained from — per-subsystem TFLLR-scaled supervectors plus truth
//! labels — as its own sealed artifact. The online adaptation worker
//! (`lre-adapt`) shadow-scores every candidate bundle on it *without
//! decoding audio*: supervector × VSM × duration-matched fusion is all
//! linear algebra, so a guard evaluation costs milliseconds where a
//! decode-path evaluation would cost minutes. A candidate that regresses
//! pooled EER or min-Cavg past the operator's threshold is rejected before
//! it ever serves a request.
//!
//! The guard is read, never held: [`score_guard`] streams a sealed guard
//! set record by record and scores each supervector with every VSM set
//! it is given as it arrives, keeping only the labels and the score
//! matrices. A daemon keeps a [`GuardFile`]: the file's path and the
//! identity it had when it was validated at start-up, which every read
//! must find again.

use crate::experiment::Experiment;
use lre_artifact::{
    check_stream, ArtifactError, ArtifactRead, ArtifactStream, ArtifactWrite, ArtifactWriter,
    SealedFile, SealedId,
};
use lre_backend::LdaMmiFusion;
use lre_eval::{min_cavg, pooled_eer, CavgParams, ScoreMatrix};
use lre_svm::OneVsRest;
use lre_vsm::SparseVec;
use std::fs::File;
use std::io::{Read, Seek};
use std::path::Path;

/// A held-back trial set: dev supervectors and truth labels, frozen at
/// bundle-training time. The type that writes the guard file; readers
/// stream it ([`score_guard`]).
pub struct GuardSet {
    /// Truth label per dev utterance.
    pub labels: Vec<usize>,
    /// Scaled supervectors, indexed `[subsystem][utt]`.
    pub svs: Vec<Vec<SparseVec>>,
}

/// Guard metrics for one model: per-duration-backend pooled EER and
/// min-Cavg over the trial set, averaged across the duration backends
/// (the dev split is not duration-partitioned — each fusion backend scores
/// the whole set, exactly as fusion training does).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardReport {
    pub eer: f64,
    pub min_cavg: f64,
}

impl GuardSet {
    /// Snapshot the dev split of a built experiment (borrows — call before
    /// the experiment is consumed into a bundle).
    pub fn from_experiment(exp: &Experiment) -> GuardSet {
        GuardSet {
            labels: exp.dev_labels.clone(),
            svs: exp.dev_svs.clone(),
        }
    }
}

impl ArtifactWrite for GuardSet {
    const KIND: [u8; 4] = *b"GRDS";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        let labels: Vec<u32> = self.labels.iter().map(|&l| l as u32).collect();
        w.put_u32_slice(&labels);
        w.put_u32(self.svs.len() as u32);
        for per_sub in &self.svs {
            w.put_u32(per_sub.len() as u32);
            for sv in per_sub {
                sv.write_nested(w);
            }
        }
    }
}

/// One pass over a guard set: its labels and, per VSM set scored, one
/// score matrix per subsystem. Nothing else of the set is kept.
pub struct GuardScores {
    pub labels: Vec<usize>,
    /// Subsystems in the set.
    pub subsystems: usize,
    /// `[set][subsystem]`, one row per utterance in file order.
    pub mats: Vec<Vec<ScoreMatrix>>,
    /// The container the pass read.
    pub id: SealedId,
}

impl GuardScores {
    /// VSM set `set` measured through `fusions` (indexed like
    /// `Duration::all`).
    pub fn report(&self, set: usize, fusions: &[LdaMmiFusion]) -> GuardReport {
        let refs: Vec<&ScoreMatrix> = self.mats[set].iter().collect();
        let params = CavgParams::default();
        let mut eer_sum = 0.0;
        let mut cavg_sum = 0.0;
        for fusion in fusions {
            let fused = fusion.apply(&refs);
            eer_sum += pooled_eer(&fused, &self.labels);
            cavg_sum += min_cavg(&fused, &self.labels, &params);
        }
        let n = fusions.len().max(1) as f64;
        GuardReport {
            eer: eer_sum / n,
            min_cavg: cavg_sum / n,
        }
    }
}

/// Stream the sealed guard set in `src` and shadow-score it: each
/// supervector, as it arrives, is scored by subsystem `q`'s VSM of every
/// set in `sets` (each indexed like the guard's subsystems) and dropped.
/// With no sets the pass only walks the records.
///
/// Every check of the slice decode is made (utterance counts, each nested
/// supervector's own CRC and order), plus two a scorer needs: as many
/// subsystems as each set has VSMs, and no supervector index past a VSM's
/// dimension. The outer CRC is checked at the end, before any score is
/// handed out, so damaged bytes yield an error and never a verdict; a
/// caller that wants the slice decode's error for damage checks the
/// container with [`lre_artifact::check_stream`] first.
pub fn score_guard(src: impl Read, sets: &[Vec<&OneVsRest>]) -> Result<GuardScores, ArtifactError> {
    let mut s = ArtifactStream::open(src, GuardSet::KIND, GuardSet::VERSION)?;
    let labels: Vec<usize> = s
        .fields(|r| r.get_u32_slice())?
        .into_iter()
        .map(|l| l as usize)
        .collect();
    let subsystems = s.fields(|r| r.get_u32())? as usize;
    if sets.iter().any(|vsms| vsms.len() != subsystems) {
        return Err(ArtifactError::Corrupt("guard/candidate subsystems"));
    }
    let mut mats: Vec<Vec<ScoreMatrix>> = sets
        .iter()
        .map(|vsms| {
            let classes = vsms.first().map_or(0, |v| v.num_classes());
            (0..subsystems).map(|_| ScoreMatrix::new(classes)).collect()
        })
        .collect();
    let mut counts_agree = true;
    for q in 0..subsystems {
        let utts = s.fields(|r| r.get_u32())? as usize;
        counts_agree &= utts == labels.len();
        for _ in 0..utts {
            let sv: SparseVec = s.nested()?;
            for (vsms, per_set) in sets.iter().zip(&mut mats) {
                if sv.max_dim() > vsms[q].dim() {
                    return Err(ArtifactError::Corrupt("guard supervector past the VSM"));
                }
                per_set[q].push_row(&vsms[q].scores(&sv));
            }
        }
    }
    if !counts_agree {
        return Err(ArtifactError::Corrupt(
            "guard set utterance counts disagree",
        ));
    }
    let id = s.finish()?;
    Ok(GuardScores {
        labels,
        subsystems,
        mats,
        id,
    })
}

/// [`GuardFile::open`]'s two passes over `src`: check, rewind, walk. The
/// walk must read the container the check read.
fn validate<R: Read + Seek>(mut src: R) -> Result<GuardScores, ArtifactError> {
    let id = check_stream(&mut src, GuardSet::KIND, GuardSet::VERSION)?;
    src.rewind()?;
    let walked = score_guard(src, &[])?;
    if walked.id != id {
        return Err(ArtifactError::ChecksumMismatch);
    }
    Ok(walked)
}

/// A guard set kept as a file: validated whole once, then read again by
/// every evaluation, which must find the container it validated.
pub struct GuardFile {
    file: SealedFile,
    subsystems: usize,
    utts: usize,
}

impl GuardFile {
    /// Validate the guard file at `path`: a checking pass over the whole
    /// container (damage fails with the slice decode's error), then a
    /// walk over every record. Its length and trailer are recorded as the
    /// identity later reads must find; none of it stays in memory.
    pub fn open(path: &Path) -> Result<GuardFile, ArtifactError> {
        let walked = validate(File::open(path)?)?;
        Ok(GuardFile {
            file: SealedFile {
                path: path.to_path_buf(),
                id: walked.id,
            },
            subsystems: walked.subsystems,
            utts: walked.labels.len(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.file.path
    }

    pub fn num_utts(&self) -> usize {
        self.utts
    }

    pub fn num_subsystems(&self) -> usize {
        self.subsystems
    }

    /// Read the file again and [`score_guard`] it with `sets`. A file that
    /// is gone, damaged, or not the container validated at
    /// [`GuardFile::open`] is an error, and no scores come back.
    pub fn score(&self, sets: &[Vec<&OneVsRest>]) -> Result<GuardScores, ArtifactError> {
        let scores = score_guard(self.file.open()?, sets)?;
        self.file.check(scores.id)?;
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_artifact::ArtifactReader;
    use lre_corpus::Duration;
    use lre_svm::SvmTrainConfig;
    use std::io::Cursor;

    /// The whole-set decode the streamed reader replaced, kept as the
    /// reference for its errors and bits.
    impl ArtifactRead for GuardSet {
        fn read_payload(r: &mut ArtifactReader) -> Result<GuardSet, ArtifactError> {
            let labels: Vec<usize> = r.get_u32_slice()?.into_iter().map(|l| l as usize).collect();
            let nq = r.get_u32()? as usize;
            let svs: Vec<Vec<SparseVec>> = (0..nq)
                .map(|_| {
                    let n = r.get_u32()? as usize;
                    (0..n).map(|_| SparseVec::read_nested(r)).collect()
                })
                .collect::<Result<_, _>>()?;
            if svs.iter().any(|per_sub| per_sub.len() != labels.len()) {
                return Err(ArtifactError::Corrupt(
                    "guard set utterance counts disagree",
                ));
            }
            Ok(GuardSet { labels, svs })
        }
    }

    /// The resident evaluation the streamed path replaced: every
    /// subsystem's score matrix built from the decoded set.
    fn resident_report(g: &GuardSet, vsms: &[OneVsRest], fusions: &[LdaMmiFusion]) -> GuardReport {
        let mats: Vec<ScoreMatrix> = vsms
            .iter()
            .zip(&g.svs)
            .map(|(vsm, svs)| {
                let mut m = ScoreMatrix::new(vsm.num_classes());
                for sv in svs {
                    m.push_row(&vsm.scores(sv));
                }
                m
            })
            .collect();
        GuardScores {
            labels: g.labels.clone(),
            subsystems: vsms.len(),
            mats: vec![mats],
            id: SealedId { len: 0, crc: 0 },
        }
        .report(0, fusions)
    }

    fn tiny_guard() -> GuardSet {
        // 3 classes, 2 subsystems, 6 utts with separable features.
        let sv = |k: usize, v: f32| SparseVec::from_pairs(vec![(k as u32, v), (3, 0.5)]);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let svs: Vec<Vec<SparseVec>> = (0..2)
            .map(|q| {
                labels
                    .iter()
                    .map(|&l| sv(l, 1.0 + q as f32 * 0.25))
                    .collect()
            })
            .collect();
        GuardSet { labels, svs }
    }

    fn tiny_models(g: &GuardSet) -> (Vec<OneVsRest>, Vec<LdaMmiFusion>) {
        let cfg = SvmTrainConfig::default();
        let vsms: Vec<OneVsRest> = g
            .svs
            .iter()
            .map(|svs| OneVsRest::train(svs, &g.labels, 3, 4, &cfg))
            .collect();
        let mats: Vec<ScoreMatrix> = vsms
            .iter()
            .zip(&g.svs)
            .map(|(vsm, svs)| {
                let mut m = ScoreMatrix::new(3);
                for sv in svs {
                    m.push_row(&vsm.scores(sv));
                }
                m
            })
            .collect();
        let refs: Vec<&ScoreMatrix> = mats.iter().collect();
        let weights = vec![1.0; refs.len()];
        let fusions: Vec<LdaMmiFusion> = Duration::all()
            .iter()
            .map(|_| {
                LdaMmiFusion::train(
                    &refs,
                    &g.labels,
                    &weights,
                    &lre_backend::MmiConfig::default(),
                )
            })
            .collect();
        (vsms, fusions)
    }

    #[test]
    fn roundtrip_preserves_every_bit() {
        let g = tiny_guard();
        let bytes = g.to_artifact_bytes();
        let back = GuardSet::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(back.labels, g.labels);
        for (a, b) in back.svs.iter().flatten().zip(g.svs.iter().flatten()) {
            let bits = |s: &SparseVec| s.iter().map(|(i, v)| (i, v.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        let walked = validate(Cursor::new(&bytes)).unwrap();
        assert_eq!((walked.labels, walked.subsystems), (g.labels.clone(), 2));
        assert_eq!(walked.id.len, bytes.len() as u64);
    }

    #[test]
    fn streamed_scores_are_the_resident_evaluations_bits() {
        let g = tiny_guard();
        let (vsms, fusions) = tiny_models(&g);
        let bytes = g.to_artifact_bytes();
        // The same VSMs twice over: parent and candidate in one pass.
        let set: Vec<&OneVsRest> = vsms.iter().collect();
        let scores = score_guard(&bytes[..], &[set.clone(), set]).unwrap();
        let want = resident_report(&g, &vsms, &fusions);
        for k in 0..2 {
            let got = scores.report(k, &fusions);
            assert_eq!(got.eer.to_bits(), want.eer.to_bits());
            assert_eq!(got.min_cavg.to_bits(), want.min_cavg.to_bits());
        }
        // Perfectly separable toy data: the guard metrics must be clean.
        assert!(want.eer < 0.25, "eer {}", want.eer);
        assert!(want.min_cavg < 0.25, "min_cavg {}", want.min_cavg);
    }

    #[test]
    fn streamed_validation_refuses_every_cut_and_flip_like_the_slice_decode() {
        let bytes = tiny_guard().to_artifact_bytes();
        let (vsms, _) = tiny_models(&tiny_guard());
        let set: Vec<&OneVsRest> = vsms.iter().collect();
        let text = |e: ArtifactError| e.to_string();
        let same = |bad: &[u8]| {
            let want = GuardSet::from_artifact_bytes(bad).err().map(text);
            assert!(want.is_some(), "damage went unnoticed");
            assert_eq!(validate(Cursor::new(bad)).err().map(text), want);
            // A scoring pass alone refuses it too, without a verdict.
            assert!(score_guard(bad, std::slice::from_ref(&set)).is_err());
        };
        for cut in 0..bytes.len() {
            same(&bytes[..cut]);
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << (byte % 8);
            same(&bad);
        }
        let mut longer = bytes.clone();
        longer.push(0);
        same(&longer);
    }

    #[test]
    fn a_reshaped_set_or_a_short_vsm_is_an_error_not_a_panic() {
        let g = tiny_guard();
        let (vsms, _) = tiny_models(&g);
        let bytes = g.to_artifact_bytes();
        let one: Vec<&OneVsRest> = vsms[..1].iter().collect();
        assert!(matches!(
            score_guard(&bytes[..], &[one]),
            Err(ArtifactError::Corrupt(_))
        ));
        // Index 3 is past a 3-dimensional VSM.
        let narrow = OneVsRest::train(
            &[SparseVec::from_pairs(vec![(0, 1.0)])],
            &[0],
            3,
            3,
            &SvmTrainConfig::default(),
        );
        assert!(matches!(
            score_guard(&bytes[..], &[vec![&narrow, &narrow]]),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn a_guard_file_is_read_again_and_must_be_the_one_validated() {
        let dir = std::env::temp_dir().join(format!("lre_guard_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.guard");
        let g = tiny_guard();
        let bytes = g.to_artifact_bytes();
        std::fs::write(&path, &bytes).unwrap();
        let file = GuardFile::open(&path).unwrap();
        assert_eq!((file.num_subsystems(), file.num_utts()), (2, 6));
        let (vsms, _) = tiny_models(&g);
        let set: Vec<&OneVsRest> = vsms.iter().collect();
        let sets = std::slice::from_ref(&set);
        assert!(file.score(sets).is_ok());

        // Another valid guard set in its place: not the one validated.
        let mut other = tiny_guard();
        other.labels.swap(0, 1);
        std::fs::write(&path, other.to_artifact_bytes()).unwrap();
        let changed = file.score(sets).err().map(|e| e.to_string());
        assert_eq!(
            changed.as_deref(),
            Some("artifact corrupt: sealed file changed since it was read")
        );
        // Damaged in place, gone, then restored.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 4;
        std::fs::write(&path, &bad).unwrap();
        assert!(file.score(sets).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(file.score(sets), Err(ArtifactError::Io(_))));
        std::fs::write(&path, &bytes).unwrap();
        assert!(file.score(sets).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
