//! One-versus-rest multiclass wrapper (Eq. 6/7).

use crate::dcd::{train_binary, LinearSvm, SvmTrainConfig};
use lre_vsm::SparseVec;
use rayon::prelude::*;

/// One-vs-rest ensemble: model `k` scores "class k vs the rest".
///
/// This is the paper's language-model matrix **M** for one subsystem
/// (Eq. 7): `mdl_qk` is the SVM for language `k` in subsystem `q`, trained
/// with `y'_i = +1` for class-k examples and `−1` otherwise (Eq. 6). The
/// same code path trains baseline VSMs and DBA-retrained VSMs — the paper's
/// "component classifiers have the same structure … and are trained with
/// the same criterion" property.
#[derive(Clone, Debug)]
pub struct OneVsRest {
    models: Vec<LinearSvm>,
}

impl OneVsRest {
    /// Train `num_classes` binary models. `labels[i] ∈ 0..num_classes`.
    ///
    /// Per-class cost weighting: the positive class cost is scaled by the
    /// negative/positive count ratio so the 1-vs-(K−1) imbalance does not
    /// collapse the positive margin. Classes train in parallel (rayon).
    pub fn train(
        xs: &[SparseVec],
        labels: &[usize],
        num_classes: usize,
        dim: usize,
        cfg: &SvmTrainConfig,
    ) -> OneVsRest {
        assert_eq!(xs.len(), labels.len());
        assert!(labels.iter().all(|&l| l < num_classes));
        let models = (0..num_classes)
            .into_par_iter()
            .map(|k| {
                let ys: Vec<i8> = labels
                    .iter()
                    .map(|&l| if l == k { 1 } else { -1 })
                    .collect();
                let n_pos = ys.iter().filter(|&&y| y == 1).count().max(1);
                let n_neg = (ys.len() - n_pos).max(1);
                let class_cfg = SvmTrainConfig {
                    c_pos: cfg.c_pos * (n_neg as f32 / n_pos as f32),
                    seed: cfg.seed ^ (k as u64).wrapping_mul(0x9E37_79B9),
                    ..*cfg
                };
                train_binary(xs, &ys, dim, &class_cfg)
            })
            .collect();
        OneVsRest { models }
    }

    pub fn num_classes(&self) -> usize {
        self.models.len()
    }

    /// The supervector dimension every class model scores: an input whose
    /// indices all fall below it cannot index past a weight vector.
    pub fn dim(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.weights().len())
            .min()
            .unwrap_or(0)
    }

    pub fn model(&self, k: usize) -> &LinearSvm {
        &self.models[k]
    }

    /// Decision values of all class models for one input — one row of the
    /// paper's score matrix **F_q** (Eq. 9). One walk over `x` feeds every
    /// class: each class's `Σ v·w` still runs in index order from 0.0 and
    /// then adds the bias, so every value is [`LinearSvm::score`]'s bits,
    /// but the classes' chains are independent and overlap.
    pub fn scores(&self, x: &SparseVec) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.models.len()];
        for (i, v) in x.iter() {
            for (a, m) in acc.iter_mut().zip(&self.models) {
                *a += v * m.weights()[i as usize];
            }
        }
        for (a, m) in acc.iter_mut().zip(&self.models) {
            *a += m.bias();
        }
        acc
    }

    /// Arg-max classification.
    pub fn predict(&self, x: &SparseVec) -> usize {
        let s = self.scores(x);
        let mut best = 0;
        for (k, &v) in s.iter().enumerate() {
            if v > s[best] {
                best = k;
            }
        }
        best
    }
}

impl lre_artifact::ArtifactWrite for OneVsRest {
    const KIND: [u8; 4] = *b"OVRS";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_u32(self.models.len() as u32);
        for m in &self.models {
            m.write_payload(w);
        }
    }
}

impl lre_artifact::ArtifactRead for OneVsRest {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<OneVsRest, lre_artifact::ArtifactError> {
        use lre_artifact::ArtifactError;
        let n = r.get_u32()? as usize;
        if n == 0 {
            return Err(ArtifactError::Corrupt("one-vs-rest with zero classes"));
        }
        let models: Vec<LinearSvm> = (0..n)
            .map(|_| LinearSvm::read_payload(r))
            .collect::<Result<_, _>>()?;
        if models
            .iter()
            .any(|m| m.weights().len() != models[0].weights().len())
        {
            return Err(ArtifactError::Corrupt("class model dimensions disagree"));
        }
        Ok(OneVsRest { models })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// Three well-separated classes at corners of a triangle in 2-D.
    fn three_class() -> (Vec<SparseVec>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.0f32, 3.0f32), (-3.0, -2.0), (3.0, -2.0)];
        for (k, &(cx, cy)) in centers.iter().enumerate() {
            for (dx, dy) in [(0.0, 0.0), (0.3, -0.2), (-0.2, 0.3), (0.1, 0.1)] {
                xs.push(sv(&[(0, cx + dx), (1, cy + dy)]));
                ys.push(k);
            }
        }
        (xs, ys)
    }

    #[test]
    fn classifies_three_classes() {
        let (xs, ys) = three_class();
        let ovr = OneVsRest::train(&xs, &ys, 3, 2, &SvmTrainConfig::default());
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(ovr.predict(x), y);
        }
    }

    #[test]
    fn own_class_scores_highest_and_positive() {
        let (xs, ys) = three_class();
        let ovr = OneVsRest::train(&xs, &ys, 3, 2, &SvmTrainConfig::default());
        let s = ovr.scores(&xs[0]);
        assert_eq!(s.len(), 3);
        assert!(s[ys[0]] > 0.0);
        for k in 0..3 {
            if k != ys[0] {
                assert!(s[ys[0]] > s[k]);
            }
        }
    }

    #[test]
    fn handles_class_with_single_example() {
        let xs = vec![
            sv(&[(0, 1.0)]),
            sv(&[(0, -1.0)]),
            sv(&[(0, -1.2)]),
            sv(&[(0, -0.8)]),
        ];
        let ys = vec![0usize, 1, 1, 1];
        let ovr = OneVsRest::train(&xs, &ys, 2, 1, &SvmTrainConfig::default());
        assert_eq!(ovr.predict(&sv(&[(0, 1.1)])), 0);
        assert_eq!(ovr.predict(&sv(&[(0, -1.1)])), 1);
    }

    #[test]
    fn scores_are_each_class_models_bits() {
        let (xs, ys) = three_class();
        let ovr = OneVsRest::train(&xs, &ys, 3, 2, &SvmTrainConfig::default());
        let mut inputs = xs.clone();
        inputs.push(SparseVec::new());
        inputs.push(sv(&[(1, 1e-3)]));
        inputs.push(sv(&[(0, 3.0e7), (1, -2.5)]));
        for x in &inputs {
            let row = ovr.scores(x);
            assert_eq!(row.len(), ovr.num_classes());
            for (k, s) in row.iter().enumerate() {
                assert_eq!(s.to_bits(), ovr.model(k).score(x).to_bits(), "class {k}");
            }
        }
    }

    #[test]
    fn deterministic_training() {
        let (xs, ys) = three_class();
        let a = OneVsRest::train(&xs, &ys, 3, 2, &SvmTrainConfig::default());
        let b = OneVsRest::train(&xs, &ys, 3, 2, &SvmTrainConfig::default());
        for k in 0..3 {
            assert_eq!(a.model(k).weights(), b.model(k).weights());
        }
    }
}
