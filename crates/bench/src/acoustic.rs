//! Acoustic language recognition: per-language GMMs over SDC features.
//!
//! §1 of the paper: "acoustic language recognition (LR) systems [3] and
//! phonotactic LR systems [2] are both widely used". This module is the
//! acoustic family — the Torres-Carrasquillo-style system: MFCC base
//! cepstra → shifted delta cepstra → one diagonal GMM per target language →
//! average frame log-likelihood scores, normalized against the pooled
//! background model. It serves as a comparison baseline for the
//! reproduction's phonotactic PPRVSM/DBA stack (see the
//! `acoustic_vs_phonotactic` bench binary).

use lre_am::DiagGmm;
use lre_corpus::{render_utterance, Dataset, DeriveRng, LanguageId, UttSpec};
use lre_dsp::{cmvn_in_place, mfcc, sdc, FrameMatrix, MfccConfig, SdcConfig};
use lre_eval::ScoreMatrix;
use lre_phone::UniversalInventory;
use rayon::prelude::*;

/// Configuration for the acoustic system.
#[derive(Clone, Debug)]
pub struct AcousticConfig {
    pub sdc: SdcConfig,
    /// Gaussians per language model.
    pub mixtures: usize,
    pub em_iters: usize,
    pub seed: u64,
}

impl Default for AcousticConfig {
    fn default() -> Self {
        Self {
            sdc: SdcConfig::default(),
            mixtures: 16,
            em_iters: 4,
            seed: 11,
        }
    }
}

/// A trained acoustic LR system: one GMM per target language + a pooled
/// background GMM for score normalization.
pub struct AcousticSystem {
    cfg: AcousticConfig,
    models: Vec<DiagGmm>,
    background: DiagGmm,
}

/// SDC feature extraction used by the system (per-utterance CMVN on the SDC
/// stream — acoustic systems normalize per utterance since there is no
/// cross-language phone-decoding step to destabilize).
pub fn acoustic_features(samples: &[f32], cfg: &SdcConfig) -> FrameMatrix {
    let base = mfcc(samples, &MfccConfig::default());
    let mut s = sdc(&base, cfg);
    cmvn_in_place(&mut s);
    s
}

impl AcousticSystem {
    /// Train on the dataset's (labelled) train split.
    pub fn train(ds: &Dataset, inv: &UniversalInventory, cfg: &AcousticConfig) -> AcousticSystem {
        let dim = cfg.sdc.dim();
        // Collect SDC frames per language (parallel over utterances).
        let per_utt: Vec<(usize, Vec<f32>)> = ds
            .train
            .par_iter()
            .map(|u| {
                let r = render_utterance(u, ds.language(u.language), inv);
                let f = acoustic_features(&r.samples, &cfg.sdc);
                (u.language.target_index().unwrap(), f.as_slice().to_vec())
            })
            .collect();

        let k = LanguageId::targets().len();
        let mut frames_by_lang: Vec<Vec<f32>> = vec![Vec::new(); k];
        let mut all_frames: Vec<f32> = Vec::new();
        for (lang, frames) in per_utt {
            frames_by_lang[lang].extend_from_slice(&frames);
            all_frames.extend_from_slice(&frames);
        }

        let node = DeriveRng::new(cfg.seed);
        let models: Vec<DiagGmm> = frames_by_lang
            .par_iter()
            .enumerate()
            .map(|(l, data)| {
                let mut rng = node.derive(l as u64).rng();
                DiagGmm::train(data, dim, cfg.mixtures, cfg.em_iters, &mut rng)
            })
            .collect();
        // Background model on a subsample of everything (caps EM cost).
        let stride = (all_frames.len() / dim / 20_000).max(1);
        let bg_frames: Vec<f32> = all_frames
            .chunks_exact(dim)
            .step_by(stride)
            .flat_map(|c| c.iter().copied())
            .collect();
        let mut rng = node.derive(0xB6).rng();
        let background = DiagGmm::train(&bg_frames, dim, cfg.mixtures, cfg.em_iters, &mut rng);

        AcousticSystem {
            cfg: cfg.clone(),
            models,
            background,
        }
    }

    /// Detection scores for one utterance: per language, the average frame
    /// log-likelihood ratio against the background model.
    pub fn score(&self, samples: &[f32]) -> Vec<f32> {
        let feats = acoustic_features(samples, &self.cfg.sdc);
        let mut scores = vec![0.0f32; self.models.len()];
        if feats.num_frames() == 0 {
            return scores;
        }
        for frame in feats.iter() {
            let bg = self.background.log_likelihood(frame);
            for (s, m) in scores.iter_mut().zip(&self.models) {
                *s += m.log_likelihood(frame) - bg;
            }
        }
        let inv_t = 1.0 / feats.num_frames() as f32;
        scores.iter_mut().for_each(|s| *s *= inv_t);
        scores
    }

    /// Score a batch of utterance specs into a [`ScoreMatrix`].
    pub fn score_set(
        &self,
        utts: &[UttSpec],
        ds: &Dataset,
        inv: &UniversalInventory,
    ) -> ScoreMatrix {
        let rows: Vec<Vec<f32>> = utts
            .par_iter()
            .map(|u| {
                let r = render_utterance(u, ds.language(u.language), inv);
                self.score(&r.samples)
            })
            .collect();
        let mut m = ScoreMatrix::new(self.models.len());
        for row in rows {
            m.push_row(&row);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_corpus::{DatasetConfig, Duration, Scale};

    #[test]
    fn features_have_sdc_dimension() {
        let samples: Vec<f32> = (0..8000)
            .map(|i| (2.0 * std::f32::consts::PI * 500.0 * i as f32 / 8000.0).sin())
            .collect();
        let f = acoustic_features(&samples, &SdcConfig::default());
        assert_eq!(f.dim(), 56);
        assert!(f.num_frames() > 90);
    }

    #[test]
    fn system_beats_chance_on_smoke_corpus() {
        let inv = UniversalInventory::new();
        let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 42));
        let cfg = AcousticConfig {
            mixtures: 8,
            em_iters: 2,
            ..Default::default()
        };
        let sys = AcousticSystem::train(&ds, &inv, &cfg);
        let test = ds.test_set(Duration::S30);
        let labels: Vec<usize> = test
            .iter()
            .map(|u| u.language.target_index().unwrap())
            .collect();
        let m = sys.score_set(test, &ds, &inv);
        let eer = lre_eval::pooled_eer(&m, &labels);
        assert!(eer < 0.45, "acoustic system at chance: EER {eer}");
        // Scores must be finite everywhere.
        for i in 0..m.num_utts() {
            assert!(m.row(i).iter().all(|v| v.is_finite()));
        }
    }
}
