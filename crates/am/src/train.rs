//! Supervised acoustic-model training from the synthetic corpus.

use crate::frontend::{extract_features, FeatureKind, FEATURE_DIM};
use crate::gmm::DiagGmm;
use crate::hmm::{HmmTopology, StateInventory};
use crate::nn::{Mlp, PretrainConfig, TrainConfig as NnTrainConfig};
use crate::scorer::{FrameScorer, GmmStateScorer, NnStateScorer};
use lre_artifact::{ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter};
use lre_corpus::{render_utterance, DeriveRng, LanguageModel, UttSpec};
use lre_phone::{PhoneSet, UniversalInventory};
use rayon::prelude::*;

/// Acoustic-model family, matching the paper's three front-end types (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AmFamily {
    /// Tied-state GMM-HMM (Tsinghua EN/MA recognizers).
    GmmHmm,
    /// Shallow-network hybrid (BUT TRAPs-style HU/RU/CZ recognizers).
    AnnHmm,
    /// Deep-network hybrid (Tsinghua EN recognizer).
    DnnHmm,
}

impl AmFamily {
    pub fn name(&self) -> &'static str {
        match self {
            AmFamily::GmmHmm => "GMM-HMM",
            AmFamily::AnnHmm => "ANN-HMM",
            AmFamily::DnnHmm => "DNN-HMM",
        }
    }
}

/// Training configuration for one recognizer's acoustic model.
#[derive(Clone, Debug)]
pub struct AmTrainConfig {
    pub family: AmFamily,
    pub feature: FeatureKind,
    /// Gaussians per state for [`AmFamily::GmmHmm`].
    pub gmm_mixtures: usize,
    pub gmm_em_iters: usize,
    /// Hidden layer sizes: one entry for ANN, several for DNN.
    pub hidden_sizes: Vec<usize>,
    pub nn: NnTrainConfig,
    /// Layer-wise pretraining (the paper applies DBN pretraining to its DNN
    /// front-end, following its ref. 24); `None` = random init only.
    pub pretrain: Option<PretrainConfig>,
    pub seed: u64,
}

impl AmTrainConfig {
    /// Paper-shaped defaults per family: PLP features for the Tsinghua
    /// recognizers, MFCC for the BUT-style ANNs; 32-Gaussian states scaled
    /// down to the synthetic corpus size.
    pub fn for_family(family: AmFamily, seed: u64) -> AmTrainConfig {
        let (feature, hidden) = match family {
            AmFamily::GmmHmm => (FeatureKind::Plp, vec![]),
            AmFamily::AnnHmm => (FeatureKind::Mfcc, vec![128]),
            AmFamily::DnnHmm => (FeatureKind::Plp, vec![128, 96]),
        };
        AmTrainConfig {
            family,
            feature,
            gmm_mixtures: 8,
            gmm_em_iters: 6,
            hidden_sizes: hidden,
            nn: NnTrainConfig::default(),
            // The paper pretrains its DNN (ref. [24]); the shallow ANN and
            // the GMMs are not pretrained.
            pretrain: if family == AmFamily::DnnHmm {
                Some(PretrainConfig::default())
            } else {
                None
            },
            seed,
        }
    }
}

/// A trained recognizer acoustic model: emission scorer + topology + state
/// bookkeeping + which feature front-end it expects.
pub struct AcousticModel {
    pub scorer: Box<dyn FrameScorer>,
    pub topology: HmmTopology,
    pub inventory: StateInventory,
    pub feature: FeatureKind,
    /// Global feature normalization `(mean, inv_std)` estimated on the AM
    /// training frames; applied identically to every utterance so the
    /// feature space is independent of each utterance's phone mix.
    pub feature_transform: FeatureTransform,
    /// Held-out frame accuracy (NN families) or `None` (GMM).
    pub train_diagnostic: Option<f32>,
}

/// A fixed affine per-dimension normalization.
#[derive(Clone, Debug)]
pub struct FeatureTransform {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl FeatureTransform {
    /// Identity transform of the given dimension.
    pub fn identity(dim: usize) -> FeatureTransform {
        FeatureTransform {
            mean: vec![0.0; dim],
            inv_std: vec![1.0; dim],
        }
    }

    /// Estimate from flat `n × dim` frames.
    pub fn fit(frames: &[f32], dim: usize) -> FeatureTransform {
        let n = frames.len() / dim;
        if n == 0 {
            return FeatureTransform::identity(dim);
        }
        let mut mean = vec![0.0f64; dim];
        let mut sq = vec![0.0f64; dim];
        for f in frames.chunks_exact(dim) {
            for (d, &v) in f.iter().enumerate() {
                mean[d] += v as f64;
                sq[d] += (v as f64) * (v as f64);
            }
        }
        let nf = n as f64;
        let mut m32 = vec![0.0f32; dim];
        let mut is32 = vec![1.0f32; dim];
        for d in 0..dim {
            mean[d] /= nf;
            let var = (sq[d] / nf - mean[d] * mean[d]).max(1e-8);
            m32[d] = mean[d] as f32;
            is32[d] = (1.0 / var.sqrt()) as f32;
        }
        FeatureTransform {
            mean: m32,
            inv_std: is32,
        }
    }

    /// Apply in place to every frame of a feature matrix.
    pub fn apply(&self, feats: &mut lre_dsp::FrameMatrix) {
        let d = feats.dim();
        assert_eq!(d, self.mean.len());
        for t in 0..feats.num_frames() {
            let fr = feats.frame_mut(t);
            for ((v, &m), &s) in fr.iter_mut().zip(&self.mean).zip(&self.inv_std) {
                *v = (*v - m) * s;
            }
        }
    }

    /// [`FeatureTransform::apply`] without touching `feats`: the normalized
    /// frames go to `out`, resized to match. Several models can each
    /// normalize one shared extraction this way, into one reused buffer.
    pub fn apply_into(&self, feats: &lre_dsp::FrameMatrix, out: &mut lre_dsp::FrameMatrix) {
        let d = feats.dim();
        assert_eq!(d, self.mean.len());
        assert_eq!(d, out.dim(), "output dimension must match the features");
        out.resize(feats.num_frames());
        for (o, fr) in out.as_mut_slice().chunks_exact_mut(d).zip(feats.iter()) {
            for (((o, &v), &m), &s) in o.iter_mut().zip(fr).zip(&self.mean).zip(&self.inv_std) {
                *o = (v - m) * s;
            }
        }
    }

    /// Normalize a flat frame buffer in place.
    pub fn apply_flat(&self, frames: &mut [f32]) {
        let d = self.mean.len();
        for f in frames.chunks_exact_mut(d) {
            for ((v, &m), &s) in f.iter_mut().zip(&self.mean).zip(&self.inv_std) {
                *v = (*v - m) * s;
            }
        }
    }
}

/// Render the training utterances and build `(frames, state_labels)` —
/// the supervised targets come from the corpus's reference alignments,
/// projected into the recognizer's phone set and split uniformly into the
/// 3 HMM states per phone segment.
pub fn collect_training_frames(
    phone_set: &PhoneSet,
    utts: &[UttSpec],
    lang: &LanguageModel,
    inv: &UniversalInventory,
    feature: FeatureKind,
) -> (Vec<f32>, Vec<u32>) {
    let state_inv = StateInventory::new(phone_set);
    let per_utt: Vec<(Vec<f32>, Vec<u32>)> = utts
        .par_iter()
        .map(|spec| {
            let rendered = render_utterance(spec, lang, inv);
            let feats = extract_features(&rendered.samples, feature);
            let t_max = feats.num_frames().min(rendered.alignment.len());

            // Project the alignment into the recognizer's phone set and find
            // contiguous segments.
            let set_phones: Vec<usize> = rendered.alignment[..t_max]
                .iter()
                .map(|&u| phone_set.project(u as usize))
                .collect();
            let mut labels = Vec::with_capacity(t_max);
            let mut start = 0usize;
            while start < t_max {
                let mut end = start + 1;
                while end < t_max && set_phones[end] == set_phones[start] {
                    end += 1;
                }
                let len = end - start;
                for pos in 0..len {
                    let st = StateInventory::uniform_state(pos, len);
                    labels.push(state_inv.state_of(set_phones[start], st) as u32);
                }
                start = end;
            }

            let frames = feats.as_slice()[..t_max * feats.dim()].to_vec();
            (frames, labels)
        })
        .collect();

    let total: usize = per_utt.iter().map(|(_, l)| l.len()).sum();
    let mut frames = Vec::with_capacity(total * FEATURE_DIM);
    let mut labels = Vec::with_capacity(total);
    for (f, l) in per_utt {
        frames.extend_from_slice(&f);
        labels.extend_from_slice(&l);
    }
    (frames, labels)
}

/// Train an acoustic model for `phone_set` on the given utterances.
pub fn train_acoustic_model(
    phone_set: &PhoneSet,
    utts: &[UttSpec],
    lang: &LanguageModel,
    inv: &UniversalInventory,
    cfg: &AmTrainConfig,
) -> AcousticModel {
    let (mut frames, labels) = collect_training_frames(phone_set, utts, lang, inv, cfg.feature);
    let transform = FeatureTransform::fit(&frames, FEATURE_DIM);
    transform.apply_flat(&mut frames);
    let state_inv = StateInventory::new(phone_set);
    let num_states = state_inv.num_states();
    let node = DeriveRng::new(cfg.seed).derive(0xA0DE_1000 + cfg.family as u64);

    match cfg.family {
        AmFamily::GmmHmm => {
            // Partition frames by state, then train per-state GMMs in parallel.
            let mut by_state: Vec<Vec<f32>> = vec![Vec::new(); num_states];
            for (i, &l) in labels.iter().enumerate() {
                by_state[l as usize]
                    .extend_from_slice(&frames[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]);
            }
            // Global background Gaussian over all frames: appended to every
            // state GMM with small weight so off-distribution frames (other
            // languages, unseen noise) degrade gracefully instead of
            // collapsing the state likelihoods.
            let transform_stats = FeatureTransform::fit(&frames, FEATURE_DIM);
            let _ = &transform_stats;
            let gmms: Vec<DiagGmm> = by_state
                .par_iter()
                .enumerate()
                .map(|(s, data)| {
                    let mut rng = node.derive(s as u64).rng();
                    let g = DiagGmm::train(
                        data,
                        FEATURE_DIM,
                        cfg.gmm_mixtures,
                        cfg.gmm_em_iters,
                        &mut rng,
                    );
                    g.with_background(0.08, 3.0)
                })
                .collect();
            AcousticModel {
                scorer: Box::new(GmmStateScorer::new(gmms)),
                topology: HmmTopology::default(),
                inventory: state_inv,
                feature: cfg.feature,
                feature_transform: transform,
                train_diagnostic: None,
            }
        }
        AmFamily::AnnHmm | AmFamily::DnnHmm => {
            let mut sizes = vec![FEATURE_DIM];
            sizes.extend_from_slice(&cfg.hidden_sizes);
            sizes.push(num_states);
            let mut rng = node.rng();
            let mut net = Mlp::new(&sizes, &mut rng);
            if let Some(pre) = &cfg.pretrain {
                net.pretrain(&frames, pre, &mut rng);
            }
            let acc = net.train(&frames, &labels, &cfg.nn, &mut rng);

            // State priors from the label histogram (for scaled likelihoods).
            let mut priors = vec![0.0f32; num_states];
            for &l in &labels {
                priors[l as usize] += 1.0;
            }
            AcousticModel {
                scorer: Box::new(NnStateScorer::new(net, &priors)),
                topology: HmmTopology::default(),
                inventory: state_inv,
                feature: cfg.feature,
                feature_transform: transform,
                train_diagnostic: Some(acc),
            }
        }
    }
}

impl ArtifactWrite for FeatureTransform {
    const KIND: [u8; 4] = *b"FTRN";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_f32_slice(&self.mean);
        w.put_f32_slice(&self.inv_std);
    }
}

impl ArtifactRead for FeatureTransform {
    fn read_payload(r: &mut ArtifactReader) -> Result<FeatureTransform, ArtifactError> {
        let mean = r.get_f32_slice()?;
        let inv_std = r.get_f32_slice()?;
        if mean.is_empty() || mean.len() != inv_std.len() {
            return Err(ArtifactError::Corrupt("feature transform shapes disagree"));
        }
        Ok(FeatureTransform { mean, inv_std })
    }
}

const SCORER_TAG_GMM: u8 = 0;
const SCORER_TAG_NN: u8 = 1;

impl ArtifactWrite for AcousticModel {
    const KIND: [u8; 4] = *b"AMDL";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        let any = self.scorer.as_any();
        if let Some(g) = any.downcast_ref::<GmmStateScorer>() {
            w.put_u8(SCORER_TAG_GMM);
            g.write_payload(w);
        } else if let Some(n) = any.downcast_ref::<NnStateScorer>() {
            w.put_u8(SCORER_TAG_NN);
            n.write_payload(w);
        } else {
            // The workspace has exactly two production scorer families;
            // anything else (bench shims) is not a persistable model.
            panic!("cannot serialize an AcousticModel with a non-standard scorer");
        }
        w.put_f32(self.topology.log_self);
        w.put_f32(self.topology.log_next);
        w.put_u32(self.inventory.num_phones() as u32);
        w.put_u8(match self.feature {
            FeatureKind::Mfcc => 0,
            FeatureKind::Plp => 1,
        });
        self.feature_transform.write_payload(w);
        match self.train_diagnostic {
            Some(v) => {
                w.put_u8(1);
                w.put_f32(v);
            }
            None => w.put_u8(0),
        }
    }
}

impl ArtifactRead for AcousticModel {
    fn read_payload(r: &mut ArtifactReader) -> Result<AcousticModel, ArtifactError> {
        let scorer: Box<dyn FrameScorer> = match r.get_u8()? {
            SCORER_TAG_GMM => Box::new(GmmStateScorer::read_payload(r)?),
            SCORER_TAG_NN => Box::new(NnStateScorer::read_payload(r)?),
            _ => return Err(ArtifactError::Corrupt("unknown scorer family tag")),
        };
        let topology = HmmTopology {
            log_self: r.get_f32()?,
            log_next: r.get_f32()?,
        };
        let num_phones = r.get_u32()? as usize;
        let inventory = StateInventory::from_phone_count(num_phones);
        if num_phones == 0 || scorer.num_states() != inventory.num_states() {
            return Err(ArtifactError::Corrupt("scorer states != phone inventory"));
        }
        let feature = match r.get_u8()? {
            0 => FeatureKind::Mfcc,
            1 => FeatureKind::Plp,
            _ => return Err(ArtifactError::Corrupt("unknown feature kind tag")),
        };
        let feature_transform = FeatureTransform::read_payload(r)?;
        let train_diagnostic = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_f32()?),
            _ => return Err(ArtifactError::Corrupt("bad train-diagnostic flag")),
        };
        Ok(AcousticModel {
            scorer,
            topology,
            inventory,
            feature,
            feature_transform,
            train_diagnostic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_corpus::{build_language, Channel, LanguageId};
    use lre_phone::PhoneSetId;

    fn tiny_utts(lang: LanguageId, n: usize) -> Vec<UttSpec> {
        (0..n)
            .map(|i| UttSpec {
                language: lang,
                speaker_seed: i as u64,
                channel: Channel::telephone(25.0),
                num_frames: 120,
                seed: 1000 + i as u64,
            })
            .collect()
    }

    fn setup() -> (UniversalInventory, PhoneSet, LanguageModel, Vec<UttSpec>) {
        let inv = UniversalInventory::new();
        let set = PhoneSet::standard(PhoneSetId::Cz, &inv);
        let lang = build_language(LanguageId::Czech, 7, &inv);
        let utts = tiny_utts(LanguageId::Czech, 6);
        (inv, set, lang, utts)
    }

    /// The non-mutating form writes the bits the in-place form would, into
    /// a buffer that is reused (grown, shrunk, and holding stale values).
    #[test]
    fn apply_into_equals_in_place_apply_bit_for_bit() {
        let frames: Vec<f32> = (0..7 * 5)
            .map(|i| ((i * i) as f32 * 0.37).sin() * 9.0)
            .collect();
        let transform = FeatureTransform::fit(&frames, 5);
        let mut out = lre_dsp::FrameMatrix::new(5);
        for rows in [7, 3, 0, 6] {
            let feats = lre_dsp::FrameMatrix::from_flat(5, frames[..rows * 5].to_vec());
            transform.apply_into(&feats, &mut out);
            let mut want = feats.clone();
            transform.apply(&mut want);
            assert_eq!(out.num_frames(), rows);
            let bits = |m: &lre_dsp::FrameMatrix| -> Vec<u32> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&out), bits(&want));
        }
    }

    #[test]
    fn collect_frames_shapes_align() {
        let (inv, set, lang, utts) = setup();
        let (frames, labels) = collect_training_frames(&set, &utts, &lang, &inv, FeatureKind::Mfcc);
        assert_eq!(frames.len(), labels.len() * FEATURE_DIM);
        assert!(labels.len() >= 6 * 100, "labels: {}", labels.len());
        let max_state = (set.len() * 3) as u32;
        assert!(labels.iter().all(|&l| l < max_state));
    }

    #[test]
    fn gmm_family_trains_and_scores() {
        let (inv, set, lang, utts) = setup();
        let cfg = AmTrainConfig {
            gmm_mixtures: 2,
            gmm_em_iters: 1,
            ..AmTrainConfig::for_family(AmFamily::GmmHmm, 3)
        };
        let am = train_acoustic_model(&set, &utts, &lang, &inv, &cfg);
        assert_eq!(am.scorer.num_states(), set.len() * 3);
        let mut out = vec![0.0; am.scorer.num_states()];
        am.scorer.score_frame(&[0.0; FEATURE_DIM], &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ann_family_trains_with_diagnostic() {
        let (inv, set, lang, utts) = setup();
        let mut cfg = AmTrainConfig::for_family(AmFamily::AnnHmm, 3);
        cfg.hidden_sizes = vec![16];
        cfg.nn.epochs = 2;
        let am = train_acoustic_model(&set, &utts, &lang, &inv, &cfg);
        let acc = am.train_diagnostic.expect("NN family reports accuracy");
        // Far better than the 1/129-state chance level.
        assert!(acc > 0.05, "frame accuracy {acc}");
    }
}
