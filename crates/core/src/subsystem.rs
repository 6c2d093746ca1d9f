//! The six diversified front-end subsystems of §4.1.

use lre_am::{train_acoustic_model, AcousticModel, AmFamily, AmTrainConfig};
use lre_corpus::{Dataset, LanguageId};
use lre_dsp::FrameMatrix;
use lre_lattice::{decode_with_scratch, DecodeScratch, DecoderConfig};
use lre_phone::{PhoneSet, PhoneSetId, UniversalInventory};
use lre_vsm::{SparseVec, SupervectorBuilder, TfllrScaler};

/// Static description of one subsystem: which phone set, which acoustic
/// model family, and which language's data trains the recognizer.
#[derive(Clone, Copy, Debug)]
pub struct SubsystemSpec {
    pub name: &'static str,
    pub set_id: PhoneSetId,
    pub family: AmFamily,
    pub am_language: LanguageId,
}

/// The paper's six front-ends (§4.1):
/// HU/RU/CZ ANN-HMM (BUT), EN DNN-HMM (Tsinghua), EN/MA GMM-HMM (Tsinghua).
pub fn standard_subsystems() -> [SubsystemSpec; 6] {
    [
        SubsystemSpec {
            name: "ANN-HMM HU",
            set_id: PhoneSetId::Hu,
            family: AmFamily::AnnHmm,
            am_language: LanguageId::Hungarian,
        },
        SubsystemSpec {
            name: "ANN-HMM RU",
            set_id: PhoneSetId::Ru,
            family: AmFamily::AnnHmm,
            am_language: LanguageId::Russian,
        },
        SubsystemSpec {
            name: "ANN-HMM CZ",
            set_id: PhoneSetId::Cz,
            family: AmFamily::AnnHmm,
            am_language: LanguageId::Czech,
        },
        SubsystemSpec {
            name: "DNN-HMM EN",
            set_id: PhoneSetId::En,
            family: AmFamily::DnnHmm,
            am_language: LanguageId::EnglishAmerican,
        },
        SubsystemSpec {
            name: "GMM-HMM MA",
            set_id: PhoneSetId::Ma,
            family: AmFamily::GmmHmm,
            am_language: LanguageId::Mandarin,
        },
        SubsystemSpec {
            name: "GMM-HMM EN",
            set_id: PhoneSetId::En,
            family: AmFamily::GmmHmm,
            am_language: LanguageId::EnglishAmerican,
        },
    ]
}

/// A trained front-end: phone recognizer + supervector machinery.
pub struct Frontend {
    pub spec: SubsystemSpec,
    pub phone_set: PhoneSet,
    pub am: AcousticModel,
    pub builder: SupervectorBuilder,
    /// TFLLR scaler; fitted after the training supervectors exist.
    pub scaler: Option<TfllrScaler>,
    pub decoder: DecoderConfig,
}

impl Frontend {
    /// A front-end without a trained acoustic model: phone set + supervector
    /// machinery only. Used when decoded supervectors are restored from the
    /// on-disk cache and the decode path will not run.
    pub fn headless(spec: SubsystemSpec, inv: &UniversalInventory, max_order: usize) -> Frontend {
        let phone_set = PhoneSet::standard(spec.set_id, inv);
        let builder = SupervectorBuilder::new(phone_set.len(), max_order);
        let am = lre_am::AcousticModel {
            scorer: Box::new(lre_am::GmmStateScorer::new(vec![
                lre_am::DiagGmm::from_params(vec![0.0; 1], vec![1.0; 1], vec![1.0], 1),
            ])),
            topology: lre_am::HmmTopology::default(),
            inventory: lre_am::StateInventory::from_phone_count(phone_set.len()),
            feature: lre_am::FeatureKind::Mfcc,
            feature_transform: lre_am::FeatureTransform::identity(1),
            train_diagnostic: None,
        };
        Frontend {
            spec,
            phone_set,
            am,
            builder,
            scaler: None,
            decoder: DecoderConfig::default(),
        }
    }

    /// Train the acoustic model for a subsystem on the dataset's AM-training
    /// split for its language.
    pub fn train(
        spec: SubsystemSpec,
        ds: &Dataset,
        inv: &UniversalInventory,
        max_order: usize,
        mut decoder: DecoderConfig,
        seed: u64,
    ) -> Frontend {
        // Hybrid NN scores are prior-scaled log posteriors with a much
        // smaller dynamic range than GMM log-likelihoods; without a larger
        // acoustic scale the phone-loop transition never wins and the
        // decoder collapses to a single segment.
        if matches!(spec.family, AmFamily::AnnHmm | AmFamily::DnnHmm) {
            decoder.acoustic_scale *= 3.0;
            decoder.phone_insertion_log *= 0.5;
        }
        let phone_set = PhoneSet::standard(spec.set_id, inv);
        let utts = &ds
            .am_train
            .iter()
            .find(|(l, _)| *l == spec.am_language)
            .expect("dataset provides AM data for every recognizer language")
            .1;
        // Recognizers train on phonetically balanced material (as the real
        // SpeechDat-E / Switchboard corpora are) so that every phone state
        // gets coverage; see `LanguageModel::phonetically_balanced`.
        let lang = ds
            .language(spec.am_language)
            .phonetically_balanced(0.5, inv);
        let am_cfg = AmTrainConfig::for_family(spec.family, seed);
        let am = train_acoustic_model(&phone_set, utts, &lang, inv, &am_cfg);
        let builder = SupervectorBuilder::new(phone_set.len(), max_order);
        Frontend {
            spec,
            phone_set,
            am,
            builder,
            scaler: None,
            decoder,
        }
    }

    /// Decode already-extracted features (CMS-normalized, of this
    /// front-end's [`lre_am::FeatureKind`]) into a raw (unscaled)
    /// supervector: the acoustic model's global transform into `normalized`
    /// (a caller-owned buffer, so front-ends sharing one extraction leave it
    /// untouched and reuse one allocation), phone-loop decode, expected
    /// counts. Every decode in the workspace — offline, serving, adaptation
    /// — ends here, and offline and serving alike reach it from one shared
    /// [`lre_am::frontend::FeatureExtractor`] pass per utterance.
    pub fn supervector_from_features(
        &self,
        feats: &FrameMatrix,
        normalized: &mut FrameMatrix,
        scratch: &mut DecodeScratch,
    ) -> SparseVec {
        self.supervector_from_features_timed(feats, normalized, scratch)
            .0
    }

    /// [`Frontend::supervector_from_features`] with the one clock reading
    /// the serving tracer cannot take from outside: the instant the
    /// transform + phone-loop Viterbi decode finished and the
    /// expected-count supervector build began (the caller brackets the
    /// call with its own readings). The supervector is bit-identical to
    /// the untimed path's (it *is* the untimed path; the clock read adds
    /// nothing to the arithmetic).
    pub fn supervector_from_features_timed(
        &self,
        feats: &FrameMatrix,
        normalized: &mut FrameMatrix,
        scratch: &mut DecodeScratch,
    ) -> (SparseVec, std::time::Instant) {
        self.am.feature_transform.apply_into(feats, normalized);
        let out = decode_with_scratch(&self.am, normalized, &self.decoder, scratch);
        let decoded = std::time::Instant::now();
        (self.builder.build(&out.network), decoded)
    }

    /// Fit the TFLLR scaler on raw training supervectors and return the
    /// scaled copies; subsequent [`Frontend::scale`] calls use the same fit.
    pub fn fit_scaler(&mut self, train_raw: &[SparseVec]) -> Vec<SparseVec> {
        let scaler = TfllrScaler::fit(train_raw, self.builder.dim(), 1e-5);
        let scaled = train_raw.iter().map(|sv| scaler.transformed(sv)).collect();
        self.scaler = Some(scaler);
        scaled
    }

    /// Apply the fitted TFLLR scaling to a batch.
    pub fn scale(&self, raw: &[SparseVec]) -> Vec<SparseVec> {
        let scaler = self.scaler.as_ref().expect("fit_scaler must run first");
        raw.iter().map(|sv| scaler.transformed(sv)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_subsystems_with_paper_structure() {
        let subs = standard_subsystems();
        assert_eq!(subs.len(), 6);
        let ann = subs.iter().filter(|s| s.family == AmFamily::AnnHmm).count();
        let dnn = subs.iter().filter(|s| s.family == AmFamily::DnnHmm).count();
        let gmm = subs.iter().filter(|s| s.family == AmFamily::GmmHmm).count();
        assert_eq!((ann, dnn, gmm), (3, 1, 2));
        // EN is used by two different families — the §1 "same phone set,
        // different acoustic model" diversification axis.
        let en_count = subs.iter().filter(|s| s.set_id == PhoneSetId::En).count();
        assert_eq!(en_count, 2);
    }

    #[test]
    fn names_are_unique() {
        let subs = standard_subsystems();
        let mut seen = std::collections::HashSet::new();
        for s in subs {
            assert!(seen.insert(s.name));
        }
    }
}
