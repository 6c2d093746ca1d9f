//! The six diversified front-end subsystems of §4.1.

use lre_am::{train_acoustic_model, AcousticModel, AmFamily, AmTrainConfig};
use lre_corpus::{render_utterance, Dataset, LanguageId, UttSpec};
use lre_dsp::FrameMatrix;
use lre_lattice::{decode_with_scratch, DecodeScratch, DecoderConfig};
use lre_phone::{PhoneSet, PhoneSetId, UniversalInventory};
use lre_vsm::{SparseVec, SupervectorBuilder, TfllrScaler};
use rayon::prelude::*;

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

    /// Render, decode and featurize one utterance into a raw (unscaled)
    /// supervector.
    pub fn supervector(&self, spec: &UttSpec, ds: &Dataset, inv: &UniversalInventory) -> SparseVec {
        self.supervector_with_scratch(spec, ds, inv, &mut DecodeScratch::new())
    }

    /// [`Frontend::supervector`] with caller-owned decoder working memory,
    /// so batch drivers pay the score-block / Viterbi / back-pointer
    /// allocations once per worker instead of once per utterance.
    pub fn supervector_with_scratch(
        &self,
        spec: &UttSpec,
        ds: &Dataset,
        inv: &UniversalInventory,
        scratch: &mut DecodeScratch,
    ) -> SparseVec {
        let rendered = render_utterance(spec, ds.language(spec.language), inv);
        self.supervector_from_samples(&rendered.samples, scratch)
    }

    /// Decode pre-rendered audio samples into a raw (unscaled) supervector —
    /// the path for a caller that holds a waveform rather than a corpus
    /// spec: extract this front-end's features, then
    /// [`Frontend::supervector_from_features`].
    pub fn supervector_from_samples(
        &self,
        samples: &[f32],
        scratch: &mut DecodeScratch,
    ) -> SparseVec {
        let feats = lre_am::extract_features(samples, self.am.feature);
        let mut normalized = FrameMatrix::new(feats.dim());
        self.supervector_from_features(&feats, &mut normalized, scratch)
    }

    /// Decode already-extracted features (CMS-normalized, of this
    /// front-end's [`lre_am::FeatureKind`]) into a raw (unscaled)
    /// supervector: the acoustic model's global transform into `normalized`
    /// (a caller-owned buffer, so front-ends sharing one extraction leave it
    /// untouched and reuse one allocation), phone-loop decode, expected
    /// counts. Every decode in the workspace — offline, serving, adaptation
    /// — ends here.
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

    /// Decode a batch in parallel (rayon over utterances), one reusable
    /// [`DecodeScratch`] per worker thread.
    ///
    /// The vendored rayon stand-in now work-steals (workers claim small
    /// index blocks from a shared atomic counter), so load balance no
    /// longer depends on the submission order. Dispatch still runs through
    /// [`balanced_chunk_order`] as an *optional* pre-balancer: longest-first
    /// ordering keeps the tail of the batch short (the last stolen blocks
    /// are the cheap utterances), which slightly tightens the finish line,
    /// and the scatter-back below keeps output order matching `specs`
    /// either way.
    pub fn supervector_batch(
        &self,
        specs: &[UttSpec],
        ds: &Dataset,
        inv: &UniversalInventory,
    ) -> Vec<SparseVec> {
        let workers = rayon::current_num_threads().min(specs.len()).max(1);
        let costs: Vec<usize> = specs.iter().map(|s| s.num_frames).collect();
        let order = balanced_chunk_order(&costs, workers);
        let permuted: Vec<SparseVec> = order
            .par_iter()
            .map_init(DecodeScratch::new, |scratch, &i| {
                self.supervector_with_scratch(&specs[i], ds, inv, scratch)
            })
            .collect();
        let mut out: Vec<Option<SparseVec>> = vec![None; specs.len()];
        for (j, sv) in permuted.into_iter().enumerate() {
            out[order[j]] = Some(sv);
        }
        out.into_iter()
            .map(|o| o.expect("order is a permutation"))
            .collect()
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

/// Processing order that balances per-worker cost under a contiguous-chunk
/// split.
///
/// Historically load-bearing: the executor behind `par_iter` used to hand
/// worker `b` the contiguous index range `[b·⌈n/w⌉, (b+1)·⌈n/w⌉)`, and this
/// permutation of `0..costs.len()` gives each such range a near-equal share
/// of `Σ costs` (items taken longest-first — LPT greedy — each placed in
/// the currently lightest chunk with a free slot). The executor now
/// work-steals, so correctness and balance no longer depend on this
/// ordering; it survives as an optional pre-balancer that front-loads
/// expensive items so the steal queue's tail is cheap.
pub fn balanced_chunk_order(costs: &[usize], workers: usize) -> Vec<usize> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return (0..n).collect();
    }
    let chunk = n.div_ceil(workers);
    let num_chunks = n.div_ceil(chunk);
    let cap = |b: usize| {
        if b + 1 < num_chunks {
            chunk
        } else {
            n - (num_chunks - 1) * chunk
        }
    };
    // Longest first; ties broken by index so the order is deterministic.
    let mut by_cost: Vec<usize> = (0..n).collect();
    by_cost.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); num_chunks];
    let mut loads = vec![0u64; num_chunks];
    for i in by_cost {
        let b = (0..num_chunks)
            .filter(|&b| buckets[b].len() < cap(b))
            .min_by_key(|&b| loads[b])
            .expect("capacities sum to n");
        buckets[b].push(i);
        loads[b] += costs[i] as u64;
    }
    buckets.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_loads(costs: &[usize], order: &[usize], workers: usize) -> Vec<u64> {
        let chunk = order.len().div_ceil(workers);
        order
            .chunks(chunk)
            .map(|c| c.iter().map(|&i| costs[i] as u64).sum())
            .collect()
    }

    #[test]
    fn balanced_order_is_a_permutation() {
        let costs: Vec<usize> = (0..23).map(|i| (i * 37) % 101 + 1).collect();
        let order = balanced_chunk_order(&costs, 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_batch_is_balanced_across_contiguous_chunks() {
        // The adversarial layout for a contiguous split: all the long
        // utterances first. Unpermuted, chunk 0 carries ~10× chunk 3.
        let mut costs = vec![750usize; 8];
        costs.extend(vec![75usize; 24]);
        let workers = 4;
        let naive: Vec<usize> = (0..costs.len()).collect();
        let naive_loads = chunk_loads(&costs, &naive, workers);
        let order = balanced_chunk_order(&costs, workers);
        let loads = chunk_loads(&costs, &order, workers);
        let spread = |l: &[u64]| l.iter().max().unwrap() - l.iter().min().unwrap();
        assert!(
            spread(&loads) * 4 < spread(&naive_loads),
            "balanced {loads:?} vs naive {naive_loads:?}"
        );
        // Ideal per-chunk load is Σ/4 = 1950; LPT lands within one long
        // utterance of it.
        assert!(loads.iter().all(|&l| l <= 1950 + 750));
    }

    #[test]
    fn uniform_costs_keep_full_chunks() {
        let costs = vec![100usize; 10];
        let order = balanced_chunk_order(&costs, 3);
        assert_eq!(order.len(), 10);
        // ⌈10/3⌉ = 4 ⇒ chunks of 4/4/2, matching the executor's split.
        let loads = chunk_loads(&costs, &order, 3);
        assert_eq!(loads, vec![400, 400, 200]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(balanced_chunk_order(&[], 4).is_empty());
        assert_eq!(balanced_chunk_order(&[5], 4), vec![0]);
        assert_eq!(balanced_chunk_order(&[5, 9, 2], 1), vec![0, 1, 2]);
    }

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
