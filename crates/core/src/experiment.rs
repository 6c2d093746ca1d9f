//! The end-to-end experiment driver.
//!
//! `Experiment::build` performs the expensive, run-once work: generate the
//! dataset, train the six recognizers, decode every utterance of every split
//! into TFLLR-scaled supervectors, and train the baseline VSMs. The cheap
//! parts — V sweeps, DBA variants, fusion — all reuse the cached
//! supervectors, which is precisely the cost structure the paper argues in
//! §5.4 (`C'_φ ≫ C'_modeling`, Eq. 16–19).

use crate::cache::SupervectorCache;
use crate::subsystem::{standard_subsystems, Frontend};
use lre_am::frontend::{FeatureExtractor, FEATURE_DIM};
use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, LanguageId, Scale, UttSpec};
use lre_dsp::FrameMatrix;
use lre_eval::{min_cavg, pooled_eer, CavgParams, ScoreMatrix};
use lre_lattice::{DecodeScratch, DecoderConfig};
use lre_phone::UniversalInventory;
use lre_svm::{OneVsRest, SvmTrainConfig};
use lre_vsm::SparseVec;
use rayon::prelude::*;

/// Number of target languages (closed-set LRE 2009).
pub const K: usize = lre_corpus::NUM_TARGET_LANGUAGES;

/// Experiment-wide configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Highest N-gram order in the supervectors (the paper's N).
    pub max_order: usize,
    pub decoder: DecoderConfig,
    pub svm: SvmTrainConfig,
}

impl ExperimentConfig {
    pub fn new(scale: Scale, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            scale,
            seed,
            max_order: 2,
            decoder: DecoderConfig::default(),
            svm: SvmTrainConfig::default(),
        }
    }
}

/// One row of the baseline summary (per subsystem × duration).
#[derive(Clone, Debug)]
pub struct BaselineRow {
    pub subsystem: String,
    pub duration: Duration,
    /// Pooled EER as a fraction.
    pub eer: f64,
    /// Minimum Cavg as a fraction.
    pub cavg: f64,
}

/// The built experiment: dataset + trained front-ends + cached supervectors
/// + baseline VSMs and scores.
pub struct Experiment {
    pub cfg: ExperimentConfig,
    pub ds: Dataset,
    pub inv: UniversalInventory,
    pub frontends: Vec<Frontend>,
    /// `[subsystem][utt]` TFLLR-scaled supervectors.
    pub train_svs: Vec<Vec<SparseVec>>,
    pub dev_svs: Vec<Vec<SparseVec>>,
    /// `[subsystem][duration][utt]`.
    pub test_svs: Vec<Vec<Vec<SparseVec>>>,
    pub train_labels: Vec<usize>,
    pub dev_labels: Vec<usize>,
    /// `[duration][utt]` true labels (evaluation only — the DBA path never
    /// reads these).
    pub test_labels: Vec<Vec<usize>>,
    /// Baseline one-vs-rest VSMs per subsystem (Eq. 7's **M** rows).
    pub baseline_vsms: Vec<OneVsRest>,
    /// Cached baseline test scores `[subsystem][duration]` (Eq. 8/9's **F**).
    pub baseline_test_scores: Vec<Vec<ScoreMatrix>>,
    /// Cached baseline dev scores `[subsystem]`.
    pub baseline_dev_scores: Vec<ScoreMatrix>,
}

impl Experiment {
    /// Like [`Experiment::build`], but restores decoded supervectors from an
    /// on-disk cache when one exists for `(scale, seed)` and writes one
    /// after building otherwise. On a cache hit the acoustic models are not
    /// trained (front-ends are headless) — only VSM training and scoring
    /// run, which is the §5.4 "cheap" part of the pipeline.
    pub fn build_cached(cfg: &ExperimentConfig, cache_dir: &std::path::Path) -> Experiment {
        let path = crate::cache::cache_path(cache_dir, cfg.scale.name(), cfg.seed);
        if let Some(svs) = crate::cache::load(&path, cfg.seed) {
            let inv = UniversalInventory::new();
            let ds = Dataset::generate(DatasetConfig::new(cfg.scale, cfg.seed));
            let frontends = standard_subsystems()
                .into_iter()
                .map(|spec| Frontend::headless(spec, &inv, cfg.max_order))
                .collect();
            return Self::assemble(cfg, ds, inv, frontends, svs);
        }
        let exp = Self::build(cfg);
        if let Err(e) = crate::cache::save(&exp, &path) {
            eprintln!("[experiment] cache write failed ({e}); continuing uncached");
        }
        exp
    }

    /// Run the full front-end pipeline. This is the heavy call: everything
    /// else in the crate reuses its caches.
    ///
    /// The six recognizers train first; then each split is decoded the way
    /// the serving path scores a request — one render and one shared
    /// feature pass per utterance, every front-end decoding from it — and
    /// each front-end fits its TFLLR scaler on its training supervectors.
    pub fn build(cfg: &ExperimentConfig) -> Experiment {
        let inv = UniversalInventory::new();
        let ds = Dataset::generate(DatasetConfig::new(cfg.scale, cfg.seed));
        let mut frontends: Vec<Frontend> = standard_subsystems()
            .into_iter()
            .enumerate()
            .map(|(qi, spec)| {
                let seed = cfg.seed ^ (0xFE00 + qi as u64);
                Frontend::train(spec, &ds, &inv, cfg.max_order, cfg.decoder, seed)
            })
            .collect();
        let features = FeatureExtractor::new(frontends.iter().map(|fe| fe.am.feature));
        let decode = |utts: &[UttSpec]| decode_split(&frontends, &features, &ds, &inv, utts);
        let train_raw = decode(&ds.train);
        let dev_raw = decode(&ds.dev);
        // `[duration][subsystem][utt]`.
        let test_raw: Vec<_> = Duration::all()
            .iter()
            .map(|&d| decode(ds.test_set(d)))
            .collect();

        let train_svs = frontends
            .iter_mut()
            .zip(train_raw)
            .map(|(fe, raw)| fe.fit_scaler(&raw))
            .collect();
        let dev_svs = frontends
            .iter()
            .zip(dev_raw)
            .map(|(fe, raw)| fe.scale(&raw))
            .collect();
        let test_svs = frontends
            .iter()
            .enumerate()
            .map(|(q, fe)| {
                test_raw
                    .iter()
                    .map(|per_sub| fe.scale(&per_sub[q]))
                    .collect()
            })
            .collect();
        let svs = SupervectorCache {
            train_svs,
            dev_svs,
            test_svs,
        };
        Self::assemble(cfg, ds, inv, frontends, svs)
    }

    /// The tail both builders share: labels, the baseline VSMs (Eq. 6/7)
    /// and their cached score matrices (Eq. 8/9).
    fn assemble(
        cfg: &ExperimentConfig,
        ds: Dataset,
        inv: UniversalInventory,
        frontends: Vec<Frontend>,
        svs: SupervectorCache,
    ) -> Experiment {
        let labels = |utts: &[UttSpec]| -> Vec<usize> {
            utts.iter()
                .map(|u| {
                    u.language
                        .target_index()
                        .expect("evaluation splits hold target languages only")
                })
                .collect()
        };
        let train_labels = labels(&ds.train);
        let dev_labels = labels(&ds.dev);
        let test_labels: Vec<Vec<usize>> = Duration::all()
            .iter()
            .map(|&d| labels(ds.test_set(d)))
            .collect();
        let SupervectorCache {
            train_svs,
            dev_svs,
            test_svs,
        } = svs;
        // Shape sanity: a stale cache with the wrong sizes must not be used.
        assert_eq!(
            train_svs.len(),
            frontends.len(),
            "stale cache: subsystem count"
        );
        assert!(
            train_svs.iter().all(|g| g.len() == train_labels.len()),
            "stale cache: train size"
        );

        let baseline_vsms: Vec<OneVsRest> = frontends
            .iter()
            .zip(&train_svs)
            .map(|(fe, svs)| OneVsRest::train(svs, &train_labels, K, fe.builder.dim(), &cfg.svm))
            .collect();
        let baseline_test_scores: Vec<Vec<ScoreMatrix>> = baseline_vsms
            .iter()
            .zip(&test_svs)
            .map(|(vsm, per_dur)| per_dur.iter().map(|svs| score_set(vsm, svs)).collect())
            .collect();
        let baseline_dev_scores: Vec<ScoreMatrix> = baseline_vsms
            .iter()
            .zip(&dev_svs)
            .map(|(vsm, svs)| score_set(vsm, svs))
            .collect();

        Experiment {
            cfg: cfg.clone(),
            ds,
            inv,
            frontends,
            train_svs,
            dev_svs,
            test_svs,
            train_labels,
            dev_labels,
            test_labels,
            baseline_vsms,
            baseline_test_scores,
            baseline_dev_scores,
        }
    }

    pub fn num_subsystems(&self) -> usize {
        self.frontends.len()
    }

    /// Index of a duration in `Duration::all()`.
    pub fn duration_index(d: Duration) -> usize {
        Duration::all().iter().position(|&x| x == d).unwrap()
    }

    /// Indices of dev utterances whose nominal duration matches `d` (the
    /// dev split cycles the three test durations; fusion backends are
    /// trained duration-matched, as the per-duration LRE backends are).
    pub fn dev_indices_for(&self, d: Duration) -> Vec<usize> {
        self.ds
            .dev
            .iter()
            .enumerate()
            .filter(|(_, u)| u.num_frames == d.frames())
            .map(|(i, _)| i)
            .collect()
    }

    /// Baseline EER/Cavg per subsystem × duration (the "Baseline" columns of
    /// Tables 2-4).
    pub fn baseline_summary(&self) -> Vec<BaselineRow> {
        let mut rows = Vec::new();
        for (q, fe) in self.frontends.iter().enumerate() {
            for (di, &d) in Duration::all().iter().enumerate() {
                let scores = &self.baseline_test_scores[q][di];
                let labels = &self.test_labels[di];
                rows.push(BaselineRow {
                    subsystem: fe.spec.name.to_string(),
                    duration: d,
                    eer: pooled_eer(scores, labels),
                    cavg: min_cavg(scores, labels, &CavgParams::default()),
                });
            }
        }
        rows
    }

    /// True labels of the recognizer-training languages are never part of
    /// the 23-class closed set; sanity helper used by tests.
    pub fn is_target(lang: LanguageId) -> bool {
        lang.target_index().is_some()
    }
}

/// Raw (unscaled) supervectors `[subsystem][utt]` of `utts`, parallel over
/// utterances with one decoder scratch and one transform buffer per worker.
/// Each utterance is rendered and analysed once (`features` serves every
/// front-end's kind) and then decoded by every front-end — the serving
/// path's per-request work.
fn decode_split(
    frontends: &[Frontend],
    features: &FeatureExtractor,
    ds: &Dataset,
    inv: &UniversalInventory,
    utts: &[UttSpec],
) -> Vec<Vec<SparseVec>> {
    let kind_index: Vec<usize> = frontends
        .iter()
        .map(|fe| {
            features
                .index_of(fe.am.feature)
                .expect("the extractor was built from these front-ends")
        })
        .collect();
    let per_utt: Vec<Vec<SparseVec>> = utts
        .par_iter()
        .map_init(
            || (DecodeScratch::new(), FrameMatrix::new(FEATURE_DIM)),
            |(scratch, normalized), u| {
                let rendered = render_utterance(u, ds.language(u.language), inv);
                let feats = features.extract(&rendered.samples);
                frontends
                    .iter()
                    .zip(&kind_index)
                    .map(|(fe, &k)| fe.supervector_from_features(&feats[k], normalized, scratch))
                    .collect()
            },
        )
        .collect();
    let mut per_sub: Vec<Vec<SparseVec>> = frontends
        .iter()
        .map(|_| Vec::with_capacity(utts.len()))
        .collect();
    for row in per_utt {
        for (q, sv) in row.into_iter().enumerate() {
            per_sub[q].push(sv);
        }
    }
    per_sub
}

/// Score a supervector set with a one-vs-rest VSM into a matrix (Eq. 9).
pub fn score_set(vsm: &OneVsRest, svs: &[SparseVec]) -> ScoreMatrix {
    let mut m = ScoreMatrix::new(vsm.num_classes());
    for sv in svs {
        m.push_row(&vsm.scores(sv));
    }
    m
}
