//! The work one request does, counted exactly. The smoke bundle trained at
//! seed 42 scores a fixed list of test utterances, the first two at each of
//! 30, 10 and 3 s, and every count must equal the committed table:
//!
//! - the one shared feature pass: its frames and its feature kinds;
//! - the fan-out: one task per subsystem;
//! - the phone-loop search: frames × HMM states, per subsystem;
//! - GMM emission: rows filled per 64-frame block, per GMM bank;
//! - the supervector: its non-zeros, per subsystem;
//! - the SVM: one-vs-rest rows, per subsystem.
//!
//! Every count is a function of the tree and the seed, and none reads a
//! clock, so a change that does more work without moving a bit of a score
//! fails here. A change that moves a count on purpose commits the new
//! table with it. Training takes about a minute in release, so the test is
//! `#[ignore]` by default and CI runs it in release:
//!
//! ```text
//! cargo test --release -p lre-serve --test counted_work -- --ignored
//! ```

use lre_am::{AcousticModel, FeatureKind, GmmStateScorer};
use lre_artifact::{ArtifactRead, ArtifactWrite};
use lre_corpus::{render_utterance, Duration, Scale};
use lre_dba::{Experiment, ExperimentConfig};
use lre_lattice::DecodeScratch;
use lre_serve::{Scorer, ScoringSystem, SystemBundle};

/// The kinds the shared pass extracts, each once for all six subsystems.
const KINDS: [FeatureKind; 2] = [FeatureKind::Mfcc, FeatureKind::Plp];

/// Per subsystem, in bundle order: its HMM states (the search visits
/// frames × states) and the GMM rows one 64-frame block fills (0 for an
/// NN bank). The GMM banks fill the background row their states share
/// once per block, not once per state.
const SUBSYSTEMS: [(usize, usize); 6] = [
    (177, 0),
    (150, 0),
    (129, 0),
    (141, 0),
    (192, 1496),
    (141, 1123),
];

/// Per request, in list order: frames, and the TFLLR-scaled supervector's
/// non-zeros per subsystem.
const REQUESTS: [(usize, [usize; 6]); 6] = [
    (750, [1054, 964, 894, 938, 780, 523]),
    (750, [1087, 1032, 916, 960, 892, 652]),
    (250, [435, 407, 410, 396, 409, 308]),
    (250, [567, 498, 492, 482, 364, 299]),
    (75, [148, 118, 153, 135, 168, 141]),
    (75, [170, 142, 183, 172, 186, 144]),
];

/// One task per subsystem.
const TASKS: usize = 6;

/// One-vs-rest rows per subsystem: one per target language.
const OVR_ROWS: usize = 23;

fn gmm_rows_per_block(am: &AcousticModel) -> usize {
    let gmm = am.scorer.as_any().downcast_ref::<GmmStateScorer>();
    gmm.map_or(0, GmmStateScorer::rows_per_block)
}

#[test]
#[ignore = "trains the smoke bundle; run with --release -- --ignored"]
fn every_request_does_exactly_the_committed_work() {
    let exp = Experiment::build(&ExperimentConfig::new(Scale::Smoke, 42));
    let utts: Vec<Vec<f32>> = Duration::all()
        .iter()
        .flat_map(|&d| exp.ds.test_set(d).iter().take(2))
        .map(|u| render_utterance(u, exp.ds.language(u.language), &exp.inv).samples)
        .collect();
    let bytes = SystemBundle::from_experiment(exp).to_artifact_bytes();
    let bundle = SystemBundle::from_artifact_bytes(&bytes).expect("bundle reloads");
    let subsystems: Vec<(usize, usize)> = bundle
        .subsystems
        .iter()
        .map(|s| (s.am.inventory.num_states(), gmm_rows_per_block(&s.am)))
        .collect();
    let system = ScoringSystem::from_bundle(bundle).expect("bundle is coherent");

    let mut scratch = DecodeScratch::new();
    let requests: Vec<(usize, [usize; 6])> = utts
        .iter()
        .enumerate()
        .map(|(i, samples)| {
            let fan_out = system.fan_out(samples).expect("the system splits");
            assert_eq!(fan_out.num_tasks(), TASKS, "request {i}: fan-out tasks");
            let detail = system.score_detailed(samples, &mut scratch);
            for (q, row) in detail.subsystem_scores.iter().enumerate() {
                assert_eq!(row.len(), OVR_ROWS, "request {i}, subsystem {q}: OvR rows");
            }
            let nnz: Vec<usize> = detail.supervectors.iter().map(|sv| sv.nnz()).collect();
            let nnz = nnz.try_into().expect("six supervectors");
            (detail.num_frames as usize, nnz)
        })
        .collect();

    assert_eq!(system.feature_kinds(), KINDS, "the shared pass's kinds");
    assert_eq!(subsystems, SUBSYSTEMS, "(HMM states, GMM rows per block)");
    assert_eq!(requests, REQUESTS, "(frames, supervector non-zeros)");
}
