//! # Discriminative Boosting Algorithm for phonotactic language recognition
//!
//! This crate is the reproduction of the paper's contribution (Liu, Cai,
//! Zhang, Liu & Johnson, *J. Signal Processing Systems*, 2015): the
//! **PPRVSM** baseline — parallel phone recognizers followed by vector
//! space modeling — and the **Discriminative Boosting Algorithm (DBA)**
//! that mines high-confidence test utterances by a cross-subsystem vote
//! (Eq. 10–13), pseudo-labels them, and retrains the VSMs (§3).
//!
//! The major types:
//!
//! - [`SubsystemSpec`] / [`standard_subsystems`]: the six diversified
//!   front-ends of §4.1 — BUT-style ANN-HMM recognizers for HU/RU/CZ,
//!   a DNN-HMM EN recognizer and GMM-HMM EN/MA recognizers;
//! - [`Frontend`]: a trained recognizer (acoustic model + supervector
//!   builder + TFLLR scaler) and its decode path;
//! - [`Experiment`]: the expensive one-time pipeline — train the six
//!   recognizers, then render and analyse every utterance once and decode
//!   it through every subsystem into a supervector, as serving does — plus
//!   cached baseline VSMs; everything downstream (V sweeps, DBA variants,
//!   fusion) reuses it,
//!   mirroring the paper's cost analysis (§5.4: decoding dominates, DBA
//!   retraining is nearly free);
//! - [`vote`]: the votes-counting matrix **C_v** (Eq. 10–13) and the
//!   `Tr_DBA` selection at threshold V;
//! - [`dba`]: DBA-M1 (pseudo-labelled test data only) and DBA-M2
//!   (test + original training data) retraining and rescoring;
//! - [`fusion_pipeline`]: LDA-MMI fusion of any set of subsystem score
//!   matrices (baseline fusion row and the (DBA-M1)+(DBA-M2) row of
//!   Table 4 / Fig. 3).
//!
//! ## Quickstart
//!
//! ```no_run
//! use lre_corpus::Scale;
//! use lre_dba::{Experiment, ExperimentConfig};
//!
//! let cfg = ExperimentConfig::new(Scale::Smoke, 42);
//! let exp = Experiment::build(&cfg);
//! let table = exp.baseline_summary();
//! for row in &table {
//!     println!("{} {}: EER {:.2}%", row.subsystem, row.duration.name(), row.eer * 100.0);
//! }
//! ```

pub mod cache;
pub mod dba;
pub mod experiment;
pub mod fusion_pipeline;
pub mod guard;
pub mod subsystem;
pub mod vote;

pub use dba::{
    build_tr_dba, dba_round_selection, pooled_selection_error, run_dba, run_dba_iterated,
    DbaOutcome, DbaSelection, DbaVariant,
};
pub use experiment::{BaselineRow, Experiment, ExperimentConfig};
pub use fusion_pipeline::{fuse, fuse_duration, FusedSystem};
pub use guard::{score_guard, GuardFile, GuardReport, GuardScores, GuardSet};
pub use subsystem::{standard_subsystems, Frontend, SubsystemSpec};
pub use vote::{select_tr_dba, selectable, vote_matrix, PseudoLabel, VoteMatrix};
