//! Acoustic-model substrate.
//!
//! The paper diversifies its parallel front-ends over three acoustic-model
//! families (§4.1): BUT-style **ANN-HMM** (HU/RU/CZ), Tsinghua **DNN-HMM**
//! (EN) and Tsinghua **GMM-HMM** (EN/MA). This crate implements all three
//! from scratch:
//!
//! - [`gmm`]: diagonal-covariance Gaussian mixture models with k-means
//!   initialization and EM,
//! - [`nn`]: feed-forward networks (one hidden layer = "ANN", deeper stack =
//!   "DNN") trained with minibatch SGD on frame/state targets,
//! - [`hmm`]: 3-state left-to-right phone HMM topology and the state
//!   inventory bookkeeping for a phone set,
//! - [`frontend`]: MFCC/PLP + Δ + ΔΔ + CMVN feature extraction (39-dim),
//! - [`scorer`]: the [`scorer::FrameScorer`] abstraction the
//!   decoder consumes — GMM emission log-likelihoods, or NN posteriors
//!   converted to scaled likelihoods,
//! - [`train`]: supervised acoustic-model training from the synthetic
//!   corpus's frame-level reference alignments.

pub mod frontend;
pub mod gmm;
pub mod hmm;
pub mod nn;
pub mod scorer;
pub mod train;

pub use frontend::{extract_features, FeatureKind};
pub use gmm::DiagGmm;
pub use hmm::{HmmTopology, StateInventory, STATES_PER_PHONE};
pub use nn::Mlp;
pub use scorer::{FrameScorer, GmmStateScorer, NnStateScorer};
pub use train::{train_acoustic_model, AcousticModel, AmFamily, AmTrainConfig, FeatureTransform};
