//! Frame-level emission scoring abstraction consumed by the decoder.

use crate::gmm::DiagGmm;
use crate::nn::Mlp;
use lre_artifact::{ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter};

/// Produces per-state emission log-scores for one feature frame.
///
/// The decoder only sees this trait, so GMM-HMM, ANN-HMM and DNN-HMM
/// front-ends are interchangeable — exactly the diversification structure
/// the paper's PPRVSM exploits.
pub trait FrameScorer: Send + Sync {
    /// Number of HMM states scored.
    fn num_states(&self) -> usize;

    /// Write `ln p(x | state)` (up to a state-independent constant) for all
    /// states into `out` (`out.len() == num_states()`).
    fn score_frame(&self, frame: &[f32], out: &mut [f32]);

    /// Score a flat block of frames (`frames.len()` = `T × dim`), writing
    /// per-state scores row-major into `out` (`T × num_states()`).
    ///
    /// The default just loops [`FrameScorer::score_frame`]; model families
    /// override it with batched kernels. Overrides must be **bit-identical**
    /// to the per-frame path — every served score is pinned to it, and
    /// tests compare `f32::to_bits`.
    fn score_block(&self, frames: &[f32], dim: usize, out: &mut [f32]) {
        let s = self.num_states();
        for (x, o) in frames.chunks_exact(dim).zip(out.chunks_exact_mut(s)) {
            self.score_frame(x, o);
        }
    }

    /// Model parameters read to score one frame (means and variances, or
    /// weights and biases): what a scheduler can know at load about this
    /// model's cost relative to another's. `0` = no estimate.
    fn num_params(&self) -> usize {
        0
    }

    /// Downcasting hook: artifact serialization needs to recover the
    /// concrete scorer family behind a `Box<dyn FrameScorer>`.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// GMM-HMM emission model: one diagonal GMM per state.
pub struct GmmStateScorer {
    gmms: Vec<DiagGmm>,
}

impl GmmStateScorer {
    pub fn new(gmms: Vec<DiagGmm>) -> Self {
        assert!(!gmms.is_empty());
        Self { gmms }
    }

    pub fn state_gmm(&self, s: usize) -> &DiagGmm {
        &self.gmms[s]
    }
}

impl FrameScorer for GmmStateScorer {
    fn num_states(&self) -> usize {
        self.gmms.len()
    }

    fn score_frame(&self, frame: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.gmms.len());
        for (o, g) in out.iter_mut().zip(&self.gmms) {
            *o = g.log_likelihood(frame);
        }
    }

    /// Batched scoring: frames are processed in cache-sized blocks. Each
    /// block is transposed to dimension-major layout **once**, then every
    /// state's GMM runs its vectorized transposed kernel over it
    /// ([`DiagGmm::log_likelihood_block_t`]), streaming its mixture
    /// parameters once per block instead of once per frame and accumulating
    /// the Mahalanobis terms across all frames of the block in parallel.
    fn score_block(&self, frames: &[f32], dim: usize, out: &mut [f32]) {
        const BLOCK: usize = 64;
        let s = self.gmms.len();
        debug_assert!(dim > 0);
        let n = frames.len() / dim;
        debug_assert_eq!(out.len(), n * s);
        let mut comps = Vec::new();
        let mut ft = vec![0.0f32; BLOCK.min(n.max(1)) * dim];
        let mut col = [0.0f32; BLOCK];
        let mut t0 = 0;
        while t0 < n {
            let bt = BLOCK.min(n - t0);
            // Transpose once per block: ft[d · bt + t] = frame (t0+t), dim d.
            for t in 0..bt {
                let x = &frames[(t0 + t) * dim..(t0 + t + 1) * dim];
                for (d, &v) in x.iter().enumerate() {
                    ft[d * bt + t] = v;
                }
            }
            for (si, g) in self.gmms.iter().enumerate() {
                g.log_likelihood_block_t(&ft[..bt * dim], &mut comps, &mut col[..bt]);
                for (t, &v) in col[..bt].iter().enumerate() {
                    out[(t0 + t) * s + si] = v;
                }
            }
            t0 += bt;
        }
    }

    fn num_params(&self) -> usize {
        self.gmms.iter().map(|g| 2 * g.num_mix() * g.dim()).sum()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl ArtifactWrite for GmmStateScorer {
    const KIND: [u8; 4] = *b"GSCR";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_u32(self.gmms.len() as u32);
        for g in &self.gmms {
            g.write_payload(w);
        }
    }
}

impl ArtifactRead for GmmStateScorer {
    fn read_payload(r: &mut ArtifactReader) -> Result<GmmStateScorer, ArtifactError> {
        let n = r.get_u32()? as usize;
        if n == 0 {
            return Err(ArtifactError::Corrupt("state scorer with zero GMMs"));
        }
        let gmms: Vec<DiagGmm> = (0..n)
            .map(|_| DiagGmm::read_payload(r))
            .collect::<Result<_, _>>()?;
        if gmms.iter().any(|g| g.dim() != gmms[0].dim()) {
            return Err(ArtifactError::Corrupt("state GMM dimensions disagree"));
        }
        Ok(GmmStateScorer { gmms })
    }
}

/// Hybrid NN-HMM emission model: network posteriors divided by state priors
/// ("scaled likelihoods", the standard hybrid trick):
/// `ln p(x|s) ∝ ln p(s|x) - ln p(s)`.
pub struct NnStateScorer {
    net: Mlp,
    log_priors: Vec<f32>,
}

impl NnStateScorer {
    /// `priors` are state occupancy probabilities estimated on training data;
    /// they are floored and renormalized internally. The floor is a fraction
    /// of the uniform prior: states never seen in training must not receive
    /// a large scaled-likelihood boost from dividing by a near-zero prior.
    pub fn new(net: Mlp, priors: &[f32]) -> Self {
        assert_eq!(net.output_dim(), priors.len());
        let sum: f32 = priors.iter().sum();
        let floor = 0.2 / priors.len() as f32;
        let log_priors = priors
            .iter()
            .map(|&p| (p / sum.max(1e-12)).max(floor).ln())
            .collect();
        Self { net, log_priors }
    }

    pub fn network(&self) -> &Mlp {
        &self.net
    }
}

impl FrameScorer for NnStateScorer {
    fn num_states(&self) -> usize {
        self.net.output_dim()
    }

    fn score_frame(&self, frame: &[f32], out: &mut [f32]) {
        self.net.log_posteriors_into(frame, out);
        for (o, lp) in out.iter_mut().zip(&self.log_priors) {
            *o -= lp;
        }
    }

    /// Batched scoring: the whole utterance goes through the network as
    /// blocked matrix multiplies ([`Mlp::log_posteriors_block`]), then the
    /// log-priors are subtracted row-wise in the per-frame order.
    fn score_block(&self, frames: &[f32], dim: usize, out: &mut [f32]) {
        debug_assert_eq!(dim, self.net.input_dim());
        self.net.log_posteriors_block(frames, out);
        for row in out.chunks_exact_mut(self.net.output_dim()) {
            for (o, lp) in row.iter_mut().zip(&self.log_priors) {
                *o -= lp;
            }
        }
    }

    fn num_params(&self) -> usize {
        self.net.num_params()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// The *derived* log-priors (already floored and renormalized by `new`) are
// persisted, not the raw occupancy counts: re-deriving them on load would
// round differently and break bit-identical scoring.
impl ArtifactWrite for NnStateScorer {
    const KIND: [u8; 4] = *b"NSCR";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        self.net.write_payload(w);
        w.put_f32_slice(&self.log_priors);
    }
}

impl ArtifactRead for NnStateScorer {
    fn read_payload(r: &mut ArtifactReader) -> Result<NnStateScorer, ArtifactError> {
        let net = Mlp::read_payload(r)?;
        let log_priors = r.get_f32_slice()?;
        if log_priors.len() != net.output_dim() {
            return Err(ArtifactError::Corrupt("log-prior count != network outputs"));
        }
        Ok(NnStateScorer { net, log_priors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gmm_scorer_scores_all_states() {
        let g0 = DiagGmm::from_params(vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0], 2);
        let g1 = DiagGmm::from_params(vec![5.0, 5.0], vec![1.0, 1.0], vec![1.0], 2);
        let sc = GmmStateScorer::new(vec![g0, g1]);
        let mut out = vec![0.0; 2];
        sc.score_frame(&[0.0, 0.0], &mut out);
        assert!(
            out[0] > out[1],
            "frame at origin should prefer state 0: {out:?}"
        );
        sc.score_frame(&[5.0, 5.0], &mut out);
        assert!(out[1] > out[0]);
    }

    #[test]
    fn nn_scorer_divides_by_prior() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::new(&[2, 4, 3], &mut rng);
        let x = [0.3, -0.3];
        let posts = net.posteriors(&x);

        // Uniform priors: scores = log posterior + const.
        let sc_uniform = NnStateScorer::new(net.clone(), &[1.0, 1.0, 1.0]);
        let mut out_u = vec![0.0; 3];
        sc_uniform.score_frame(&x, &mut out_u);

        // Skewed prior on state 2 lowers its scaled likelihood relative to
        // the uniform case.
        let sc_skew = NnStateScorer::new(net, &[0.25, 0.25, 0.5]);
        let mut out_s = vec![0.0; 3];
        sc_skew.score_frame(&x, &mut out_s);

        let rel_u = out_u[2] - out_u[0];
        let rel_s = out_s[2] - out_s[0];
        assert!(
            rel_s < rel_u,
            "prior division should penalize frequent states"
        );
        // Sanity: uniform-prior scores equal log posteriors up to a constant.
        let d0 = out_u[0] - posts[0].ln();
        let d1 = out_u[1] - posts[1].ln();
        assert!((d0 - d1).abs() < 1e-4);
    }

    #[test]
    fn gmm_score_block_bitwise_matches_per_frame() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(7);
        let dim = 6;
        // Enough states and frames to cross the 64-frame block boundary and
        // exercise partial blocks.
        let gmms: Vec<DiagGmm> = (0..9)
            .map(|_| {
                let mix = 3;
                let means: Vec<f32> = (0..mix * dim)
                    .map(|_| rng.random::<f32>() * 4.0 - 2.0)
                    .collect();
                let vars: Vec<f32> = (0..mix * dim).map(|_| 0.3 + rng.random::<f32>()).collect();
                let weights: Vec<f32> = vec![0.5, 0.3, 0.2];
                DiagGmm::from_params(means, vars, weights, dim)
            })
            .collect();
        let sc = GmmStateScorer::new(gmms);
        let n = 131;
        let frames: Vec<f32> = (0..n * dim)
            .map(|_| rng.random::<f32>() * 4.0 - 2.0)
            .collect();

        let mut block = vec![0.0f32; n * sc.num_states()];
        sc.score_block(&frames, dim, &mut block);

        let mut single = vec![0.0f32; sc.num_states()];
        for t in 0..n {
            sc.score_frame(&frames[t * dim..(t + 1) * dim], &mut single);
            for (s, (a, b)) in single
                .iter()
                .zip(&block[t * sc.num_states()..(t + 1) * sc.num_states()])
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "frame {t} state {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn nn_score_block_bitwise_matches_per_frame() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(11);
        let net = Mlp::new(&[4, 13, 6], &mut rng);
        let priors: Vec<f32> = (0..6).map(|i| 0.05 + 0.03 * i as f32).collect();
        let sc = NnStateScorer::new(net, &priors);
        let n = 77;
        let frames: Vec<f32> = (0..n * 4)
            .map(|_| rng.random::<f32>() * 2.0 - 1.0)
            .collect();

        let mut block = vec![0.0f32; n * 6];
        sc.score_block(&frames, 4, &mut block);

        let mut single = vec![0.0f32; 6];
        for t in 0..n {
            sc.score_frame(&frames[t * 4..(t + 1) * 4], &mut single);
            for (s, (a, b)) in single.iter().zip(&block[t * 6..(t + 1) * 6]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "frame {t} state {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn trait_object_usable() {
        let g = DiagGmm::from_params(vec![0.0], vec![1.0], vec![1.0], 1);
        let boxed: Box<dyn FrameScorer> = Box::new(GmmStateScorer::new(vec![g]));
        let mut out = vec![0.0];
        boxed.score_frame(&[0.2], &mut out);
        assert!(out[0].is_finite());
    }
}
