//! Frame-level emission scoring abstraction consumed by the decoder.

use crate::gmm::{lse_rows, transpose_block, DiagGmm, NEG_ZEROS};
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
    /// Components of state 0's GMM whose row (mean and inverse variance,
    /// bit for bit) every state's GMM carries — the broad background
    /// component `with_background` appends — filled once per block for all
    /// of them. Derived from `gmms` when built or loaded, never serialized.
    shared: Vec<usize>,
    /// Per state, how each component's log term is made.
    rows: Vec<StateRows>,
}

/// One state's components, split by where their distances come from.
#[derive(Default)]
struct StateRows {
    /// Filled by the state itself.
    own: Vec<usize>,
    /// `(component, row of state 0)`: the state's log-constant added to the
    /// block's shared `−q/2` row.
    shared: Vec<(usize, usize)>,
}

impl GmmStateScorer {
    pub fn new(gmms: Vec<DiagGmm>) -> Self {
        assert!(!gmms.is_empty());
        let g0 = &gmms[0];
        // A row is shared when every state carries it (only worth a fill of
        // its own with two states or more); state 0's first copy is filled.
        let shared: Vec<usize> = (0..g0.num_mix())
            .filter(|&c| {
                gmms.len() > 1
                    && !(0..c).any(|e| g0.same_component(e, g0, c))
                    && gmms
                        .iter()
                        .all(|g| (0..g.num_mix()).any(|k| g.same_component(k, g0, c)))
            })
            .collect();
        let rows = gmms
            .iter()
            .map(|g| {
                let mut rows = StateRows::default();
                for k in 0..g.num_mix() {
                    match shared.iter().find(|&&c| g.same_component(k, g0, c)) {
                        Some(&c) => rows.shared.push((k, c)),
                        None => rows.own.push(k),
                    }
                }
                rows
            })
            .collect();
        Self { gmms, shared, rows }
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
    /// block is transposed to dimension-major layout (its last one padded
    /// to whole vector groups) **once**; the rows every state shares get
    /// their `−q/2` filled once; then every state fills its own rows with
    /// the vectorized transposed kernel, adds its log-constant to the shared
    /// ones ([`DiagGmm::add_log_const`], exact) and folds them in its own
    /// component order ([`DiagGmm::log_likelihood_block_t`]'s two stages),
    /// streaming its mixture parameters once per block instead of once per
    /// frame.
    fn score_block(&self, frames: &[f32], dim: usize, out: &mut [f32]) {
        const BLOCK: usize = 64;
        let s = self.gmms.len();
        debug_assert!(dim > 0);
        debug_assert_eq!(out.len(), frames.len() / dim * s);
        let g0 = &self.gmms[0];
        let mut comps = Vec::new();
        let mut half_dists = Vec::new();
        let mut ft = Vec::new();
        let mut col = [0.0f32; BLOCK];
        for (block, rows) in frames.chunks(BLOCK * dim).zip(out.chunks_mut(BLOCK * s)) {
            let bt = block.len() / dim;
            transpose_block(block, dim, &mut ft);
            half_dists.resize(g0.num_mix() * bt, 0.0);
            g0.fill_rows_block_t(&ft, &mut half_dists, bt, &self.shared, &NEG_ZEROS);
            for (si, (g, plan)) in self.gmms.iter().zip(&self.rows).enumerate() {
                // Every row is written below: own or shared.
                comps.resize(g.num_mix() * bt, 0.0);
                g.fill_rows_block_t(&ft, &mut comps, bt, &plan.own, g.log_consts());
                for &(c, c0) in &plan.shared {
                    g.add_log_const(c, &half_dists[c0 * bt..(c0 + 1) * bt], &mut comps);
                }
                lse_rows(&mut comps, g.num_mix(), &mut col[..bt]);
                for (row, &v) in rows.chunks_exact_mut(s).zip(&col[..bt]) {
                    row[si] = v;
                }
            }
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
        Ok(GmmStateScorer::new(gmms))
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
        let mut random_params = |mix: usize| {
            let means: Vec<f32> = (0..mix * dim)
                .map(|_| rng.random::<f32>() * 4.0 - 2.0)
                .collect();
            let vars: Vec<f32> = (0..mix * dim).map(|_| 0.3 + rng.random::<f32>()).collect();
            let weights: Vec<f32> = (0..mix).map(|c| [0.5, 0.3, 0.2][c % 3]).collect();
            (means, vars, weights)
        };
        // Enough states and frames to cross the 64-frame block boundary and
        // exercise partial blocks.
        let params: Vec<_> = (0..9).map(|s| random_params(1 + s % 4)).collect();
        let plain: Vec<DiagGmm> = params
            .iter()
            .map(|(m, v, w)| DiagGmm::from_params(m.clone(), v.clone(), w.clone(), dim))
            .collect();
        // Every state `with_background`: one row shared by all of them.
        let background: Vec<DiagGmm> = plain.iter().map(|g| g.with_background(0.08, 3.0)).collect();
        // The same bank with state 4's background inverse variance one ulp
        // off in one dimension: no row is shared by every state any more.
        let inv_bg = 1.0f32 / 3.0;
        let nudged_var = (1..64)
            .map(|u| f32::from_bits(3.0f32.to_bits() - u))
            .find(|v| (1.0 / v).to_bits() == inv_bg.to_bits() + 1)
            .expect("a variance whose reciprocal is one ulp above 1/3");
        let mut nudged = background.clone();
        let (m, v, w) = &params[4];
        let mut vars: Vec<f32> = v.clone();
        vars.extend([nudged_var].into_iter().chain([3.0; 5]));
        let weights: Vec<f32> = w.iter().map(|w| w * (1.0 - 0.08)).chain([0.08]).collect();
        let means: Vec<f32> = m.iter().copied().chain([0.0; 6]).collect();
        nudged[4] = DiagGmm::from_params(means, vars, weights, dim);
        // A 1-component state that is the background row alone: all of its
        // terms come from the shared fill.
        let mut lone = background.clone();
        lone.push(DiagGmm::from_params(
            vec![0.0; dim],
            vec![3.0; dim],
            vec![1.0],
            dim,
        ));

        for (name, gmms, shared) in [
            ("plain", plain, 0),
            ("background", background, 1),
            ("nudged", nudged, 0),
            ("lone", lone, 1),
        ] {
            let sc = GmmStateScorer::new(gmms);
            assert_eq!(sc.shared.len(), shared, "{name}");
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
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name}: frame {t} state {s}: {a} vs {b}"
                    );
                }
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
