//! Feed-forward neural networks for frame classification.
//!
//! One hidden layer reproduces the BUT-style **ANN** front-ends; a deeper
//! stack reproduces the Tsinghua **DNN** (§4.1). Training follows the
//! paper's recipe in miniature: sigmoid hidden units, softmax output,
//! minibatch SGD with the learning rate halved whenever held-out frame
//! accuracy degrades ("the learning rate is reduced by a factor of 2 if the
//! accuracy decreases"). The DBN pretraining of the paper's ref. 24 is realized as greedy
//! layer-wise *denoising-autoencoder* pretraining ([`Mlp::pretrain`]) — the
//! standard CD-free stand-in with the same role: initialize each hidden
//! layer so that fine-tuning starts from a representation of the input
//! rather than from noise.
//!
//! Training and [`Mlp::posteriors`] / [`Mlp::log_posteriors_into`] run one
//! frame at a time on `f32::exp` / `f32::ln`; decoding and serving run
//! [`Mlp::log_posteriors_block`], which takes 64-frame panels through blocked
//! GEMMs and `lre_linalg`'s slice `expf` / `lnf` and returns the same bits.

use rand::RngExt;

/// A multi-layer perceptron: sigmoid hidden layers, softmax output.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Layer sizes including input and output, e.g. `[39, 96, 96, 141]`.
    sizes: Vec<usize>,
    /// Per-layer weights, flat `out × in`, row-major.
    weights: Vec<Vec<f32>>,
    /// Per-layer biases.
    biases: Vec<Vec<f32>>,
}

/// SGD hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub initial_lr: f32,
    /// Classical momentum coefficient.
    pub momentum: f32,
    /// Fraction of the data held out for the LR schedule.
    pub holdout_fraction: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 24,
            batch_size: 32,
            initial_lr: 0.4,
            momentum: 0.9,
            holdout_fraction: 0.08,
        }
    }
}

/// Greedy layer-wise pretraining hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct PretrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Std-dev of the Gaussian input corruption (denoising criterion).
    pub noise_std: f32,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 4,
            batch_size: 32,
            lr: 0.05,
            noise_std: 0.2,
        }
    }
}

/// Frames [`Mlp::log_posteriors_block`] takes through every layer at a time:
/// a multiple of the GEMM's 32-frame register block, small enough that a
/// layer's activations stay in L1/L2 until the next layer has read them.
const PANEL: usize = 64;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Mlp {
    /// Random initialization with per-layer scale `1/√fan_in`.
    pub fn new<R: RngExt>(sizes: &[usize], rng: &mut R) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let scale = 1.0 / (fan_in as f32).sqrt();
            let w: Vec<f32> = (0..fan_in * fan_out)
                .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
                .collect();
            weights.push(w);
            biases.push(vec![0.0; fan_out]);
        }
        Mlp {
            sizes: sizes.to_vec(),
            weights,
            biases,
        }
    }

    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    pub fn output_dim(&self) -> usize {
        *self.sizes.last().unwrap()
    }

    pub fn num_layers(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Weights and biases over all layers.
    pub fn num_params(&self) -> usize {
        self.sizes.windows(2).map(|w| (w[0] + 1) * w[1]).sum()
    }

    /// Forward pass; returns the activations of every layer (layer 0 = input
    /// copy). The final layer activation is the softmax posterior.
    fn forward_full(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut acts = Vec::with_capacity(self.sizes.len());
        acts.push(x.to_vec());
        for l in 0..self.num_layers() {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let prev = &acts[l];
            let mut z = self.biases[l].clone();
            let w = &self.weights[l];
            for (o, zo) in z.iter_mut().enumerate() {
                let row = &w[o * n_in..(o + 1) * n_in];
                let mut acc = 0.0f32;
                for (ri, pi) in row.iter().zip(prev) {
                    acc += ri * pi;
                }
                *zo += acc;
            }
            if l + 1 == self.num_layers() {
                softmax_in_place(&mut z);
            } else {
                z.iter_mut().for_each(|v| *v = sigmoid(*v));
            }
            acts.push(z);
            let _ = n_out;
        }
        acts
    }

    /// Class posteriors for a frame.
    pub fn posteriors(&self, x: &[f32]) -> Vec<f32> {
        self.forward_full(x).pop().unwrap()
    }

    /// Log posteriors written into `out` (length `output_dim`).
    pub fn log_posteriors_into(&self, x: &[f32], out: &mut [f32]) {
        let p = self.posteriors(x);
        for (o, v) in out.iter_mut().zip(&p) {
            *o = v.max(1e-12).ln();
        }
    }

    /// Log posteriors for a flat block of frames (`n × input_dim` in,
    /// `n × output_dim` out, both row-major).
    ///
    /// The block is walked in panels of [`PANEL`] frames, each taken through
    /// every layer before the next is touched, so two panel-sized ping-pong
    /// buffers replace the per-frame/per-layer `Vec` allocations of
    /// [`Mlp::posteriors`] and a layer's activations are still in cache when
    /// the next layer reads them. A layer is one blocked `X·Wᵀ + b`
    /// ([`lre_linalg::gemm_xwt_f32`]), which keeps each dot product's
    /// accumulation order; the sigmoid, softmax and log steps run as dense
    /// passes over the activation panel, with [`lre_linalg::expf_in_place`]
    /// / [`lre_linalg::lnf_in_place`] — which return `f32::exp`'s and
    /// `f32::ln`'s bits for every input — where the scalar path calls libm
    /// per element, and every sum and division in the scalar path's order.
    /// Every step is per frame, so the output is bit-identical to calling
    /// [`Mlp::log_posteriors_into`] per frame, wherever the panels fall.
    pub fn log_posteriors_block(&self, frames: &[f32], out: &mut [f32]) {
        let (n_in, n_out) = (self.input_dim(), self.output_dim());
        debug_assert!(n_in > 0);
        let n = frames.len() / n_in;
        debug_assert_eq!(frames.len(), n * n_in);
        debug_assert_eq!(out.len(), n * n_out);
        let last = self.num_layers() - 1;
        let hidden_width = self.sizes[1..=last].iter().copied().max().unwrap_or(0);
        let mut a = vec![0.0f32; PANEL.min(n) * hidden_width];
        let mut b = a.clone();
        for (x, o) in frames
            .chunks(PANEL * n_in)
            .zip(out.chunks_mut(PANEL * n_out))
        {
            let rows = x.len() / n_in;
            for l in 0..=last {
                let (k, width) = (self.sizes[l], self.sizes[l + 1]);
                let input = if l == 0 { x } else { &a[..rows * k] };
                let z = if l == last {
                    &mut *o
                } else {
                    &mut b[..rows * width]
                };
                lre_linalg::gemm_xwt_f32(input, &self.weights[l], &self.biases[l], k, z);
                if l == last {
                    softmax_rows_in_place(z, width);
                } else {
                    // `sigmoid`, one step per pass.
                    z.iter_mut().for_each(|v| *v = -*v);
                    lre_linalg::expf_in_place(z);
                    z.iter_mut().for_each(|e| *e = 1.0 / (1.0 + *e));
                }
                std::mem::swap(&mut a, &mut b);
            }
            o.iter_mut().for_each(|p| *p = p.max(1e-12));
            lre_linalg::lnf_in_place(o);
        }
    }

    /// Greedy layer-wise denoising-autoencoder pretraining on unlabeled
    /// frames: every hidden layer is trained to reconstruct its (corrupted)
    /// input through a tied-weight linear decoder, then the data is pushed
    /// through the trained layer and the next layer repeats. The softmax
    /// output layer is left at its random initialization (it is supervised
    /// by definition). Returns the per-layer final reconstruction MSEs.
    pub fn pretrain<R: RngExt>(
        &mut self,
        frames: &[f32],
        cfg: &PretrainConfig,
        rng: &mut R,
    ) -> Vec<f32> {
        let n = frames.len() / self.input_dim();
        if n == 0 {
            return Vec::new();
        }
        let mut mses = Vec::new();
        // Current representation of the data (layer-by-layer).
        let mut data: Vec<f32> = frames.to_vec();
        let mut dim = self.input_dim();

        for l in 0..self.num_layers().saturating_sub(1) {
            let n_out = self.sizes[l + 1];
            // Decoder bias (encoder weights/bias are the layer's own).
            let mut dec_bias = vec![0.0f32; dim];
            let mut order: Vec<usize> = (0..n).collect();
            let mut last_mse = 0.0f32;

            for _epoch in 0..cfg.epochs {
                for i in (1..n).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                let mut epoch_se = 0.0f64;
                for batch in order.chunks(cfg.batch_size) {
                    let mut gw = vec![0.0f32; n_out * dim];
                    let mut gb = vec![0.0f32; n_out];
                    let mut gc = vec![0.0f32; dim];
                    for &i in batch {
                        let x = &data[i * dim..(i + 1) * dim];
                        // Corrupt input (denoising criterion).
                        let xc: Vec<f32> = x
                            .iter()
                            .map(|&v| {
                                let u1: f32 = rng.random::<f32>().max(1e-7);
                                let u2: f32 = rng.random();
                                let g = (-2.0 * u1.ln()).sqrt()
                                    * (2.0 * std::f32::consts::PI * u2).cos();
                                v + cfg.noise_std * g
                            })
                            .collect();
                        // Encode.
                        let mut h = vec![0.0f32; n_out];
                        for (o, ho) in h.iter_mut().enumerate() {
                            let row = &self.weights[l][o * dim..(o + 1) * dim];
                            let mut acc = self.biases[l][o];
                            for (w, v) in row.iter().zip(&xc) {
                                acc += w * v;
                            }
                            *ho = sigmoid(acc);
                        }
                        // Decode with tied weights: x̂ = Wᵀh + c.
                        let mut xhat = dec_bias.clone();
                        for (o, &ho) in h.iter().enumerate() {
                            let row = &self.weights[l][o * dim..(o + 1) * dim];
                            for (xh, &w) in xhat.iter_mut().zip(row) {
                                *xh += w * ho;
                            }
                        }
                        // Reconstruction error against the *clean* input.
                        let err: Vec<f32> = xhat.iter().zip(x).map(|(a, b)| a - b).collect();
                        epoch_se += err.iter().map(|e| (*e as f64) * (*e as f64)).sum::<f64>();
                        // Gradients. dL/dxhat = 2 err (drop the 2 into lr).
                        for (g, e) in gc.iter_mut().zip(&err) {
                            *g += e;
                        }
                        // Hidden delta: dL/dh_o = Σ_j err_j W_oj; through σ'.
                        for o in 0..n_out {
                            let row = &self.weights[l][o * dim..(o + 1) * dim];
                            let mut dh = 0.0f32;
                            for (e, w) in err.iter().zip(row) {
                                dh += e * w;
                            }
                            let dact = dh * h[o] * (1.0 - h[o]);
                            gb[o] += dact;
                            let grow = &mut gw[o * dim..(o + 1) * dim];
                            // Tied weights: decoder term err_j h_o + encoder
                            // term dact * xc_j.
                            for ((g, &e), &v) in grow.iter_mut().zip(&err).zip(&xc) {
                                *g += e * h[o] + dact * v;
                            }
                        }
                    }
                    let scale = cfg.lr / batch.len() as f32;
                    for (w, g) in self.weights[l].iter_mut().zip(&gw) {
                        *w -= scale * g;
                    }
                    for (b, g) in self.biases[l].iter_mut().zip(&gb) {
                        *b -= scale * g;
                    }
                    for (c, g) in dec_bias.iter_mut().zip(&gc) {
                        *c -= scale * g;
                    }
                }
                last_mse = (epoch_se / (n as f64 * dim as f64)) as f32;
            }
            mses.push(last_mse);

            // Push the data through the trained layer for the next one.
            let mut next = vec![0.0f32; n * n_out];
            for i in 0..n {
                let x = &data[i * dim..(i + 1) * dim];
                let out = &mut next[i * n_out..(i + 1) * n_out];
                for (o, oo) in out.iter_mut().enumerate() {
                    let row = &self.weights[l][o * dim..(o + 1) * dim];
                    let mut acc = self.biases[l][o];
                    for (w, v) in row.iter().zip(x) {
                        acc += w * v;
                    }
                    *oo = sigmoid(acc);
                }
            }
            data = next;
            dim = n_out;
        }
        mses
    }

    /// Supervised training on `frames` (flat `n × input_dim`) and `labels`.
    ///
    /// Returns the final held-out frame accuracy.
    pub fn train<R: RngExt>(
        &mut self,
        frames: &[f32],
        labels: &[u32],
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> f32 {
        let dim = self.input_dim();
        let n = labels.len();
        assert_eq!(frames.len(), n * dim);
        if n == 0 {
            return 0.0;
        }

        // Shuffled index order; tail is the holdout split.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let n_hold =
            ((n as f32 * cfg.holdout_fraction) as usize).clamp(1, n.saturating_sub(1).max(1));
        let (train_idx, hold_idx) = order.split_at(n - n_hold);

        let mut lr = cfg.initial_lr;
        let mut best_acc = 0.0f32;
        let mut vel_w: Vec<Vec<f32>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut vel_b: Vec<Vec<f32>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        for _epoch in 0..cfg.epochs {
            for batch in train_idx.chunks(cfg.batch_size) {
                self.sgd_batch(
                    frames,
                    labels,
                    batch,
                    dim,
                    lr,
                    cfg.momentum,
                    &mut vel_w,
                    &mut vel_b,
                );
            }
            let acc = self.frame_accuracy(frames, labels, hold_idx, dim);
            if acc < best_acc {
                lr *= 0.5;
            }
            best_acc = best_acc.max(acc);
        }
        best_acc
    }

    /// One SGD step over a batch (gradient averaged across the batch,
    /// classical momentum on the velocity buffers).
    #[allow(clippy::too_many_arguments)]
    fn sgd_batch(
        &mut self,
        frames: &[f32],
        labels: &[u32],
        batch: &[usize],
        dim: usize,
        lr: f32,
        momentum: f32,
        vel_w: &mut [Vec<f32>],
        vel_b: &mut [Vec<f32>],
    ) {
        let num_layers = self.num_layers();
        // Gradient accumulators.
        let mut gw: Vec<Vec<f32>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut gb: Vec<Vec<f32>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();

        for &i in batch {
            let x = &frames[i * dim..(i + 1) * dim];
            let acts = self.forward_full(x);
            // Output delta: softmax + CE ⇒ p - y.
            let mut delta: Vec<f32> = acts[num_layers].clone();
            delta[labels[i] as usize] -= 1.0;

            for l in (0..num_layers).rev() {
                let n_in = self.sizes[l];
                let prev = &acts[l];
                // Accumulate gradients for layer l.
                for (o, &d) in delta.iter().enumerate() {
                    gb[l][o] += d;
                    let grow = &mut gw[l][o * n_in..(o + 1) * n_in];
                    for (g, &p) in grow.iter_mut().zip(prev) {
                        *g += d * p;
                    }
                }
                if l > 0 {
                    // Backpropagate: delta_prev = (Wᵀ delta) ⊙ σ'(a_prev).
                    let mut nd = vec![0.0f32; n_in];
                    let w = &self.weights[l];
                    for (o, &d) in delta.iter().enumerate() {
                        let row = &w[o * n_in..(o + 1) * n_in];
                        for (ndj, &wj) in nd.iter_mut().zip(row) {
                            *ndj += d * wj;
                        }
                    }
                    for (ndj, &a) in nd.iter_mut().zip(prev) {
                        *ndj *= a * (1.0 - a); // sigmoid derivative from activation
                    }
                    delta = nd;
                }
            }
        }

        let scale = lr / batch.len() as f32;
        for l in 0..num_layers {
            for ((w, v), g) in self.weights[l].iter_mut().zip(&mut vel_w[l]).zip(&gw[l]) {
                *v = momentum * *v - scale * g;
                *w += *v;
            }
            for ((b, v), g) in self.biases[l].iter_mut().zip(&mut vel_b[l]).zip(&gb[l]) {
                *v = momentum * *v - scale * g;
                *b += *v;
            }
        }
    }

    /// Frame classification accuracy over the given indices.
    pub fn frame_accuracy(&self, frames: &[f32], labels: &[u32], idx: &[usize], dim: usize) -> f32 {
        if idx.is_empty() {
            return 0.0;
        }
        let correct = idx
            .iter()
            .filter(|&&i| {
                let p = self.posteriors(&frames[i * dim..(i + 1) * dim]);
                let arg = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                arg as u32 == labels[i]
            })
            .count();
        correct as f32 / idx.len() as f32
    }
}

fn softmax_in_place(z: &mut [f32]) {
    let max = z.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z.iter_mut() {
        *v /= sum;
    }
}

/// [`softmax_in_place`] on every `width`-long row of `z`, with one `expf`
/// pass over the whole panel between the per-row max and the per-row sum.
fn softmax_rows_in_place(z: &mut [f32], width: usize) {
    for row in z.chunks_exact_mut(width) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        row.iter_mut().for_each(|v| *v -= max);
    }
    lre_linalg::expf_in_place(z);
    for row in z.chunks_exact_mut(width) {
        let mut sum = 0.0f32;
        for &e in row.iter() {
            sum += e;
        }
        row.iter_mut().for_each(|e| *e /= sum);
    }
}

impl lre_artifact::ArtifactWrite for Mlp {
    const KIND: [u8; 4] = *b"MLP0";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_u32(self.sizes.len() as u32);
        for &s in &self.sizes {
            w.put_u32(s as u32);
        }
        for (wl, bl) in self.weights.iter().zip(&self.biases) {
            w.put_f32_slice(wl);
            w.put_f32_slice(bl);
        }
    }
}

impl lre_artifact::ArtifactRead for Mlp {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<Mlp, lre_artifact::ArtifactError> {
        use lre_artifact::ArtifactError;
        let num_sizes = r.get_count(4)?;
        let sizes: Vec<usize> = (0..num_sizes)
            .map(|_| r.get_u32().map(|v| v as usize))
            .collect::<Result<_, _>>()?;
        if sizes.len() < 2 || sizes.contains(&0) {
            return Err(ArtifactError::Corrupt("MLP layer sizes out of range"));
        }
        let mut weights = Vec::with_capacity(sizes.len() - 1);
        let mut biases = Vec::with_capacity(sizes.len() - 1);
        for l in 0..sizes.len() - 1 {
            let wl = r.get_f32_slice()?;
            let bl = r.get_f32_slice()?;
            if wl.len() != sizes[l] * sizes[l + 1] || bl.len() != sizes[l + 1] {
                return Err(ArtifactError::Corrupt("MLP layer shapes disagree"));
            }
            weights.push(wl);
            biases.push(bl);
        }
        Ok(Mlp {
            sizes,
            weights,
            biases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    /// Two-class 2-D problem: sign of x₀+x₁.
    fn toy_data(n: usize, rng: &mut StdRng) -> (Vec<f32>, Vec<u32>) {
        let mut frames = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.random::<f32>() * 4.0 - 2.0;
            let b = rng.random::<f32>() * 4.0 - 2.0;
            frames.push(a);
            frames.push(b);
            labels.push(u32::from(a + b > 0.0));
        }
        (frames, labels)
    }

    #[test]
    fn posteriors_sum_to_one() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 8, 3], &mut r);
        let p = mlp.posteriors(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn learns_linear_boundary() {
        let mut r = rng();
        let (frames, labels) = toy_data(600, &mut r);
        let mut mlp = Mlp::new(&[2, 12, 2], &mut r);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            initial_lr: 0.5,
            momentum: 0.9,
            holdout_fraction: 0.1,
        };
        let acc = mlp.train(&frames, &labels, &cfg, &mut r);
        assert!(acc > 0.9, "holdout accuracy {acc}");
    }

    #[test]
    fn deeper_network_also_learns() {
        let mut r = rng();
        let (frames, labels) = toy_data(600, &mut r);
        let mut mlp = Mlp::new(&[2, 10, 10, 2], &mut r);
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 16,
            initial_lr: 0.5,
            momentum: 0.9,
            holdout_fraction: 0.1,
        };
        let acc = mlp.train(&frames, &labels, &cfg, &mut r);
        assert!(acc > 0.85, "holdout accuracy {acc}");
    }

    #[test]
    fn block_log_posteriors_bitwise_match_per_frame() {
        let mut r = rng();
        let mlp = Mlp::new(&[5, 17, 9, 7], &mut r);
        // Two whole panels and a ragged third.
        let n = 171;
        let frames: Vec<f32> = (0..n * 5).map(|_| r.random::<f32>() * 2.0 - 1.0).collect();

        let mut block = vec![0.0f32; n * 7];
        mlp.log_posteriors_block(&frames, &mut block);

        let mut single = vec![0.0f32; 7];
        for t in 0..n {
            mlp.log_posteriors_into(&frames[t * 5..(t + 1) * 5], &mut single);
            for (o, (a, b)) in single.iter().zip(&block[t * 7..(t + 1) * 7]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "frame {t} output {o}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn block_log_posteriors_empty_is_noop() {
        let mut r = rng();
        let mlp = Mlp::new(&[3, 4, 2], &mut r);
        let mut out: Vec<f32> = Vec::new();
        mlp.log_posteriors_block(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn log_posteriors_match_posteriors() {
        let mut r = rng();
        let mlp = Mlp::new(&[3, 6, 4], &mut r);
        let x = [0.5, -0.1, 0.2];
        let p = mlp.posteriors(&x);
        let mut lp = vec![0.0; 4];
        mlp.log_posteriors_into(&x, &mut lp);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn pretraining_reduces_reconstruction_error() {
        let mut r = rng();
        let (frames, _) = toy_data(400, &mut r);
        let mut mlp = Mlp::new(&[2, 8, 8, 2], &mut r);
        let cfg = PretrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 0.05,
            noise_std: 0.1,
        };
        // Measure the first layer's MSE after 1 epoch vs after 8 epochs.
        let mut mlp_short = mlp.clone();
        let mut r1 = rng();
        let short = mlp_short.pretrain(&frames, &PretrainConfig { epochs: 1, ..cfg }, &mut r1);
        let mut r2 = rng();
        let long = mlp.pretrain(&frames, &cfg, &mut r2);
        assert_eq!(short.len(), 2);
        assert_eq!(long.len(), 2);
        assert!(
            long[0] <= short[0] * 1.05,
            "more pretraining epochs should not hurt: {short:?} vs {long:?}"
        );
        assert!(long.iter().all(|m| m.is_finite() && *m >= 0.0));
    }

    #[test]
    fn pretraining_then_finetuning_learns() {
        let mut r = rng();
        let (frames, labels) = toy_data(500, &mut r);
        let mut mlp = Mlp::new(&[2, 10, 10, 2], &mut r);
        mlp.pretrain(&frames, &PretrainConfig::default(), &mut r);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            initial_lr: 0.5,
            momentum: 0.9,
            holdout_fraction: 0.1,
        };
        let acc = mlp.train(&frames, &labels, &cfg, &mut r);
        assert!(acc > 0.85, "accuracy after pretrain+finetune {acc}");
    }

    #[test]
    fn pretraining_on_empty_data_is_safe() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 4, 2], &mut r);
        assert!(mlp
            .pretrain(&[], &PretrainConfig::default(), &mut r)
            .is_empty());
    }

    #[test]
    fn training_on_empty_data_is_safe() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 4, 2], &mut r);
        let acc = mlp.train(&[], &[], &TrainConfig::default(), &mut r);
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn training_improves_over_untrained() {
        let mut r = rng();
        let (frames, labels) = toy_data(400, &mut r);
        let untrained = Mlp::new(&[2, 8, 2], &mut r);
        let idx: Vec<usize> = (0..400).collect();
        let acc_before = untrained.frame_accuracy(&frames, &labels, &idx, 2);

        let mut trained = untrained.clone();
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
            initial_lr: 0.5,
            momentum: 0.9,
            holdout_fraction: 0.1,
        };
        trained.train(&frames, &labels, &cfg, &mut r);
        let acc_after = trained.frame_accuracy(&frames, &labels, &idx, 2);
        assert!(
            acc_after > acc_before + 0.05 && acc_after > 0.85,
            "before {acc_before}, after {acc_after}"
        );
    }
}
