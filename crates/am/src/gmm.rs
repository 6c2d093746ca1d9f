//! Diagonal-covariance Gaussian mixture models.
//!
//! Two scoring paths that agree bit for bit: [`DiagGmm::log_likelihood`], one
//! frame at a time with `f32::exp` / `f32::ln` — the specification, and what
//! training calls — and [`DiagGmm::log_likelihood_block_t`], a block of
//! frames at a time through a vectorised distance fill and a dense
//! log-sum-exp tail on `lre_linalg`'s slice `expf` / `lnf`, which is what
//! decoding and serving run. The fill is a register block of up to 3
//! components × 32 frames whose accumulators stay in vector lanes for the
//! whole distance, over a [`transpose_block`] layout padded to whole
//! 8-frame groups, so a 3 s utterance (64 + 11 frames) costs within ≈ 15 %
//! per frame of a 30 s one.

use rand::RngExt;

/// Minimum variance floor, applied per dimension. Features entering the
/// models are CMVN-normalized (unit variance overall), so a floor well below
/// 1.0 but far above numerical noise keeps sparsely-trained states from
/// becoming high-density "absorber" states that swallow every frame.
const VAR_FLOOR: f32 = 5e-2;

/// Most components a GMM may have, enforced where one is built and where one
/// is loaded. Far above anything trained here (8 + background) or in the
/// paper; it bounds the scratch a hostile artifact can make scoring allocate
/// (`num_mix` floats per frame, `64 × num_mix` per block).
const MAX_MIX: usize = 1024;

/// Frames per vector group of the block kernel. A transposed block's rows
/// are padded to a multiple of it, so the kernel's last group reads whole
/// vectors however short the block is.
const LANES: usize = 8;

/// `0, 1, …, MAX_MIX − 1`: the rows of a whole GMM, for
/// [`DiagGmm::fill_comps_block_t`].
const ALL_ROWS: [usize; MAX_MIX] = {
    let mut rows = [0; MAX_MIX];
    let mut c = 0;
    while c < MAX_MIX {
        rows[c] = c;
        c += 1;
    }
    rows
};

/// Log-constant −0.0 for every component: a row filled with it holds
/// exactly `−q/2` (`−0 − y` is `−y`), to which each GMM carrying that row
/// adds its own constant ([`DiagGmm::add_log_const`]).
pub(crate) const NEG_ZEROS: [f32; MAX_MIX] = [-0.0; MAX_MIX];

/// `frames` (flat `n × dim`) transposed into the layout
/// [`DiagGmm::log_likelihood_block_t`] reads: `ft[d · stride + t]` with
/// `stride` = `n` rounded up to a multiple of 8, the pad lanes zero.
pub fn transpose_block(frames: &[f32], dim: usize, ft: &mut Vec<f32>) {
    let stride = (frames.len() / dim).next_multiple_of(LANES);
    ft.clear();
    ft.resize(stride * dim, 0.0);
    for (t, x) in frames.chunks_exact(dim).enumerate() {
        for (d, &v) in x.iter().enumerate() {
            ft[d * stride + t] = v;
        }
    }
}

/// A diagonal-covariance GMM over `dim`-dimensional frames.
///
/// Parameters are stored flat (`num_mix × dim`) and the per-mixture constant
/// `log w_m - ½Σlog(2πσ²)` is precomputed, so scoring one frame is a single
/// fused loop per mixture — this is the innermost hot path of the whole
/// system (it runs once per HMM state per frame).
#[derive(Clone, Debug)]
pub struct DiagGmm {
    dim: usize,
    num_mix: usize,
    /// Flat `num_mix × dim` means.
    means: Vec<f32>,
    /// Flat `num_mix × dim` *inverse* variances (precomputed reciprocals).
    inv_vars: Vec<f32>,
    /// Per-mixture constant: `ln w_m - ½ Σ_d ln(2π σ²_{m,d})`.
    log_consts: Vec<f32>,
    /// Normalized mixture weights (kept for model surgery/diagnostics).
    weights: Vec<f32>,
}

impl DiagGmm {
    /// Train a GMM on `frames` (flat `n × dim`) with k-means init + EM.
    ///
    /// `num_mix` is clamped down when there are too few frames. Returns a
    /// single-Gaussian fallback model if `frames` is empty.
    pub fn train<R: RngExt>(
        frames: &[f32],
        dim: usize,
        num_mix: usize,
        em_iters: usize,
        rng: &mut R,
    ) -> DiagGmm {
        assert!(dim > 0);
        let n = frames.len() / dim;
        if n == 0 {
            // Degenerate: broad unit Gaussian at the origin (the global
            // feature transform makes this the population distribution).
            return Self::from_params(vec![0.0; dim], vec![2.0; dim], vec![1.0], dim);
        }
        let m = num_mix.min(n).max(1);

        // --- k-means initialization -------------------------------------------------
        let mut means = Vec::with_capacity(m * dim);
        for _ in 0..m {
            let pick = rng.random_range(0..n);
            means.extend_from_slice(&frames[pick * dim..(pick + 1) * dim]);
        }
        let mut assign = vec![0usize; n];
        for _ in 0..4 {
            // Assign.
            for (i, a) in assign.iter_mut().enumerate() {
                let x = &frames[i * dim..(i + 1) * dim];
                let mut best = (f32::INFINITY, 0usize);
                for c in 0..m {
                    let mu = &means[c * dim..(c + 1) * dim];
                    let d: f32 = x.iter().zip(mu).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                *a = best.1;
            }
            // Update.
            let mut counts = vec![0f32; m];
            let mut sums = vec![0f32; m * dim];
            for (i, &a) in assign.iter().enumerate() {
                counts[a] += 1.0;
                let x = &frames[i * dim..(i + 1) * dim];
                for (s, &v) in sums[a * dim..(a + 1) * dim].iter_mut().zip(x) {
                    *s += v;
                }
            }
            for c in 0..m {
                if counts[c] > 0.0 {
                    for d in 0..dim {
                        means[c * dim + d] = sums[c * dim + d] / counts[c];
                    }
                }
            }
        }

        // --- Initial variances/weights from the hard assignment ---------------------
        let mut weights = vec![0f32; m];
        let mut vars = vec![0f32; m * dim];
        for (i, &a) in assign.iter().enumerate() {
            weights[a] += 1.0;
            let x = &frames[i * dim..(i + 1) * dim];
            for d in 0..dim {
                let diff = x[d] - means[a * dim + d];
                vars[a * dim + d] += diff * diff;
            }
        }
        for c in 0..m {
            let w = weights[c].max(1.0);
            for d in 0..dim {
                vars[c * dim + d] = (vars[c * dim + d] / w).max(VAR_FLOOR);
            }
        }
        let total: f32 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w = (*w / total).max(1e-6));

        let mut gmm = Self::from_params(means, vars, weights, dim);

        // --- EM refinement ------------------------------------------------------------
        let mut resp = vec![0f32; m];
        for _ in 0..em_iters {
            let mut new_w = vec![0f32; m];
            let mut new_mu = vec![0f32; m * dim];
            let mut new_var = vec![0f32; m * dim];
            for i in 0..n {
                let x = &frames[i * dim..(i + 1) * dim];
                gmm.posteriors(x, &mut resp);
                for c in 0..m {
                    let r = resp[c];
                    if r < 1e-8 {
                        continue;
                    }
                    new_w[c] += r;
                    for d in 0..dim {
                        new_mu[c * dim + d] += r * x[d];
                        new_var[c * dim + d] += r * x[d] * x[d];
                    }
                }
            }
            let total: f32 = new_w.iter().sum();
            let mut means = vec![0f32; m * dim];
            let mut vars = vec![0f32; m * dim];
            let mut weights = vec![0f32; m];
            for c in 0..m {
                let wc = new_w[c].max(1e-6);
                weights[c] = (new_w[c] / total).max(1e-6);
                for d in 0..dim {
                    let mu = new_mu[c * dim + d] / wc;
                    means[c * dim + d] = mu;
                    vars[c * dim + d] = (new_var[c * dim + d] / wc - mu * mu).max(VAR_FLOOR);
                }
            }
            gmm = Self::from_params(means, vars, weights, dim);
        }
        gmm
    }

    /// Return a copy with an extra broad "background" component: a zero-mean
    /// Gaussian with `var_scale` × unit variance and mixture weight `w_bg`.
    /// Features are globally normalized upstream, so zero-mean/scaled-unit
    /// is the population distribution; the component acts as a likelihood
    /// floor for off-distribution frames.
    pub fn with_background(&self, w_bg: f32, var_scale: f32) -> DiagGmm {
        assert!((0.0..1.0).contains(&w_bg));
        let dim = self.dim;
        let mut means = self.means.clone();
        means.extend(std::iter::repeat_n(0.0f32, dim));
        let mut vars: Vec<f32> = self.inv_vars.iter().map(|iv| 1.0 / iv).collect();
        vars.extend(std::iter::repeat_n(var_scale, dim));
        let mut weights: Vec<f32> = self.weights.iter().map(|w| w * (1.0 - w_bg)).collect();
        weights.push(w_bg);
        Self::from_params(means, vars, weights, dim)
    }

    /// Build from explicit parameters (weights need not be normalized).
    /// Panics outside `1..=`[`MAX_MIX`] components: what can be built can be
    /// saved, loaded and scored on both paths.
    pub fn from_params(means: Vec<f32>, vars: Vec<f32>, weights: Vec<f32>, dim: usize) -> DiagGmm {
        let num_mix = weights.len();
        assert!(
            (1..=MAX_MIX).contains(&num_mix),
            "a GMM has 1..={MAX_MIX} components, not {num_mix}"
        );
        assert_eq!(means.len(), num_mix * dim);
        assert_eq!(vars.len(), num_mix * dim);
        let wsum: f32 = weights.iter().sum();
        let norm_weights: Vec<f32> = weights.iter().map(|w| (w / wsum).max(1e-10)).collect();
        let ln2pi = (2.0 * std::f32::consts::PI).ln();
        let mut inv_vars = Vec::with_capacity(num_mix * dim);
        let mut log_consts = Vec::with_capacity(num_mix);
        for c in 0..num_mix {
            let mut log_det = 0.0f32;
            for d in 0..dim {
                let v = vars[c * dim + d].max(VAR_FLOOR);
                inv_vars.push(1.0 / v);
                log_det += v.ln();
            }
            log_consts
                .push((weights[c] / wsum).max(1e-10).ln() - 0.5 * (dim as f32 * ln2pi + log_det));
        }
        DiagGmm {
            dim,
            num_mix,
            means,
            inv_vars,
            log_consts,
            weights: norm_weights,
        }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn num_mix(&self) -> usize {
        self.num_mix
    }

    /// Per-component constants `ln w_m − ½ Σ_d ln(2π σ²_{m,d})`.
    pub(crate) fn log_consts(&self) -> &[f32] {
        &self.log_consts
    }

    /// Normalized mixture weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Log-likelihood of one frame: `ln Σ_m w_m N(x; μ_m, σ²_m)`.
    pub fn log_likelihood(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.dim);
        let mut max = f32::NEG_INFINITY;
        // On the stack for every trained shape; a wider model pays an
        // allocation per frame here and should be scored in blocks.
        let mut stack = [0f32; 16];
        let mut heap = Vec::new();
        let comps = match stack.get_mut(..self.num_mix) {
            Some(comps) => comps,
            None => {
                heap.resize(self.num_mix, 0f32);
                &mut heap[..]
            }
        };
        for (c, slot) in comps.iter_mut().enumerate() {
            let mu = &self.means[c * self.dim..(c + 1) * self.dim];
            let iv = &self.inv_vars[c * self.dim..(c + 1) * self.dim];
            let mut q = 0.0f32;
            for d in 0..self.dim {
                let diff = x[d] - mu[d];
                q += diff * diff * iv[d];
            }
            let l = self.log_consts[c] - 0.5 * q;
            *slot = l;
            if l > max {
                max = l;
            }
        }
        // Log-sum-exp.
        let mut sum = 0.0f32;
        for &l in comps.iter() {
            sum += (l - max).exp();
        }
        max + sum.ln()
    }

    /// Log-likelihood of every frame in a **transposed** block, written to
    /// `out` (`n = out.len()` frames, laid out by [`transpose_block`]:
    /// `ft[d · stride + t]` holds dimension `d` of frame `t`, `stride` being
    /// `n` rounded up to a multiple of 8).
    ///
    /// Two stages: [`DiagGmm::fill_comps_block_t`] computes every
    /// component's log term with the frames of one dimension as the
    /// innermost, unit-stride loop, then [`lse_rows`] folds them into one
    /// log-sum-exp per frame. Per frame, the distance accumulation order
    /// over `d` and the sum's order over components are exactly
    /// [`DiagGmm::log_likelihood`]'s, and the tail's `expf` / `lnf` return
    /// libm's bits, so the output is bit-identical to the per-frame path.
    /// The caller transposes a frame block once and reuses it across every
    /// state's GMM.
    ///
    /// `comps` is caller-owned scratch (resized internally) holding the
    /// per-component log terms, `num_mix × n`.
    pub fn log_likelihood_block_t(&self, ft: &[f32], comps: &mut Vec<f32>, out: &mut [f32]) {
        let n = out.len();
        self.fill_comps_block_t(ft, comps, n);
        lse_rows(comps, self.num_mix, out);
    }

    /// Per-component log terms for a transposed block of `n` frames (laid
    /// out by [`transpose_block`]), `comps[c · n + t] = log_const_c −
    /// q_c(t)/2`: the Mahalanobis distance accumulation, first stage of
    /// [`DiagGmm::log_likelihood_block_t`] (public so the kernel bench can
    /// time it apart from the log-sum-exp tail).
    pub fn fill_comps_block_t(&self, ft: &[f32], comps: &mut Vec<f32>, n: usize) {
        // Every element is written below.
        comps.resize(self.num_mix * n, 0.0);
        self.fill_rows_block_t(ft, comps, n, &ALL_ROWS[..self.num_mix], &self.log_consts);
    }

    /// [`DiagGmm::fill_comps_block_t`] for the components in `rows` only,
    /// with the log-constants `consts[c]` (the GMM's own, or [`NEG_ZEROS`]):
    /// `comps[c · n + t] = consts[c] − q_c(t)/2` for every `c` in `rows`,
    /// every other row left as it is.
    ///
    /// A register block of up to 3 components × {4, 2, 1} groups of 8
    /// frames walks the dimensions, each frame's `q` chain running
    /// in its own lane of a local accumulator — never through `comps` — so
    /// a block of any length keeps several independent vector chains. The
    /// arms are picked from the component count and the groups left, so a
    /// 9-component state runs as 3 + 3 + 3 and an 11-frame block as one
    /// pair of groups. Lanes past `n` read the padding and are never
    /// stored.
    pub(crate) fn fill_rows_block_t(
        &self,
        ft: &[f32],
        comps: &mut [f32],
        n: usize,
        rows: &[usize],
        consts: &[f32],
    ) {
        debug_assert_eq!(ft.len(), n.next_multiple_of(LANES) * self.dim);
        for cs in rows.chunks(3) {
            match *cs {
                [a] => self.fill_comps([a], ft, comps, n, consts),
                [a, b] => self.fill_comps([a, b], ft, comps, n, consts),
                [a, b, c] => self.fill_comps([a, b, c], ft, comps, n, consts),
                _ => unreachable!("chunks of 1..=3"),
            }
        }
    }

    /// Components `cs` of every frame.
    #[inline(always)]
    fn fill_comps<const C: usize>(
        &self,
        cs: [usize; C],
        ft: &[f32],
        comps: &mut [f32],
        n: usize,
        consts: &[f32],
    ) {
        let groups = n.div_ceil(LANES);
        let mut g0 = 0;
        while g0 < groups {
            g0 += match groups - g0 {
                1 => self.fill_block::<C, 1>(cs, ft, comps, n, consts, g0),
                2 | 3 => self.fill_block::<C, 2>(cs, ft, comps, n, consts, g0),
                _ => self.fill_block::<C, 4>(cs, ft, comps, n, consts, g0),
            };
        }
    }

    /// The register block: components `cs` of the `G · LANES` frames from
    /// group `g0`; returns `G`.
    #[inline(always)]
    fn fill_block<const C: usize, const G: usize>(
        &self,
        cs: [usize; C],
        ft: &[f32],
        comps: &mut [f32],
        n: usize,
        consts: &[f32],
        g0: usize,
    ) -> usize {
        let (dim, stride) = (self.dim, n.next_multiple_of(LANES));
        let t0 = g0 * LANES;
        // On a cache-line boundary, as `gemm_xwt_f32`'s block: whatever the
        // compiler leaves in memory must not split lines by caller depth.
        #[repr(align(64))]
        struct Acc<const C: usize, const G: usize>([[[f32; LANES]; G]; C]);
        let Acc(acc) = &mut Acc([[[0.0f32; LANES]; G]; C]);
        let means = cs.map(|c| &self.means[c * dim..][..dim]);
        let inv_vars = cs.map(|c| &self.inv_vars[c * dim..][..dim]);
        for d in 0..dim {
            let col = &ft[d * stride + t0..][..G * LANES];
            for ((mu, iv), groups) in means.iter().zip(&inv_vars).zip(acc.iter_mut()) {
                let (mu, iv) = (mu[d], iv[d]);
                for (q, xs) in groups.iter_mut().zip(col.chunks_exact(LANES)) {
                    let xs: [f32; LANES] = xs.try_into().expect("LANES frames");
                    for (q, x) in q.iter_mut().zip(xs) {
                        let diff = x - mu;
                        *q += diff * diff * iv;
                    }
                }
            }
        }
        for (&c, groups) in cs.iter().zip(acc.iter()) {
            let log_const = consts[c];
            let crow = &mut comps[c * n..(c + 1) * n];
            // Whole groups are fixed-size stores. Only the block's last
            // group can reach past `n`; its variable-length copy (a `memcpy`
            // call) comes after the loop, since as the other arm of a branch
            // in it the two copies merge into one `memcpy` that every group
            // pays. Indices stay constants: a computed one keeps `acc` in
            // memory through the `d` loop.
            for (g, q) in groups.iter().enumerate() {
                let t = t0 + g * LANES;
                debug_assert!(g == G - 1 || t + LANES <= n);
                if t + LANES <= n {
                    crow[t..t + LANES].copy_from_slice(&q.map(|q| log_const - 0.5 * q));
                }
            }
            let t = t0 + (G - 1) * LANES;
            if t + LANES > n {
                let l = groups[G - 1].map(|q| log_const - 0.5 * q);
                crow[t..].copy_from_slice(&l[..n - t]);
            }
        }
        G
    }

    /// The log term of component `c` of every frame from `half_dist`, that
    /// row filled with [`NEG_ZEROS`] (exactly `−q_c(t)/2`, possibly by
    /// another GMM carrying the same row): `comps[c · n + t] = log_const_c +
    /// half_dist[t]`, which is `log_const_c − q_c(t)/2` bit for bit — `x +
    /// (−y)` is `x − y` in IEEE arithmetic, and `−0 − y` is `−y` for every
    /// `y`, signed zeros included.
    pub(crate) fn add_log_const(&self, c: usize, half_dist: &[f32], comps: &mut [f32]) {
        let n = half_dist.len();
        let log_const = self.log_consts[c];
        for (l, &h) in comps[c * n..(c + 1) * n].iter_mut().zip(half_dist) {
            *l = log_const + h;
        }
    }

    /// Whether component `c` of `self` and component `k` of `other` have the
    /// same mean and inverse variance, bit for bit.
    pub(crate) fn same_component(&self, c: usize, other: &DiagGmm, k: usize) -> bool {
        let d = self.dim;
        let (a, b) = (c * d..(c + 1) * d, k * d..(k + 1) * d);
        d == other.dim
            && (self.means[a.clone()].iter().zip(&other.means[b.clone()]))
                .chain(self.inv_vars[a].iter().zip(&other.inv_vars[b]))
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Mixture posteriors for one frame (responsibilities), written to `out`.
    pub fn posteriors(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_mix);
        let mut max = f32::NEG_INFINITY;
        for (c, o) in out.iter_mut().enumerate() {
            let mu = &self.means[c * self.dim..(c + 1) * self.dim];
            let iv = &self.inv_vars[c * self.dim..(c + 1) * self.dim];
            let mut q = 0.0f32;
            for d in 0..self.dim {
                let diff = x[d] - mu[d];
                q += diff * diff * iv[d];
            }
            *o = self.log_consts[c] - 0.5 * q;
            max = max.max(*o);
        }
        let mut sum = 0.0f32;
        for o in out.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

/// The exact log-sum-exp tail: `out[t] = max_t + ln Σ_c expf(l_c(t) − max_t)`
/// over the `k × n` component rows in `comps` (`n = out.len()`), the sum
/// taken in component order — bit-identical to the scalar loop
///
/// ```text
/// max = −∞;  for c { if l_c > max { max = l_c } }
/// sum = 0.0; for c { sum += expf(l_c − max) }
/// out = max + lnf(sum)
/// ```
///
/// of [`DiagGmm::log_likelihood`]. It is that loop turned inside out: four
/// dense unit-stride passes over the frames (max, `expf` of every shifted
/// term, sum, `lnf`), with [`lre_linalg::expf_in_place`] and
/// [`lre_linalg::lnf_in_place`] — which return `f32::exp`'s and `f32::ln`'s
/// bits for every input — in place of a libm call per term. No term is
/// skipped, so there is nothing to prove about which terms could have been.
/// Row 0 doubles as the accumulator: the scalar loop's first step,
/// `0.0 + expf(x)`, is `expf(x)` itself for everything `expf` returns.
pub(crate) fn lse_rows(comps: &mut [f32], k: usize, out: &mut [f32]) {
    let n = out.len();
    debug_assert_eq!(comps.len(), k * n);
    out.fill(f32::NEG_INFINITY);
    if comps.is_empty() {
        return; // No frame, or no component: the scalar loop's `−∞ + lnf(0.0)`.
    }
    // Strict `>` never picks a NaN, as the scalar loop's `if l > max`.
    for row in comps.chunks_exact(n) {
        for (mx, &l) in out.iter_mut().zip(row) {
            *mx = if l > *mx { l } else { *mx };
        }
    }
    for row in comps.chunks_exact_mut(n) {
        for (v, &mx) in row.iter_mut().zip(out.iter()) {
            *v -= mx;
        }
    }
    lre_linalg::expf_in_place(comps);
    let (sums, rest) = comps.split_at_mut(n);
    for row in rest.chunks_exact(n) {
        for (s, &e) in sums.iter_mut().zip(row) {
            *s += e;
        }
    }
    lre_linalg::lnf_in_place(sums);
    for (o, &ln) in out.iter_mut().zip(sums.iter()) {
        *o += ln;
    }
}

// The derived fields (`inv_vars`, `log_consts`) are persisted directly
// rather than re-derived through `from_params` on load: recomputing the
// reciprocals/logs would round differently and break the bit-identical
// save→load→score contract.
impl lre_artifact::ArtifactWrite for DiagGmm {
    const KIND: [u8; 4] = *b"GMM0";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_u32(self.dim as u32);
        w.put_u32(self.num_mix as u32);
        w.put_f32_slice(&self.means);
        w.put_f32_slice(&self.inv_vars);
        w.put_f32_slice(&self.log_consts);
        w.put_f32_slice(&self.weights);
    }
}

impl lre_artifact::ArtifactRead for DiagGmm {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<DiagGmm, lre_artifact::ArtifactError> {
        use lre_artifact::ArtifactError;
        let dim = r.get_u32()? as usize;
        let num_mix = r.get_u32()? as usize;
        let means = r.get_f32_slice()?;
        let inv_vars = r.get_f32_slice()?;
        let log_consts = r.get_f32_slice()?;
        let weights = r.get_f32_slice()?;
        // `from_params`' rule: nothing outside it came from `write_payload`.
        if dim == 0 || !(1..=MAX_MIX).contains(&num_mix) {
            return Err(ArtifactError::Corrupt("GMM shape out of range"));
        }
        if means.len() != num_mix * dim
            || inv_vars.len() != num_mix * dim
            || log_consts.len() != num_mix
            || weights.len() != num_mix
        {
            return Err(ArtifactError::Corrupt("GMM parameter lengths disagree"));
        }
        Ok(DiagGmm {
            dim,
            num_mix,
            means,
            inv_vars,
            log_consts,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    /// Two well-separated clusters in 2-D.
    fn two_cluster_data(n_each: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut data = Vec::with_capacity(n_each * 4);
        for i in 0..2 * n_each {
            let center = if i < n_each { (-3.0, -3.0) } else { (3.0, 3.0) };
            data.push(center.0 + rng.random::<f32>() - 0.5);
            data.push(center.1 + rng.random::<f32>() - 0.5);
        }
        data
    }

    #[test]
    fn single_gaussian_matches_closed_form() {
        // Unit Gaussian at 0: ll(0) = -d/2 ln(2π).
        let g = DiagGmm::from_params(vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0], 2);
        let expect = -(2.0 * std::f32::consts::PI).ln();
        assert!((g.log_likelihood(&[0.0, 0.0]) - expect).abs() < 1e-5);
        // One std away in one dim: subtract 1/2.
        assert!((g.log_likelihood(&[1.0, 0.0]) - (expect - 0.5)).abs() < 1e-5);
    }

    #[test]
    fn em_finds_two_clusters() {
        let mut r = rng();
        let data = two_cluster_data(200, &mut r);
        let g = DiagGmm::train(&data, 2, 2, 5, &mut r);
        // Each cluster center should be near (±3, ±3).
        let m0 = &g.means[0..2];
        let m1 = &g.means[2..4];
        let near = |m: &[f32], c: f32| (m[0] - c).abs() < 0.7 && (m[1] - c).abs() < 0.7;
        assert!(
            (near(m0, -3.0) && near(m1, 3.0)) || (near(m0, 3.0) && near(m1, -3.0)),
            "means: {m0:?} {m1:?}"
        );
    }

    #[test]
    fn training_data_scores_higher_than_outliers() {
        let mut r = rng();
        let data = two_cluster_data(100, &mut r);
        let g = DiagGmm::train(&data, 2, 2, 5, &mut r);
        assert!(g.log_likelihood(&[3.0, 3.0]) > g.log_likelihood(&[30.0, -40.0]) + 10.0);
    }

    #[test]
    fn posteriors_sum_to_one() {
        let mut r = rng();
        let data = two_cluster_data(100, &mut r);
        let g = DiagGmm::train(&data, 2, 4, 3, &mut r);
        let mut p = vec![0.0; g.num_mix()];
        g.posteriors(&[0.5, -0.5], &mut p);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_data_gives_usable_fallback() {
        let g = DiagGmm::train(&[], 3, 4, 5, &mut rng());
        assert_eq!(g.num_mix(), 1);
        assert!(g.log_likelihood(&[0.0, 0.0, 0.0]).is_finite());
    }

    #[test]
    fn mixtures_clamped_to_sample_count() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0]; // 2 frames of dim 2
        let g = DiagGmm::train(&data, 2, 8, 2, &mut rng());
        assert!(g.num_mix() <= 2);
    }

    #[test]
    fn em_improves_or_maintains_total_likelihood() {
        let mut r = rng();
        let data = two_cluster_data(150, &mut r);
        let total_ll = |g: &DiagGmm| -> f64 {
            (0..data.len() / 2)
                .map(|i| g.log_likelihood(&data[i * 2..i * 2 + 2]) as f64)
                .sum()
        };
        let mut r1 = rng();
        let g0 = DiagGmm::train(&data, 2, 2, 0, &mut r1);
        let mut r2 = rng();
        let g5 = DiagGmm::train(&data, 2, 2, 5, &mut r2);
        assert!(
            total_ll(&g5) >= total_ll(&g0) - 1e-3,
            "{} vs {}",
            total_ll(&g5),
            total_ll(&g0)
        );
    }

    #[test]
    fn shapes_outside_the_mixture_bound_are_refused_on_load() {
        use lre_artifact::{ArtifactError, ArtifactRead, ArtifactWrite};
        let mut g = DiagGmm::from_params(vec![0.0], vec![1.0], vec![1.0], 1);
        for num_mix in [0, MAX_MIX + 1] {
            g.num_mix = num_mix;
            let got = DiagGmm::from_artifact_bytes(&g.to_artifact_bytes());
            assert!(matches!(got, Err(ArtifactError::Corrupt(_))), "{num_mix}");
        }
    }
}

#[cfg(test)]
mod lse_tests {
    use super::*;

    /// The scalar tail [`lse_rows`] replaced: one libm call per term.
    fn lse_rows_reference(comps: &[f32], k: usize, out: &mut [f32]) {
        let n = out.len();
        for (t, o) in out.iter_mut().enumerate() {
            let mut max = f32::NEG_INFINITY;
            for c in 0..k {
                let l = comps[c * n + t];
                if l > max {
                    max = l;
                }
            }
            let mut sum = 0.0f32;
            for c in 0..k {
                sum += (comps[c * n + t] - max).exp();
            }
            *o = max + sum.ln();
        }
    }

    /// Runs every frame (one `Vec` of `k` component terms each) through
    /// both tails and compares bits.
    fn assert_tails_agree(frames: &[Vec<f32>]) {
        let n = frames.len();
        let k = frames[0].len();
        let mut comps = vec![0.0f32; k * n];
        for (t, f) in frames.iter().enumerate() {
            assert_eq!(f.len(), k);
            for (c, &l) in f.iter().enumerate() {
                comps[c * n + t] = l;
            }
        }
        let mut want = vec![0.0f32; n];
        lse_rows_reference(&comps, k, &mut want);
        let mut got = vec![0.0f32; n];
        lse_rows(&mut comps, k, &mut got);
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            // Rust leaves the sign and payload of a NaN result unspecified
            // (with two NaN operands the hardware keeps whichever the
            // compiler put first), so NaN only has to meet NaN.
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "frame {t} of {n}, terms {:?}: {g} vs {w}",
                frames[t]
            );
        }
    }

    fn lcg(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 40) as f32 / (1u64 << 24) as f32
    }

    fn ulps_from(x: f32, ulps: i32) -> f32 {
        f32::from_bits((x.to_bits() as i32 + ulps) as u32)
    }

    // ---- The tail against the scalar loop, one input family at a time. ----

    const KS: [usize; 5] = [1, 2, 9, 16, 17];

    /// `k` terms at `max + x` for each `x`, the maximum (`x = 0`) placed
    /// at `argmax` and the other offsets filling the remaining slots in
    /// order (cycled if there are fewer than `k − 1`).
    fn spread(k: usize, argmax: usize, max: f32, others: &[f32]) -> Vec<f32> {
        let mut it = others.iter().cycle();
        (0..k)
            .map(|c| {
                if c == argmax {
                    max
                } else {
                    max + *it.next().unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn equal_terms_and_ties_at_the_max() {
        for k in KS {
            let mut frames = vec![vec![-57.25f32; k], vec![0.0; k], vec![-1e30; k]];
            // Ties at the max in the first and last position, over floors
            // from "adds visibly" to "underflows to zero".
            for floor in [-3.0f32, -17.5, -50.0, -103.0, -105.0] {
                let mut f = vec![-41.5 + floor; k];
                f[0] = -41.5;
                f[k - 1] = -41.5;
                frames.push(f.clone());
                f[0] = -41.5 + floor;
                f[k / 2] = -41.5;
                frames.push(f);
            }
            assert_tails_agree(&frames);
        }
    }

    #[test]
    fn max_at_either_end_with_terms_across_every_threshold() {
        // Offsets straddling, by a few ulps, −17.4 (`expf` drops below half
        // an ulp of 1.0), −104 (`expf` is zero) and −87.34 (`expf` turns
        // subnormal), and inside the subnormal band.
        let mut offsets = vec![-0.5f32, -5.0, -16.0, -30.0, -86.0, -88.5, -95.0, -103.5];
        for t in [-17.4, -104.0, -87.336_55] {
            offsets.extend((-3..=3).map(|u| ulps_from(t, u)));
        }
        for k in KS {
            let mut frames = Vec::new();
            for argmax in [0, k / 2, k - 1] {
                // Every offset alone (repeated in all other slots) …
                for &x in &offsets {
                    // … at a max where `max + x − max` is exactly `x`.
                    frames.push(spread(k, argmax, 0.0, &[x]));
                    frames.push(spread(k, argmax, -63.0, &[x]));
                }
                // … and all of them rotated through the slots.
                for r in 0..offsets.len() {
                    let mut rot = offsets.clone();
                    rot.rotate_left(r);
                    frames.push(spread(k, argmax, -12.75, &rot));
                }
            }
            assert_tails_agree(&frames);
        }
    }

    /// Order matters: ahead of the max the running sum is far below 1.0, so
    /// terms of 2⁻²⁶ … 2⁻³⁰ accumulate and shift the rounding of a mid-sized
    /// term that follows them, where after the max they would vanish.
    #[test]
    fn small_terms_ahead_of_a_mid_sized_one_ahead_of_the_max() {
        for k in [9usize, 16, 17] {
            let mut frames = Vec::new();
            for small in [-17.5f32, -18.0, -19.3, -20.7] {
                for mid in [-0.3f32, -2.0, -9.0, -15.0] {
                    let mut f = vec![small; k];
                    f[k - 2] = mid;
                    f[k - 1] = 0.0;
                    frames.push(f.clone());
                    // The same terms after the max change nothing.
                    f.reverse();
                    frames.push(f);
                }
            }
            assert_tails_agree(&frames);
        }
        // Not vacuous: dropping the small terms ahead of the max changes
        // the result.
        let mut f = vec![-17.5f32; 17];
        f[15] = -15.0;
        f[16] = 0.0;
        let mut with = [0.0f32];
        lse_rows_reference(&f, 17, &mut with);
        let mut without = [0.0f32];
        lse_rows_reference(&f[15..], 2, &mut without);
        assert_ne!(with[0].to_bits(), without[0].to_bits());
    }

    #[test]
    fn random_spreads_at_every_block_length() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for k in KS {
            for n in [1usize, 63, 64, 65, 750] {
                let frames: Vec<Vec<f32>> = (0..n)
                    .map(|_| {
                        // Per-frame scale: from "nothing underflows" to
                        // "nearly everything does".
                        let scale =
                            [2.0f32, 20.0, 60.0, 150.0, 400.0][(lcg(&mut state) * 5.0) as usize];
                        let base = -80.0 * lcg(&mut state);
                        (0..k).map(|_| base - scale * lcg(&mut state)).collect()
                    })
                    .collect();
                assert_tails_agree(&frames);
            }
        }
    }

    #[test]
    fn nan_and_infinite_terms_propagate_as_in_the_scalar_loop() {
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for k in KS {
            let mut frames = Vec::new();
            for s in specials {
                frames.push(vec![s; k]);
                for at in [0, k / 2, k - 1] {
                    for floor in [-2.0f32, -40.0, -200.0] {
                        let mut f = spread(k, k / 3, -7.5, &[floor, -1.0]);
                        f[at] = s;
                        frames.push(f);
                    }
                }
            }
            let mut mixed = vec![-3.0f32; k];
            mixed[0] = f32::NEG_INFINITY;
            mixed[k - 1] = f32::NAN;
            frames.push(mixed);
            assert_tails_agree(&frames);
        }
    }

    /// `num_mix = 17` (16 trained components `with_background`) is past the
    /// per-frame path's stack buffer: it scores there as on the block path,
    /// and again after a save → load round trip.
    #[test]
    fn seventeen_mixtures_round_trip_and_score_on_both_paths() {
        use lre_artifact::{ArtifactRead, ArtifactWrite};
        let (dim, n) = (3, 130);
        let mut state = 7u64;
        let means: Vec<f32> = (0..16 * dim)
            .map(|_| 16.0 * lcg(&mut state) - 8.0)
            .collect();
        let vars: Vec<f32> = (0..16 * dim).map(|_| 0.1 + lcg(&mut state)).collect();
        let built =
            DiagGmm::from_params(means, vars, vec![1.0; 16], dim).with_background(0.08, 3.0);
        assert_eq!(built.num_mix(), 17);
        let loaded = DiagGmm::from_artifact_bytes(&built.to_artifact_bytes()).expect("loads");

        let frames: Vec<f32> = (0..n * dim).map(|_| 16.0 * lcg(&mut state) - 8.0).collect();
        let mut ft = Vec::new();
        transpose_block(&frames, dim, &mut ft);
        let mut comps = Vec::new();
        let mut block = vec![0.0f32; n];
        for g in [&built, &loaded] {
            g.log_likelihood_block_t(&ft, &mut comps, &mut block);
            for (frame, b) in frames.chunks_exact(dim).zip(&block) {
                let want = built.log_likelihood(frame);
                assert_eq!(g.log_likelihood(frame).to_bits(), want.to_bits());
                assert_eq!(b.to_bits(), want.to_bits());
            }
        }
    }
}
