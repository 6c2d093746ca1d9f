//! Pre-emphasis, framing and windowing.

/// Framing parameters. The paper's setting (§4.1): 25 ms Hamming window
/// every 10 ms at 8 kHz telephone bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameConfig {
    /// Sample rate in Hz.
    pub sample_rate: f32,
    /// Window length in samples.
    pub window_len: usize,
    /// Hop (frame shift) in samples.
    pub hop: usize,
    /// Pre-emphasis coefficient (0 disables).
    pub pre_emphasis: f32,
}

impl Default for FrameConfig {
    fn default() -> Self {
        Self {
            sample_rate: 8000.0,
            window_len: 200,
            hop: 80,
            pre_emphasis: 0.97,
        }
    }
}

impl FrameConfig {
    /// Number of whole frames extractable from `n` samples.
    pub fn num_frames(&self, n: usize) -> usize {
        if n < self.window_len {
            0
        } else {
            (n - self.window_len) / self.hop + 1
        }
    }
}

/// First-order pre-emphasis filter `y[n] = x[n] - a x[n-1]`.
pub fn pre_emphasis(x: &[f32], a: f32) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let mut y = Vec::with_capacity(x.len());
    y.push(x[0]);
    for i in 1..x.len() {
        y.push(x[i] - a * x[i - 1]);
    }
    y
}

/// Hamming window of length `n`.
pub fn hamming_window(n: usize) -> Vec<f32> {
    if n == 1 {
        return vec![1.0];
    }
    (0..n)
        .map(|i| 0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / (n as f32 - 1.0)).cos())
        .collect()
}

/// Cuts a signal into pre-emphasized, Hamming-windowed frames one at a time,
/// with the window tabulated once.
///
/// Frame `f`'s sample `i` is `window[i] · y[f·hop + i]` with `y` the
/// [`pre_emphasis`] of the whole signal — evaluated per frame from the raw
/// samples (`y[n]` needs only `x[n]` and `x[n-1]`), so no emphasized copy and
/// no `num_frames × window_len` buffer of the utterance exists.
#[derive(Clone, Debug)]
pub struct Framer {
    cfg: FrameConfig,
    window: Vec<f32>,
}

impl Framer {
    pub fn new(cfg: FrameConfig) -> Framer {
        assert!(cfg.window_len > 0 && cfg.hop > 0, "degenerate framing");
        Framer {
            cfg,
            window: hamming_window(cfg.window_len),
        }
    }

    pub fn config(&self) -> &FrameConfig {
        &self.cfg
    }

    /// Windowed frame `f` of `signal` into `out` (`len == window_len`);
    /// `f < config().num_frames(signal.len())`.
    pub fn frame_into(&self, signal: &[f32], f: usize, out: &mut [f32]) {
        let start = f * self.cfg.hop;
        let x = &signal[start..start + self.cfg.window_len];
        assert_eq!(out.len(), x.len(), "one output per window sample");
        let a = self.cfg.pre_emphasis;
        if a == 0.0 {
            for ((o, &w), &s) in out.iter_mut().zip(&self.window).zip(x) {
                *o = w * s;
            }
            return;
        }
        // The signal's very first sample has no predecessor and passes
        // through; every other frame start has one just before the frame.
        out[0] = self.window[0]
            * match start.checked_sub(1) {
                Some(prev) => x[0] - a * signal[prev],
                None => x[0],
            };
        for ((o, &w), s) in out[1..].iter_mut().zip(&self.window[1..]).zip(x.windows(2)) {
            *o = w * (s[1] - a * s[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_frames_formula() {
        let cfg = FrameConfig {
            sample_rate: 8000.0,
            window_len: 200,
            hop: 80,
            pre_emphasis: 0.0,
        };
        assert_eq!(cfg.num_frames(199), 0);
        assert_eq!(cfg.num_frames(200), 1);
        assert_eq!(cfg.num_frames(280), 2);
        assert_eq!(cfg.num_frames(8000), (8000 - 200) / 80 + 1);
    }

    #[test]
    fn pre_emphasis_dc_removal() {
        // A constant signal should be almost annihilated (except first sample).
        let y = pre_emphasis(&[1.0; 10], 1.0);
        assert_eq!(y[0], 1.0);
        for &v in &y[1..] {
            assert!(v.abs() < 1e-7);
        }
    }

    #[test]
    fn hamming_endpoints_and_symmetry() {
        let w = hamming_window(11);
        assert!((w[0] - 0.08).abs() < 1e-6);
        assert!((w[10] - 0.08).abs() < 1e-6);
        assert!((w[5] - 1.0).abs() < 1e-6);
        for i in 0..w.len() {
            assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn framer_applies_the_window_at_each_hop() {
        let cfg = FrameConfig {
            sample_rate: 8000.0,
            window_len: 4,
            hop: 2,
            pre_emphasis: 0.0,
        };
        let sig = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(cfg.num_frames(sig.len()), 2);
        let framer = Framer::new(cfg);
        let w = hamming_window(4);
        for f in 0..2 {
            let mut frame = [0.0; 4];
            framer.frame_into(&sig, f, &mut frame);
            for (got, want) in frame.iter().zip(&w) {
                assert!((got - want).abs() < 1e-6);
            }
        }
    }

    /// Per-frame emphasis from the raw samples equals windowing the
    /// whole-signal [`pre_emphasis`], bit for bit, at every frame — the
    /// first (no predecessor) included — with and without emphasis.
    #[test]
    fn framer_equals_windowed_whole_signal_pre_emphasis() {
        let signal = crate::testsignal::noise_and_tones(1000, 3);
        for a in [0.97, 0.0] {
            let cfg = FrameConfig {
                pre_emphasis: a,
                ..FrameConfig::default()
            };
            let emphasized = if a != 0.0 {
                pre_emphasis(&signal, a)
            } else {
                signal.clone()
            };
            let framer = Framer::new(cfg);
            let window = hamming_window(cfg.window_len);
            let mut frame = vec![0.0; cfg.window_len];
            assert_eq!(cfg.num_frames(signal.len()), 11);
            for f in 0..11 {
                framer.frame_into(&signal, f, &mut frame);
                for (i, got) in frame.iter().enumerate() {
                    let want = window[i] * emphasized[f * cfg.hop + i];
                    assert_eq!(got.to_bits(), want.to_bits(), "a {a} frame {f} sample {i}");
                }
            }
        }
    }

    #[test]
    fn empty_signal_is_fine() {
        assert_eq!(FrameConfig::default().num_frames(0), 0);
        assert!(pre_emphasis(&[], 0.97).is_empty());
    }
}
