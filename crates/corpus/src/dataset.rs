//! Dataset assembly: train/dev/test splits with controlled mismatch.

use crate::channel::Channel;
use crate::language::{all_languages, gaussian, LanguageId, LanguageModel};
use crate::rng::DeriveRng;
use crate::utterance::{test_pool_seed, UttSpec};
use rand::RngExt;

/// Nominal test-segment durations of NIST LRE 2009. The reproduction runs a
/// 4× time-compressed clock (see DESIGN.md): frame counts keep the paper's
/// 10:1 ratio structure (750/250/75 frames) so the EER-vs-duration ordering
/// is preserved while the corpus stays laptop-renderable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Duration {
    S30,
    S10,
    S3,
}

impl Duration {
    pub fn all() -> [Duration; 3] {
        [Duration::S30, Duration::S10, Duration::S3]
    }

    /// Frame budget for the nominal duration.
    pub fn frames(&self) -> usize {
        match self {
            Duration::S30 => 750,
            Duration::S10 => 250,
            Duration::S3 => 75,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Duration::S30 => "30s",
            Duration::S10 => "10s",
            Duration::S3 => "3s",
        }
    }
}

/// A `--duration` argument: `30s`, `10s` or `3s`.
impl std::str::FromStr for Duration {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Duration, Self::Err> {
        Duration::all()
            .into_iter()
            .find(|d| d.name() == s)
            .ok_or("expected 30s|10s|3s")
    }
}

/// Corpus size presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: CI-speed sanity runs.
    Smoke,
    /// Default for the table-regeneration binaries.
    Demo,
    /// Largest preset; closest in spirit to the 41,793-segment evaluation.
    Paper,
}

impl Scale {
    /// (train utts/lang, test utts/lang/duration, dev utts/lang, AM-train utts/recognizer-lang)
    fn sizes(&self) -> (usize, usize, usize, usize) {
        match self {
            Scale::Smoke => (8, 6, 6, 60),
            Scale::Demo => (18, 40, 15, 240),
            Scale::Paper => (45, 90, 21, 420),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Demo => "demo",
            Scale::Paper => "paper",
        }
    }
}

/// A `--scale` argument: `smoke`, `demo` or `paper`.
impl std::str::FromStr for Scale {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "demo" => Ok(Scale::Demo),
            "paper" => Ok(Scale::Paper),
            _ => Err("expected smoke|demo|paper"),
        }
    }
}

/// Configuration for dataset generation.
#[derive(Clone, Copy, Debug)]
pub struct DatasetConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Training-utterance length in frames (conversation excerpts).
    pub train_frames: usize,
    /// AM-training utterance length in frames.
    pub am_frames: usize,
}

impl DatasetConfig {
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            train_frames: 300,
            am_frames: 200,
        }
    }
}

/// A fully specified dataset. Utterances are [`UttSpec`]s; call
/// [`crate::render_utterance`] to materialize audio.
///
/// The mismatch structure (the thing DBA exploits):
/// - train: training-pool speakers, CTS channel, SNR ≈ N(22 dB, 3);
/// - test: *test-pool* speakers (disjoint, shifted population), 60 % CTS at
///   SNR ≈ N(15, 4) + 40 % VOA at SNR ≈ N(18, 4);
/// - dev: training-pool speakers but test-like channel mix (for backend
///   calibration, mirroring the paper's LRE03/05/07+VOA dev set).
#[derive(Clone, Debug)]
pub struct Dataset {
    pub config: DatasetConfig,
    /// All 25 language models (23 targets + HU + CZ).
    pub languages: Vec<LanguageModel>,
    /// VSM training utterances (labelled).
    pub train: Vec<UttSpec>,
    /// Test utterances per duration (labels only used by evaluation).
    pub test: Vec<(Duration, Vec<UttSpec>)>,
    /// Development utterances (labelled; used for backend training).
    pub dev: Vec<UttSpec>,
    /// Per-recognizer-language acoustic-model training utterances.
    pub am_train: Vec<(LanguageId, Vec<UttSpec>)>,
}

impl Dataset {
    /// Generate a dataset deterministically from the config.
    pub fn generate(config: DatasetConfig) -> Dataset {
        let (n_train, n_test, n_dev, n_am) = config.scale.sizes();
        let languages = all_languages(config.seed);
        let root = DeriveRng::new(config.seed);

        let mut train = Vec::new();
        let mut dev = Vec::new();
        let mut test: Vec<(Duration, Vec<UttSpec>)> =
            Duration::all().iter().map(|&d| (d, Vec::new())).collect();

        for (li, &lang) in LanguageId::targets().iter().enumerate() {
            let lang_node = root.derive(0xDA7A_0000 + li as u64);
            let mut rng = lang_node.rng();

            // --- Train: CTS, train-pool speakers (a finite pool of 32/lang).
            for u in 0..n_train {
                let speaker_seed = lang_node.derive(10_000 + (u % 32) as u64).0 >> 1;
                let snr = gaussian(&mut rng, 35.0, 2.5).clamp(25.0, 45.0) as f32;
                train.push(UttSpec {
                    language: lang,
                    speaker_seed,
                    channel: Channel::telephone(snr),
                    num_frames: config.train_frames,
                    seed: lang_node.derive(20_000 + u as u64).0,
                });
            }

            // --- Dev: *held-out-pool* speakers (disjoint from both train and
            // test speaker seeds) with the test-like channel mix and test
            // durations cycled across utterances — the role the paper's
            // LRE03/05/07+VOA development data plays: same condition family
            // as the evaluation, different speakers.
            for u in 0..n_dev {
                let speaker_seed = test_pool_seed(
                    0x00DE_0000 + (lang_node.derive(11_000 + (u % 16) as u64).0 >> 2),
                );
                let (channel, _) = test_channel(&mut rng);
                let dur = Duration::all()[u % 3];
                dev.push(UttSpec {
                    language: lang,
                    speaker_seed,
                    channel,
                    num_frames: dur.frames(),
                    seed: lang_node.derive(30_000 + u as u64).0,
                });
            }

            // --- Test: disjoint test-pool speakers, shifted channel mix.
            for (di, (dur, bucket)) in test.iter_mut().enumerate() {
                for u in 0..n_test {
                    let speaker_seed =
                        test_pool_seed(lang_node.derive(12_000 + (u % 48) as u64).0 >> 1);
                    let (channel, _) = test_channel(&mut rng);
                    bucket.push(UttSpec {
                        language: lang,
                        speaker_seed,
                        channel,
                        num_frames: dur.frames(),
                        seed: lang_node.derive(40_000 + (di * 10_000 + u) as u64).0,
                    });
                }
            }
        }

        // --- AM training data: the five recognizer languages.
        let am_langs = [
            LanguageId::Hungarian,
            LanguageId::Russian,
            LanguageId::Czech,
            LanguageId::EnglishAmerican,
            LanguageId::Mandarin,
        ];
        let am_train = am_langs
            .iter()
            .map(|&lang| {
                let node = root.derive(0xAC00_0000 + lang as u64);
                let mut rng = node.rng();
                let utts = (0..n_am)
                    .map(|u| {
                        let snr = gaussian(&mut rng, 35.0, 2.5).clamp(25.0, 45.0) as f32;
                        UttSpec {
                            language: lang,
                            speaker_seed: node.derive(10_000 + (u % 32) as u64).0 >> 1,
                            channel: Channel::telephone(snr),
                            num_frames: config.am_frames,
                            seed: node.derive(20_000 + u as u64).0,
                        }
                    })
                    .collect();
                (lang, utts)
            })
            .collect();

        Dataset {
            config,
            languages,
            train,
            test,
            dev,
            am_train,
        }
    }

    /// Language model lookup by id.
    pub fn language(&self, id: LanguageId) -> &LanguageModel {
        self.languages
            .iter()
            .find(|l| l.id == id)
            .expect("all languages are generated")
    }

    /// Test bucket for a duration.
    pub fn test_set(&self, dur: Duration) -> &[UttSpec] {
        &self
            .test
            .iter()
            .find(|(d, _)| *d == dur)
            .expect("all durations present")
            .1
    }
}

/// Sample a test-condition channel: 60 % CTS at lower SNR, 40 % VOA.
fn test_channel<R: RngExt>(rng: &mut R) -> (Channel, bool) {
    if rng.random::<f32>() < 0.6 {
        let snr = gaussian(rng, 31.0, 2.0).clamp(24.0, 40.0) as f32;
        (Channel::telephone(snr), false)
    } else {
        let snr = gaussian(rng, 33.0, 2.0).clamp(24.0, 40.0) as f32;
        (Channel::broadcast(snr), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dataset_shape() {
        let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 1));
        assert_eq!(ds.train.len(), 23 * 8);
        assert_eq!(ds.dev.len(), 23 * 6);
        for (d, bucket) in &ds.test {
            assert_eq!(bucket.len(), 23 * 6, "{}", d.name());
            assert!(bucket.iter().all(|u| u.num_frames == d.frames()));
        }
        assert_eq!(ds.am_train.len(), 5);
        assert!(ds.am_train.iter().all(|(_, v)| v.len() == 60));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetConfig::new(Scale::Smoke, 5));
        let b = Dataset::generate(DatasetConfig::new(Scale::Smoke, 5));
        assert_eq!(a.train, b.train);
        assert_eq!(a.test_set(Duration::S3), b.test_set(Duration::S3));
    }

    #[test]
    fn train_and_test_speaker_pools_are_disjoint() {
        let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 2));
        // Test speakers carry the pool bit; train speakers never do.
        assert!(ds.train.iter().all(|u| u.speaker_seed & (1 << 63) == 0));
        for (_, bucket) in &ds.test {
            assert!(bucket.iter().all(|u| u.speaker_seed & (1 << 63) != 0));
        }
    }

    #[test]
    fn test_channels_are_mixed() {
        let ds = Dataset::generate(DatasetConfig::new(Scale::Demo, 3));
        let bucket = ds.test_set(Duration::S30);
        let voa = bucket
            .iter()
            .filter(|u| matches!(u.channel.kind, crate::ChannelKind::Voa))
            .count();
        let frac = voa as f32 / bucket.len() as f32;
        assert!(frac > 0.25 && frac < 0.55, "VOA fraction {frac}");
    }

    #[test]
    fn train_covers_all_targets() {
        let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 4));
        for &lang in LanguageId::targets() {
            assert!(ds.train.iter().any(|u| u.language == lang), "{:?}", lang);
        }
    }

    #[test]
    fn duration_frames_are_the_documented_values() {
        assert_eq!(Duration::S30.frames(), 750);
        assert_eq!(Duration::S10.frames(), 250);
        assert_eq!(Duration::S3.frames(), 75);
    }

    #[test]
    fn scale_parse_roundtrip() {
        for s in [Scale::Smoke, Scale::Demo, Scale::Paper] {
            assert_eq!(s.name().parse(), Ok(s));
        }
        assert!("bogus".parse::<Scale>().is_err());
        for d in Duration::all() {
            assert_eq!(d.name().parse(), Ok(d));
        }
        assert!("30".parse::<Duration>().is_err());
    }
}
