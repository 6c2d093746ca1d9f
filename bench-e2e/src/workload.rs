//! The workload table and the seeded request streams it generates.
//!
//! Every workload is a pure function of `(name, seed, seconds)`: the
//! corpus is always the smoke corpus the fixture bundle was trained on
//! (dataset seed 42), each request takes a test-set `UttSpec` and remixes
//! its `seed` with `(benchmark seed, index)`, so every utterance of every
//! workload has distinct content. A content-keyed cache or the vote log's
//! dedup path can therefore show nothing here.
//!
//! `--seed` varies the content only. The order of utterance lengths and
//! the open-loop phase's arrival times are drawn once, from
//! [`SHAPE_SEED`]: a run sends a few hundred requests, too few for the
//! queueing that one draw causes to average out.

use lre_corpus::{render_utterance, Dataset, DatasetConfig, DeriveRng, Duration, Scale};
use lre_phone::UniversalInventory;
use lre_serve::sample_digest;

/// Dataset seed of the fixture bundle (`lre-train-bundle --seed 42`).
pub const CORPUS_SEED: u64 = 42;

/// Seed of every workload's shape: length order and arrival schedule.
pub const SHAPE_SEED: u64 = 0x5EED_0F5A_A9E5;

/// Independent users: seeded Poisson arrivals at `rate` requests per
/// second for `requests` requests, each with a server-side deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenPhase {
    pub rate: f64,
    pub deadline_ms: u32,
    pub requests: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// `lre-serve --workers 2`.
    Serve,
    /// `lre-router` (least-inflight) → 2 × `lre-serve --fleet --workers 1`.
    Routed,
    /// `lre-adaptd --workers 2 --guard … --wal-dir … --log-capacity 8192`.
    Adaptd,
}

pub struct Workload {
    pub name: &'static str,
    /// One line; `BENCHMARK.json` mirrors it.
    pub why: &'static str,
    /// The timed window is a closed loop (callers that each wait for a
    /// reply): one pipelined connection keeps `window` requests
    /// outstanding.
    pub window: usize,
    /// An open loop run in the traced phase only, after the timed window.
    /// Its latencies are per-layer metrics: on the reference box an open
    /// loop's percentiles spread 40–90 % over seeds whenever the host is
    /// busy, which no end-to-end bound allows (README).
    pub open_phase: Option<OpenPhase>,
    pub topology: Topology,
    /// Utterance lengths, in equal shares.
    pub durations: &'static [Duration],
    /// Requests per second of `--seconds`. A run sends the whole stream,
    /// so both sides of a comparison do identical work; for a closed loop
    /// this is the seed's throughput, so that the seed measures for about
    /// `--seconds`.
    pub stream_rate: usize,
    /// Distinct untimed utterances scored after every spawn.
    pub warmup: usize,
    /// Leading utterances of the stream the traced phase walks and probes.
    pub walk: usize,
}

impl Workload {
    pub fn loop_kind(&self) -> String {
        let closed = format!("closed loop, 1 connection, window {}", self.window);
        match self.open_phase {
            None => closed,
            Some(o) => format!(
                "{closed}; traced: open loop, Poisson {} req/s x {}, deadline {} ms",
                o.rate, o.requests, o.deadline_ms
            ),
        }
    }

    pub fn topology_line(&self) -> &'static str {
        match self.topology {
            Topology::Serve => "lre-serve --workers 2",
            Topology::Routed => "lre-router -> 2 x lre-serve --fleet --workers 1",
            Topology::Adaptd => "lre-adaptd --workers 2 --wal-dir --log-capacity 8192",
        }
    }

    pub fn stream_len(&self, seconds: u64) -> usize {
        self.stream_rate * seconds as usize
    }
}

/// `nproc` is 2 on the reference box: every workload drives one
/// connection from at most two generator threads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "short_direct",
        why: "3 s utterances, window 4, both workers saturated: per-request fixed costs (framing, copies, queue, 2 ms batch window, SVM, fusion) have their largest share",
        window: 4,
        open_phase: None,
        topology: Topology::Serve,
        durations: &[Duration::S3],
        stream_rate: 170,
        warmup: 64,
        walk: 64,
    },
    Workload {
        name: "long_single",
        why: "30 s utterances, window 1, one core idle: feature extraction and emission are >95 % of the time, so kernel and intra-request parallelism work shows and per-request overhead work must not",
        window: 1,
        open_phase: None,
        topology: Topology::Serve,
        durations: &[Duration::S30],
        stream_rate: 9,
        warmup: 8,
        walk: 9,
    },
    Workload {
        name: "mixed_routed",
        why: "30/10/3 s utterances in equal thirds, window 4, via the router to two 1-worker replicas: the only workload with the router splice, replica balance and head-of-line blocking behind a 30 s utterance",
        window: 4,
        open_phase: Some(OpenPhase {
            rate: 8.0,
            deadline_ms: 4000,
            requests: 80,
        }),
        topology: Topology::Routed,
        durations: &[Duration::S30, Duration::S10, Duration::S3],
        stream_rate: 40,
        warmup: 24,
        walk: 12,
    },
    Workload {
        name: "adapt_tap",
        why: "short_direct traffic against lre-adaptd: every score goes through the detailed path, the vote-log tap and the WAL tee, so the cost of the write path beside the read path shows",
        window: 4,
        open_phase: None,
        topology: Topology::Adaptd,
        durations: &[Duration::S3],
        stream_rate: 170,
        warmup: 64,
        walk: 64,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which stream an utterance belongs to; no two streams share content.
#[derive(Clone, Copy)]
pub enum Stream {
    Timed,
    Warmup,
    OpenPhase,
}

/// Renders utterances of the smoke corpus.
pub struct Corpus {
    ds: Dataset,
    inv: UniversalInventory,
}

impl Corpus {
    pub fn generate() -> Corpus {
        Corpus {
            ds: Dataset::generate(DatasetConfig::new(Scale::Smoke, CORPUS_SEED)),
            inv: UniversalInventory::new(),
        }
    }

    /// Samples of request `index` of a stream: the test-set spec at that
    /// index (cycled), its seed remixed so no two requests share content.
    fn render(&self, dur: Duration, seed: u64, stream: Stream, index: usize) -> Vec<f32> {
        let pool = self.ds.test_set(dur);
        let mut spec = pool[index % pool.len()];
        let salt = match stream {
            Stream::Timed => 0,
            Stream::Warmup => 1 << 40,
            Stream::OpenPhase => 2 << 40,
        };
        spec.seed = DeriveRng::new(spec.seed)
            .derive(seed)
            .derive(salt + index as u64)
            .0;
        render_utterance(&spec, self.ds.language(spec.language), &self.inv).samples
    }

    /// The first `n` requests of a workload's stream. Durations come in
    /// equal shares, in an order shuffled once for all seeds.
    pub fn stream(&self, w: &Workload, seed: u64, stream: Stream, n: usize) -> Vec<Vec<f32>> {
        let mut kinds: Vec<Duration> = (0..n).map(|i| w.durations[i % w.durations.len()]).collect();
        let shuffle = DeriveRng::new(SHAPE_SEED).derive(n as u64);
        for i in (1..n).rev() {
            kinds.swap(i, (shuffle.derive(i as u64).0 % (i as u64 + 1)) as usize);
        }
        kinds
            .iter()
            .enumerate()
            .map(|(i, &dur)| self.render(dur, seed, stream, i))
            .collect()
    }
}

/// Due times (ns after the window opens) of `n` Poisson arrivals at `rate`
/// per second.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let draws = DeriveRng::new(seed).derive(n as u64);
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            // 53 random bits → u in [0, 1); the gap is exponential.
            let u = (draws.derive(i as u64).0 >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// A chain over every request's `sample_digest` (FNV-1a of its sample
/// bits): two runs with equal digests sent identical timed streams.
pub fn digest(utts: &[Vec<f32>]) -> u64 {
    utts.iter()
        .fold(DeriveRng::new(utts.len() as u64), |h, utt| {
            h.derive(sample_digest(utt))
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed() {
        let a = poisson_schedule(42, 20.0, 500);
        assert_eq!(a, poisson_schedule(42, 20.0, 500));
        assert_ne!(a, poisson_schedule(43, 20.0, 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 500 arrivals at 20/s take about 25 s.
        let last = *a.last().unwrap() as f64 / 1e9;
        assert!((20.0..30.0).contains(&last), "last arrival at {last} s");
    }

    #[test]
    fn streams_repeat_per_seed_and_never_share_content() {
        let corpus = Corpus::generate();
        let w = find("mixed_routed").unwrap();
        let a = corpus.stream(w, 42, Stream::Timed, 9);
        assert_eq!(a, corpus.stream(w, 42, Stream::Timed, 9));
        let b = corpus.stream(w, 43, Stream::Timed, 9);
        let warm = corpus.stream(w, 42, Stream::Warmup, 9);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&warm));
        for (i, x) in a.iter().enumerate() {
            assert!(
                a.iter().skip(i + 1).all(|y| x != y),
                "utterance {i} repeats"
            );
        }
        // Equal thirds of the three durations.
        for dur in Duration::all() {
            // 25 ms windows every 10 ms at 8 kHz.
            let len = (dur.frames() - 1) * 80 + 200;
            assert_eq!(a.iter().filter(|u| u.len() == len).count(), 3);
        }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let utts = vec![vec![0.0f32, 1.0, -2.5], vec![3.25]];
        assert_eq!(digest(&utts), 0xe44a_8d37_e6b2_3af2);
        let swapped = vec![utts[1].clone(), utts[0].clone()];
        assert_ne!(digest(&utts), digest(&swapped));
    }

    #[test]
    fn table_names_are_unique_and_within_the_load_rules() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS.iter().skip(i + 1).all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(w.walk <= w.stream_rate, "walk must fit a 1 s stream");
        }
    }
}
