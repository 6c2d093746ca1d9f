//! Serving telemetry-overhead harness.
//!
//! Spins up a real [`lre_serve::Server`] (TCP, queue, worker pool) over a
//! synthetic scorer with a fixed per-utterance compute cost and drives the
//! same pipelined workload through a [`PipelinedClient`] against a server
//! with the full telemetry bundle (stage histograms, sketches, flight
//! recorder) and against one without, best of three each. Results go to
//! stdout and `BENCH_serve.json`; `--require-obs-overhead 0.03` turns the
//! measured relative overhead into a CI gate:
//!
//! ```text
//! cargo run -p lre-bench --release --bin serve_throughput -- --require-obs-overhead 0.03
//! ```
//!
//! A synthetic scorer keeps the run seconds-long and makes the engine's
//! own per-request work a large share of each request, so a telemetry cost
//! of a few percent is measurable; end-to-end numbers on the real scorer
//! are `bench-e2e/`'s job, and its bit-faithfulness across the wire is
//! pinned by the serve round-trip tests.

use lre_serve::{
    EngineConfig, PipelinedClient, ScoreDetail, ScoreReply, Scorer, ScorerHandle, ServeObs, Server,
    ServerConfig, ServerHooks,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Languages in the synthetic reply vector (matches NIST LRE 2009).
const NUM_LANGS: usize = 23;

/// A scorer with a fixed, CPU-bound per-utterance cost and a reply that is
/// a pure function of the samples, so the bench can verify every byte that
/// came back without training an acoustic model.
struct SyntheticScorer {
    busy: Duration,
}

fn synthetic_llrs(samples: &[f32]) -> Vec<f32> {
    let sum: f32 = samples.iter().sum();
    (0..NUM_LANGS).map(|k| sum + k as f32).collect()
}

impl Scorer for SyntheticScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut lre_lattice::DecodeScratch,
    ) -> Result<ScoreDetail, lre_artifact::ArtifactError> {
        // Busy-spin rather than sleep: workers should *occupy* their core
        // the way a Viterbi decode does, so worker-count scaling is real.
        let end = Instant::now() + self.busy;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
        Ok(ScoreDetail::from_fused(samples, synthetic_llrs(samples)))
    }
}

struct Args {
    utts: usize,
    busy_us: u64,
    workers: usize,
    inflight: usize,
    require_obs_overhead: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            utts: 64,
            busy_us: 300,
            workers: 2,
            inflight: 8,
            require_obs_overhead: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{what} needs a value"))
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad value for {what}: {e}"))
            };
            match flag.as_str() {
                "--utts" => args.utts = val("--utts") as usize,
                "--busy-us" => args.busy_us = val("--busy-us") as u64,
                "--workers" => args.workers = val("--workers") as usize,
                "--inflight" => args.inflight = val("--inflight") as usize,
                "--require-obs-overhead" => {
                    args.require_obs_overhead = Some(val("--require-obs-overhead"))
                }
                other => panic!("unknown flag {other} (see --help in source)"),
            }
        }
        args.utts = args.utts.max(1);
        args.inflight = args.inflight.max(2);
        args
    }
}

/// Time one full pass of the workload at the given window; panics if any
/// reply is not a bit-faithful score (the bench is also a correctness check).
fn timed_pass(client: &mut PipelinedClient, utts: &[Vec<f32>], window: usize) -> f64 {
    let t0 = Instant::now();
    let replies = client.score_all(utts, window, None).expect("score_all");
    let secs = t0.elapsed().as_secs_f64();
    for (i, r) in replies.iter().enumerate() {
        match r {
            ScoreReply::Scored(s) => {
                assert_eq!(
                    s.llrs,
                    synthetic_llrs(&utts[i]),
                    "utt {i} came back with wrong LLRs at window {window}"
                );
            }
            other => panic!("utt {i} not scored at window {window}: {other:?}"),
        }
    }
    secs
}

fn server_config(args: &Args) -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: args.workers,
            queue_capacity: (args.inflight * 4).max(64),
            unknown_threshold: None,
        },
        max_inflight: args.inflight,
        max_global_inflight: 0,
    }
}

/// The telemetry-overhead leg: run the pipelined workload against a fresh
/// server with telemetry `obs_on` or off, best of `passes`, and return the
/// winning wall time. Fresh server + connection per leg so neither leg
/// inherits the other's warmed state.
fn obs_leg(args: &Args, utts: &[Vec<f32>], obs_on: bool, passes: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = obs_on.then(|| ServeObs::new(256));
    let handle = Arc::new(ScorerHandle::new(
        Arc::new(SyntheticScorer {
            busy: Duration::from_micros(args.busy_us),
        }),
        0,
    ));
    let server = Server::start_adaptive(
        listener,
        handle,
        server_config(args),
        ServerHooks {
            obs: obs.clone(),
            ..ServerHooks::default()
        },
    )
    .expect("server start");
    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    let _ = timed_pass(&mut client, &utts[..utts.len().min(8)], 2); // warm up
    let best = (0..passes.max(1))
        .map(|_| timed_pass(&mut client, utts, args.inflight))
        .fold(f64::INFINITY, f64::min);
    client.shutdown().expect("shutdown");
    server.join();
    best
}

fn main() {
    let args = Args::parse();
    let utts: Vec<Vec<f32>> = (0..args.utts)
        .map(|i| {
            // Deterministic, distinct per-utterance payloads.
            (0..160)
                .map(|t| ((i * 31 + t) % 97) as f32 * 0.01)
                .collect()
        })
        .collect();

    // Telemetry overhead: the same pipelined workload against a server
    // with the full telemetry bundle (histograms, sketches, stage timing)
    // vs one without, best of 3 each. The off leg is the exact code path
    // a telemetry-less engine ran before the obs wiring existed.
    let off_s = obs_leg(&args, &utts, false, 3);
    let on_s = obs_leg(&args, &utts, true, 3);
    let obs_overhead = (on_s - off_s) / off_s.max(1e-9);
    println!(
        "telemetry overhead: {:.2}% (off {:.3}s vs on {:.3}s, best of 3)",
        obs_overhead * 100.0,
        off_s,
        on_s
    );

    let json = format!(
        concat!(
            "{{\"config\":{{\"utts\":{},\"busy_us\":{},\"workers\":{},\"inflight\":{}}},",
            "\"obs\":{{\"off_wall_s\":{:.6},\"on_wall_s\":{:.6},\"overhead\":{:.4}}}}}\n"
        ),
        args.utts, args.busy_us, args.workers, args.inflight, off_s, on_s, obs_overhead,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("[serve_throughput] wrote BENCH_serve.json");

    if let Some(cap) = args.require_obs_overhead {
        if obs_overhead > cap {
            eprintln!(
                "[serve_throughput] FAIL: telemetry overhead {:.2}% > allowed {:.2}%",
                obs_overhead * 100.0,
                cap * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "[serve_throughput] OK: telemetry overhead {:.2}% <= {:.2}%",
            obs_overhead * 100.0,
            cap * 100.0
        );
    }
}
