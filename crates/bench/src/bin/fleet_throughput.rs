//! Fleet-throughput harness: routed QPS scaling across replica counts,
//! and tail latency while a replica dies mid-run.
//!
//! Spins up real [`lre_serve::Server`] replicas behind a real
//! [`lre_router::Router`] and drives one pipelined client through the
//! router three times — 1, 2 and 4 replicas — then repeats a 2-replica
//! run and kills one replica a third of the way in, reporting p99
//! latency, typed-failure count and whether the surviving replica kept
//! scoring. Results go to stdout and `BENCH_fleet.json`:
//!
//! ```text
//! cargo run -p lre-bench --release --bin fleet_throughput -- --require-scaling 1.6
//! ```
//!
//! The synthetic scorer *sleeps* instead of busy-spinning: replicas in
//! this harness share one process (and in CI often one core), so the
//! fleet's concurrency win must come from overlapping blocking waits,
//! not from contending for cycles — exactly like a fleet of I/O- or
//! accelerator-bound replicas, and honest on a single-core host where a
//! spin scorer would show no scaling at all. Each replica runs one
//! worker, so one replica's ceiling is `1/busy` QPS by construction.

use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::{
    Client, EngineConfig, ScoreDetail, ScoreReply, Scorer, ScorerHandle, Server, ServerConfig,
    ServerHooks, DEFAULT_FLIGHT_CAPACITY,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Languages in the synthetic reply vector (matches NIST LRE 2009).
const NUM_LANGS: usize = 23;

fn synthetic_llrs(samples: &[f32]) -> Vec<f32> {
    let sum: f32 = samples.iter().sum();
    (0..NUM_LANGS).map(|k| sum + k as f32).collect()
}

/// Fixed per-utterance *blocking* cost; the reply is a pure function of
/// the samples so every routed byte is verified on the way back.
struct SleepScorer {
    busy: Duration,
}

impl Scorer for SleepScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut lre_lattice::DecodeScratch,
    ) -> Result<ScoreDetail, lre_artifact::ArtifactError> {
        std::thread::sleep(self.busy);
        Ok(ScoreDetail::from_fused(samples, synthetic_llrs(samples)))
    }
}

struct Args {
    utts: usize,
    busy_us: u64,
    window: usize,
    require_scaling: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            utts: 192,
            busy_us: 2000,
            window: 16,
            require_scaling: None,
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
                "--window" => args.window = val("--window") as usize,
                "--require-scaling" => args.require_scaling = Some(val("--require-scaling")),
                other => panic!("unknown flag {other} (see --help in source)"),
            }
        }
        args.utts = args.utts.max(16);
        args.window = args.window.max(4);
        args
    }
}

fn spawn_fleet(replicas: usize, busy: Duration, window: usize) -> Vec<Server> {
    (0..replicas)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
            Server::start(
                listener,
                Arc::new(ScorerHandle::new(Arc::new(SleepScorer { busy }), 0)),
                ServerConfig {
                    engine: EngineConfig {
                        workers: 1,
                        queue_capacity: (window * 4).max(64),
                        unknown_threshold: None,
                    },
                    max_inflight: (window * 2).max(32),
                },
                ServerHooks::default(),
            )
            .expect("replica start")
        })
        .collect()
}

fn start_router(servers: &[Server]) -> Router {
    let obs = RouterObs::new(DEFAULT_FLIGHT_CAPACITY);
    let backends: Vec<Arc<Backend>> = servers
        .iter()
        .map(|s| Arc::new(Backend::new(s.local_addr().to_string(), &obs)))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    Router::start(
        listener,
        backends,
        RouterConfig {
            max_inflight: 64,
            health_interval: Duration::from_millis(25),
            probe_timeout: Duration::from_millis(500),
        },
        None,
        obs,
    )
    .expect("router start")
}

struct Pass {
    wall_s: f64,
    scored: u64,
    failed: u64,
    latencies: Vec<Duration>,
}

/// Drive `utts` through the router at the given window, optionally
/// firing `kill` once `kill_at` submissions are in. Every reply is
/// accounted for: scored ones are verified bit-faithful, everything
/// else counts as a typed failure (the router never leaves a request
/// unanswered, so this loop always terminates).
fn drive(
    client: &mut Client,
    utts: &[Vec<f32>],
    window: usize,
    kill_at: Option<(usize, &dyn Fn())>,
) -> Pass {
    let mut outstanding: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut submitted = 0usize;
    let mut scored = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::with_capacity(utts.len());
    let t0 = Instant::now();
    while submitted < utts.len() || !outstanding.is_empty() {
        if submitted < utts.len() && outstanding.len() < window {
            let id = client.submit(&utts[submitted], None).expect("submit");
            outstanding.insert(id, (submitted, Instant::now()));
            submitted += 1;
            if let Some((at, kill)) = &kill_at {
                if submitted == *at {
                    kill();
                }
            }
            continue;
        }
        let (id, reply) = client.recv().expect("recv");
        let (utt, sent) = outstanding.remove(&id).expect("unknown reply id");
        match reply {
            ScoreReply::Scored(s) => {
                assert_eq!(
                    s.llrs,
                    synthetic_llrs(&utts[utt]),
                    "utt {utt} came back with wrong LLRs through the router"
                );
                latencies.push(sent.elapsed());
                scored += 1;
            }
            _ => failed += 1,
        }
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        scored,
        failed,
        latencies,
    }
}

fn p99_ms(latencies: &mut [Duration]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100].as_secs_f64() * 1e3
}

/// Shut the whole stack down through the router (the router propagates
/// the shutdown to every replica it can still reach).
fn teardown(mut client: Client, router: Router, servers: Vec<Server>) {
    client.shutdown().expect("shutdown through router");
    for s in servers {
        s.stop();
        s.join();
    }
    router.join();
}

fn scaling_pass(replicas: usize, utts: &[Vec<f32>], args: &Args) -> (f64, f64) {
    let servers = spawn_fleet(replicas, Duration::from_micros(args.busy_us), args.window);
    let router = start_router(&servers);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    // Warm connections, threads and allocator before timing.
    let _ = drive(&mut client, &utts[..8], args.window.min(8), None);
    let pass = drive(&mut client, utts, args.window, None);
    assert_eq!(pass.failed, 0, "healthy fleet must score everything");
    assert_eq!(pass.scored as usize, utts.len());
    let qps = utts.len() as f64 / pass.wall_s.max(1e-9);
    teardown(client, router, servers);
    (pass.wall_s, qps)
}

fn main() {
    let args = Args::parse();
    let utts: Vec<Vec<f32>> = (0..args.utts)
        .map(|i| {
            (0..160)
                .map(|t| ((i * 31 + t) % 97) as f32 * 0.01)
                .collect()
        })
        .collect();

    // ---- QPS scaling across replica counts --------------------------------
    let mut scaling = Vec::new();
    for replicas in [1usize, 2, 4] {
        let (wall_s, qps) = scaling_pass(replicas, &utts, &args);
        eprintln!("[fleet_throughput] {replicas} replica(s): {qps:.1} QPS ({wall_s:.3}s)");
        scaling.push((replicas, wall_s, qps));
    }
    let scaling_1_to_2 = scaling[1].2 / scaling[0].2.max(1e-9);
    let scaling_2_to_4 = scaling[2].2 / scaling[1].2.max(1e-9);

    // ---- Kill a replica mid-run -------------------------------------------
    // Two replicas; the victim's listener closes a third of the way in, so
    // the router's probes fail, it ejects the victim (failing its in-flight
    // typed) and the survivor carries the rest of the workload.
    let servers = spawn_fleet(2, Duration::from_micros(args.busy_us), args.window);
    let router = start_router(&servers);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let _ = drive(&mut client, &utts[..8], args.window.min(8), None);
    let victim = &servers[0];
    let kill = || victim.stop();
    let mut pass = drive(
        &mut client,
        &utts,
        args.window,
        Some((args.utts / 3, &kill)),
    );
    assert_eq!(
        pass.scored + pass.failed,
        args.utts as u64,
        "every request must be answered exactly once across the kill"
    );
    let kill_p99_ms = p99_ms(&mut pass.latencies);
    // Recovery: the survivor keeps scoring after the dust settles.
    let recovery = drive(&mut client, &utts[..16], args.window, None);
    let recovered = recovery.failed == 0 && recovery.scored == 16;
    assert!(recovered, "survivor must score cleanly after the kill");
    teardown(client, router, servers);

    println!(
        "{:<10} | {:>9} | {:>11} | {:>9}",
        "replicas", "wall s", "QPS", "ms/utt"
    );
    for &(replicas, wall_s, qps) in &scaling {
        println!(
            "{:<10} | {:>9.3} | {:>11.1} | {:>9.3}",
            replicas,
            wall_s,
            qps,
            1e3 * wall_s / args.utts as f64
        );
    }
    println!("scaling: 1→2 replicas {scaling_1_to_2:.2}x, 2→4 replicas {scaling_2_to_4:.2}x");
    println!(
        "kill drill: {} scored, {} failed typed, p99 {kill_p99_ms:.1}ms, survivor recovered: {recovered}",
        pass.scored, pass.failed
    );

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\"config\":{{\"utts\":{},\"busy_us\":{},\"window\":{}}},",
            "\"scaling\":[",
        ),
        args.utts, args.busy_us, args.window,
    );
    for (i, &(replicas, wall_s, qps)) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"replicas\":{},\"wall_s\":{:.6},\"qps\":{:.2}}}",
            if i > 0 { "," } else { "" },
            replicas,
            wall_s,
            qps
        );
    }
    let _ = write!(
        json,
        concat!(
            "],\"scaling_1_to_2\":{:.3},\"scaling_2_to_4\":{:.3},",
            "\"kill\":{{\"utts\":{},\"scored\":{},\"failed\":{},",
            "\"p99_ms\":{:.3},\"recovered\":{}}}}}\n"
        ),
        scaling_1_to_2, scaling_2_to_4, args.utts, pass.scored, pass.failed, kill_p99_ms, recovered,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    eprintln!("[fleet_throughput] wrote BENCH_fleet.json");

    if let Some(floor) = args.require_scaling {
        if scaling_1_to_2 < floor {
            eprintln!(
                "[fleet_throughput] FAIL: 1→2 replica scaling {scaling_1_to_2:.2}x < required {floor:.2}x"
            );
            std::process::exit(1);
        }
        eprintln!("[fleet_throughput] OK: 1→2 replica scaling {scaling_1_to_2:.2}x >= {floor:.2}x");
    }
}
