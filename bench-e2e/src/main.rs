//! `e2e`: the repository's benchmark. Trains or reuses a smoke bundle,
//! spawns the shipped `lre-serve` / `lre-router` / `lre-adaptd` binaries,
//! drives them over loopback TCP and prints every metric by name.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! e2e --list
//! e2e --compare A B        (result files, or directories of them)
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! the surface of the workspace the benchmark pins.

mod children;
mod compare;
mod json;
mod load;
mod stats;
mod trace;
mod walk;
mod workload;

use children::{build_servers, ensure_fixture, self_cpu_s, Dirs, Fixture, Fleet};
use json::Json;
use lre_artifact::ArtifactRead;
use lre_lattice::DecodeScratch;
use lre_serve::{Client, ScoringSystem, SystemBundle};
use stats::{highest_supported, median, percentile, sorted, supports};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Corpus, Stream, Topology, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// Set-ups per run; `setup_s` is their median, and the last one is kept
/// for the timed window.
const SETUP_REPEATS: usize = 5;

/// The end-to-end tail percentile: the highest that the slowest workload
/// (`long_single`, about 10 requests/s) supports with ten samples beyond it
/// in a `run_seconds` window.
const TAIL_PERCENTILE: f64 = 90.0;

/// Every reply at a multiple of this index is compared with the
/// in-process reference (fewer on long streams, see [`check_stride`]).
const CHECK_EVERY: usize = 16;

/// (name, unit, better, bound): `BENCHMARK.json` mirrors these tables, and
/// a test holds the two together. The timing bounds are as wide as the
/// contract allows because the reference box is a shared VM whose speed
/// drifts for minutes at a time (README, "The seed's numbers").
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_utt", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// (name, unit, better). A metric that does not apply to a workload (the
/// router's on a direct one, `adapt.*` without `lre-adaptd`) reads 0.
pub const PER_LAYER: [(&str, &str, &str); 70] = [
    ("scorer.whole_us", "us", "lower"),
    ("scorer.unaccounted_share", "ratio", "lower"),
    ("dsp.features_us", "us", "lower"),
    ("dsp.feature_passes", "count", "lower"),
    ("am.transform_us", "us", "lower"),
    ("am.emission_us", "us", "lower"),
    ("am.frames", "count", "lower"),
    ("lattice.search_us", "us", "lower"),
    ("lattice.segments", "count", "lower"),
    ("vsm.supervector_us", "us", "lower"),
    ("vsm.tfllr_us", "us", "lower"),
    ("vsm.supervector_nnz", "count", "lower"),
    ("svm.score_us", "us", "lower"),
    ("backend.fusion_us", "us", "lower"),
    ("am.emission_us.hu_ann", "us", "lower"),
    ("lattice.search_us.hu_ann", "us", "lower"),
    ("am.emission_us.ru_ann", "us", "lower"),
    ("lattice.search_us.ru_ann", "us", "lower"),
    ("am.emission_us.cz_ann", "us", "lower"),
    ("lattice.search_us.cz_ann", "us", "lower"),
    ("am.emission_us.en_dnn", "us", "lower"),
    ("lattice.search_us.en_dnn", "us", "lower"),
    ("am.emission_us.ma_gmm", "us", "lower"),
    ("lattice.search_us.ma_gmm", "us", "lower"),
    ("am.emission_us.en_gmm", "us", "lower"),
    ("lattice.search_us.en_gmm", "us", "lower"),
    ("serve.rtt_us", "us", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("router.rtt_us", "us", "lower"),
    ("router.hop_us", "us", "lower"),
    ("protocol.encode_request_us", "us", "lower"),
    ("protocol.decode_request_us", "us", "lower"),
    ("protocol.encode_reply_us", "us", "lower"),
    ("protocol.decode_reply_us", "us", "lower"),
    ("protocol.request_bytes", "B", "lower"),
    ("engine.queue_wait_p50_us", "us", "lower"),
    ("engine.queue_wait_p99_us", "us", "lower"),
    ("engine.batch_fill_mean", "count", "higher"),
    ("engine.batches", "count", "lower"),
    ("engine.max_queue_depth", "count", "lower"),
    ("engine.latency_p50_us", "us", "lower"),
    ("engine.decode_p50_us", "us", "lower"),
    ("engine.rejected", "count", "lower"),
    ("engine.expired", "count", "lower"),
    ("engine.failed", "count", "lower"),
    ("router.replica_imbalance", "ratio", "lower"),
    ("router.ejected", "count", "lower"),
    ("router.backend_latency_p50_us", "us", "lower"),
    ("votelog.appended", "count", "higher"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.segments", "count", "lower"),
    ("wal.bytes", "B", "lower"),
    ("adapt.cycle_ms", "ms", "lower"),
    ("adapt.drained", "count", "higher"),
    ("adapt.selected", "count", "higher"),
    ("adapt.outcome", "count", "lower"),
    ("serve.cpu_cores_busy", "cores", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.latency_max_ms", "ms", "lower"),
    ("client.cpu_ms_per_utt", "ms", "lower"),
    ("client.samples", "count", "higher"),
    ("fixture.train_s", "s", "lower"),
    ("setup.render_s", "s", "lower"),
    ("setup.spawn_ready_ms", "ms", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("setup.bundle_load_ms", "ms", "lower"),
    ("openloop.latency_p50_ms", "ms", "lower"),
    ("openloop.latency_p90_ms", "ms", "lower"),
    ("openloop.sched_lag_p95_ms", "ms", "lower"),
    ("openloop.failed", "count", "lower"),
];

/// Measured values by metric name.
pub type Metrics = Vec<(String, f64)>;

pub fn metric(name: &str, value: f64) -> (String, f64) {
    (name.to_string(), value)
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: e2e --workload NAME [--seed N] [--seconds 1..60] [--trace 0|1]\n       \
         e2e --list\n       e2e --compare A B"
    );
    std::process::exit(2);
}

fn parse_run_args(args: &[String]) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).unwrap_or_else(|| usage("unknown workload (see --list)")),
                );
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("bad --trace (0|1)"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn list() {
    for w in &WORKLOADS {
        println!(
            "{}\n  why:      {}\n  loop:     {}\n  requests: {} per second of --seconds, {} warm-up, {} walked\n  topology: {}",
            w.name, w.why, w.loop_kind(), w.stream_rate, w.warmup, w.walk, w.topology_line()
        );
    }
}

/// What one run found.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    digest: u64,
    samples: usize,
    end_to_end: Metrics,
    per_layer: Metrics,
    spans: Option<Json>,
}

/// Score the warm-up stream; every reply must be a score.
fn warm_up(fleet: &Fleet, w: &Workload, warm: &[Vec<f32>]) -> Result<(), String> {
    let seen =
        load::closed_loop(fleet.front, warm, w.window).map_err(|e| format!("warm-up: {e}"))?;
    if seen.llrs.iter().any(Option::is_none) {
        return Err("a warm-up request was not scored".into());
    }
    Ok(())
}

/// Compare every `stride`-th reply: dense enough to catch a wrong score,
/// sparse enough that the reference scoring stays a small part of a run.
fn check_stride(attempted: usize) -> usize {
    CHECK_EVERY.max(attempted.div_ceil(48).next_multiple_of(CHECK_EVERY))
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The traced open loop: Poisson arrivals whatever the server is doing,
/// latency counted from each request's due time. All zeros on a workload
/// without one.
fn open_phase(w: &Workload, seed: u64, corpus: &Corpus, fleet: &Fleet) -> Result<Metrics, String> {
    let (mut latency_ms, mut lag_ms, mut failed) = (Vec::new(), Vec::new(), 0);
    if let Some(o) = w.open_phase {
        let utts = corpus.stream(w, seed, Stream::OpenPhase, o.requests);
        let due_ns = workload::poisson_schedule(workload::SHAPE_SEED, o.rate, o.requests);
        let seen = load::open_loop(fleet.front, &utts, &due_ns, o.deadline_ms)
            .map_err(|e| format!("open-loop phase: {e}"))?;
        for i in 0..seen.attempted {
            let ms = seen.reply_ns[i].saturating_sub(seen.start_ns[i]) as f64 / 1e6;
            if seen.llrs[i].is_some() && ms <= f64::from(o.deadline_ms) {
                latency_ms.push(ms);
            } else {
                failed += 1;
            }
        }
        lag_ms = seen.lag_ms;
    }
    let latency_ms = sorted(&latency_ms);
    Ok(vec![
        metric("openloop.latency_p50_ms", percentile(&latency_ms, 50.0)),
        metric("openloop.latency_p90_ms", percentile(&latency_ms, 90.0)),
        metric(
            "openloop.sched_lag_p95_ms",
            percentile(&sorted(&lag_ms), 95.0),
        ),
        metric("openloop.failed", f64::from(failed)),
    ])
}

fn run(args: &Args, dirs: &Dirs, fixture: &Fixture) -> Result<Outcome, String> {
    let w = args.workload;
    let mut problems: Vec<String> = Vec::new();

    let started = Instant::now();
    let bytes = std::fs::read(&fixture.bundle).map_err(|e| e.to_string())?;
    let bundle = SystemBundle::from_artifact_bytes(&bytes).map_err(|e| e.to_string())?;
    let bundle_load_ms = started.elapsed().as_secs_f64() * 1e3;
    let system = ScoringSystem::from_bundle(bundle).map_err(|e| e.to_string())?;

    let started = Instant::now();
    let corpus = Corpus::generate();
    let n = w.stream_len(args.seconds);
    let utts = corpus.stream(w, args.seed, Stream::Timed, n);
    let warm = corpus.stream(w, args.seed, Stream::Warmup, w.warmup);
    let digest = workload::digest(&utts);
    let render_s = started.elapsed().as_secs_f64();

    // Set up several times so that setup_s is a median, not one sample.
    let (mut ready_ms, mut warmup_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut fleet = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = fleet.take() {
            Fleet::shutdown(previous)?;
        }
        let scratch = dirs.out.join(format!("run-{}-{rep}", std::process::id()));
        let started = Instant::now();
        let spawned = Fleet::spawn(dirs, fixture, w.topology, scratch)?;
        ready_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let warming = Instant::now();
        warm_up(&spawned, w, &warm)?;
        warmup_s.push(warming.elapsed().as_secs_f64());
        setup_s.push(started.elapsed().as_secs_f64());
        fleet = Some(spawned);
    }
    let fleet = fleet.expect("SETUP_REPEATS is at least 1");

    // The timed window.
    let (cpu0, self0) = (fleet.cpu_s()?, self_cpu_s());
    let seen = load::closed_loop(fleet.front, &utts, w.window)
        .map_err(|e| format!("timed window: {e}"))?;
    let (server_cpu_s, client_cpu_s) = (fleet.cpu_s()? - cpu0, self_cpu_s() - self0);
    let peak_rss_mb = fleet.peak_rss_mb()?;

    let mut latency_ms = Vec::with_capacity(seen.attempted);
    let mut failed = 0;
    for i in 0..seen.attempted {
        let ms = seen.reply_ns[i].saturating_sub(seen.start_ns[i]) as f64 / 1e6;
        if seen.llrs[i].is_some() {
            latency_ms.push(ms);
        } else {
            failed += 1;
        }
    }
    let completed = latency_ms.len();
    if completed == 0 {
        return Err("no request of the timed window was scored in time".into());
    }
    let latency_ms = sorted(&latency_ms);
    match highest_supported(completed) {
        Some(p) if p >= TAIL_PERCENTILE => {}
        best => eprintln!(
            "[e2e] warning: {completed} samples support {best:?}, not p{TAIL_PERCENTILE} (ten samples beyond it)"
        ),
    }

    // Correctness: sampled replies against the in-process reference.
    let mut scratch = DecodeScratch::new();
    for i in (0..seen.attempted).step_by(check_stride(seen.attempted)) {
        if let Some(got) = &seen.llrs[i] {
            if !same_bits(got, &system.score(&utts[i], &mut scratch)) {
                problems.push(format!("reply {i} differs from the in-process score"));
                failed += 1;
            }
        }
    }
    // The tap must have seen every request of this instance exactly once.
    let mut wal = None;
    if w.topology == Topology::Adaptd {
        let status = Client::connect(fleet.front)
            .and_then(|mut c| c.wal_status())
            .map_err(|e| format!("wal-status: {e}"))?
            .ok_or("lre-adaptd reports no WAL")?;
        let sent = (w.warmup + seen.attempted) as u64;
        if status.appended != sent {
            problems.push(format!(
                "vote log holds {} records for {sent} requests",
                status.appended
            ));
        }
        wal = Some((status, fleet.wal_bytes()));
    }

    let end_to_end = vec![
        metric("qps", completed as f64 / seen.wall_s),
        metric("latency_p50_ms", percentile(&latency_ms, 50.0)),
        metric("latency_p90_ms", percentile(&latency_ms, TAIL_PERCENTILE)),
        metric("cpu_ms_per_utt", server_cpu_s * 1e3 / completed as f64),
        metric("setup_s", median(&setup_s)),
        metric("peak_rss_mb", peak_rss_mb),
    ];

    let mut per_layer = Vec::new();
    let mut spans = None;
    if args.trace {
        let io = |e: std::io::Error| format!("traced phase: {e}");
        per_layer.extend(trace::scrape_counters(&fleet).map_err(io)?);
        // Assembling the system consumed the bundle; the walk needs its
        // fields.
        let bundle = SystemBundle::from_artifact_bytes(&bytes).map_err(|e| e.to_string())?;
        let mut log = walk::SpanLog::new();
        let walk_utts = &utts[..w.walk.min(utts.len())];
        let walked = walk::walk(&bundle, &system, walk_utts, &mut log)?;
        per_layer.extend(trace::probes(&fleet, walk_utts, &walked).map_err(io)?);
        per_layer.extend(walked.metrics);
        spans = Some(log.to_json());
        let (status, wal_bytes) = wal.unzip();
        let wal_field =
            |f: fn(&lre_serve::WalStatusInfo) -> u64| status.as_ref().map_or(0.0, |s| f(s) as f64);
        per_layer.push(metric("votelog.appended", wal_field(|s| s.appended)));
        per_layer.push(metric("wal.fsyncs", wal_field(|s| s.fsyncs)));
        per_layer.push(metric("wal.segments", wal_field(|s| s.segments)));
        per_layer.push(metric("wal.bytes", wal_bytes.unwrap_or(0) as f64));
        per_layer.extend(open_phase(w, args.seed, &corpus, &fleet)?);
        if w.topology == Topology::Adaptd {
            per_layer.extend(trace::adapt_cycle(&fleet).map_err(io)?);
        } else {
            for name in [
                "adapt.cycle_ms",
                "adapt.drained",
                "adapt.selected",
                "adapt.outcome",
            ] {
                per_layer.push(metric(name, 0.0));
            }
        }
        let p99 = if supports(completed, 99.0) {
            percentile(&latency_ms, 99.0)
        } else {
            0.0
        };
        per_layer.extend([
            metric("serve.cpu_cores_busy", server_cpu_s / seen.wall_s),
            metric("client.latency_p99_ms", p99),
            metric("client.latency_max_ms", percentile(&latency_ms, 100.0)),
            metric(
                "client.cpu_ms_per_utt",
                client_cpu_s * 1e3 / completed as f64,
            ),
            metric("client.samples", completed as f64),
            metric("fixture.train_s", fixture.train_s),
            metric("setup.render_s", render_s),
            metric("setup.spawn_ready_ms", median(&ready_ms)),
            metric("setup.warmup_s", median(&warmup_s)),
            metric("setup.bundle_load_ms", bundle_load_ms),
        ]);
    }

    if let Err(e) = fleet.shutdown() {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("[e2e] INCORRECT: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: seen.attempted,
        failed,
        digest,
        samples: completed,
        end_to_end,
        per_layer,
        spans,
    })
}

/// `{"name": {"value": v, "unit": u}, …}` for every metric of `table`, in
/// table order; a metric the run did not produce is an error.
fn metrics_json(table: &[(&str, &str)], values: &Metrics) -> Result<Json, String> {
    table
        .iter()
        .map(|&(name, unit)| {
            let (_, v) = values
                .iter()
                .find(|(n, _)| n == name)
                .ok_or(format!("metric {name} was not measured"))?;
            Ok((
                name.to_string(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(unit.into()))]),
            ))
        })
        .collect::<Result<_, String>>()
        .map(Json::Obj)
}

fn benchmark(args: &Args) -> Result<(), String> {
    let dirs = Dirs::locate()?;
    build_servers(&dirs)?;
    let fixture = ensure_fixture(&dirs)?;
    let out = run(args, &dirs, &fixture)?;
    let metrics = if args.trace {
        let table: Vec<_> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        metrics_json(&table, &out.per_layer)?
    } else {
        let table: Vec<_> = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
        metrics_json(&table, &out.end_to_end)?
    };
    // stdout ends with exactly the four keys the driver reads; the file
    // carries what identifies the run besides.
    let result = [
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ];
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let identity = [
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("workload_digest", Json::Str(format!("{:016x}", out.digest))),
        ("samples", Json::Num(out.samples as f64)),
        ("nproc", Json::Num(nproc as f64)),
    ];
    let file = Json::Obj(
        identity
            .iter()
            .chain(&result)
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    let stem = format!("{}-{}", w.name, args.seed);
    let write = |name: String, body: &Json| {
        let path = dirs.out.join(name);
        std::fs::write(&path, body.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        format!("{stem}{}.json", if args.trace { ".layers" } else { "" }),
        &file,
    )?;
    if let Some(spans) = &out.spans {
        write(format!("{stem}.spans.json"), spans)?;
    }
    eprintln!(
        "[e2e] {} seed {} {} s: workload_digest {:016x}, {} samples, {} attempted, {} failed",
        w.name, args.seed, args.seconds, out.digest, out.samples, out.attempted, out.failed
    );
    println!("{}", Json::obj(result).to_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            list();
            Ok(())
        }
        Some("--compare") => match &args[1..] {
            [a, b] => Dirs::locate()
                .and_then(|d| {
                    compare::run(&d.repo.join("BENCHMARK.json"), Path::new(a), Path::new(b))
                })
                .and_then(|regressed| {
                    if regressed {
                        Err("regressed".into())
                    } else {
                        Ok(())
                    }
                }),
            _ => usage("--compare takes two paths"),
        },
        _ => benchmark(&parse_run_args(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; it must say what the tables
    /// here say.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        let listed: Vec<_> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let table: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, table);

        let listed: Vec<_> = spec
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let table: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(listed, table);

        let listed: Vec<_> = spec
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let table: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn check_stride_is_every_sixteenth_until_streams_get_long() {
        assert_eq!(check_stride(100), 16);
        assert_eq!(check_stride(768), 16);
        assert_eq!(check_stride(2000), 48);
        assert_eq!(check_stride(4800), 112);
    }
}
