//! Scoring client: render corpus utterances, score them over TCP, and
//! optionally verify the replies against an in-process copy of the bundle.
//!
//! ```text
//! lre-client --addr HOST:PORT [--utts N] [--scale smoke|demo|paper]
//!            [--seed N] [--duration 30s|10s|3s] [--inflight N]
//!            [--deadline-ms N] [--verify --bundle PATH]
//!            [--stats] [--fuzz] [--adapt] [--shutdown]
//!            [--ping] [--rollback] [--tolerate-failures]
//!            [--traced] [--metrics] [--metrics-json]
//!            [--flight] [--flight-drain]
//!            [--wal-status] [--rollback-to GEN]
//! ```
//!
//! `--wal-status` prints the peer's write-ahead-log and generation-
//! lineage summary (buffered votes, segments, replay counts, lineage
//! chain) and exits non-zero against a peer running without `--wal-dir`.
//! `--rollback-to GEN` asks the peer to restore lineage generation GEN
//! into serving (a *deep* rollback — any retained generation, not just
//! the previous one). See `docs/DURABILITY.md`.
//!
//! `--adapt` asks the server to run one adaptation cycle (after any
//! scoring) and prints the report — outcome, serving generation, selection
//! counts; it exits non-zero if the server has no adaptation controller.
//!
//! `--ping` prints the lightweight health probe (generation, inflight,
//! shed, completed) the router's health checker uses. `--rollback` asks
//! the server to restore its previous scorer generation; against a router
//! it rolls the whole fleet. `--tolerate-failures` keeps scoring through
//! typed per-request failures (internal/overloaded/shutting-down) instead
//! of exiting — the mode the CI kill-a-replica drill drives the router
//! in — and reports the count at the end. `--stats` against a router
//! prints the fleet aggregate plus a per-replica breakdown.
//!
//! `--inflight 1` (the default) sends one request at a time and retries an
//! `overloaded` reply; `--inflight N>1` keeps up to N requests riding the
//! connection at once, replies matched by id. With `--verify`, every TCP reply is
//! compared bit-for-bit against the score computed locally from the same
//! bundle — the end-to-end check the CI smoke job runs; it exits non-zero
//! on any mismatch in either mode. `--fuzz` throws the malformed-input
//! corpus at the server and verifies it answers typed errors (or just
//! closes) without dying.
//!
//! `--traced` (requires `--inflight 1`: a traced score is submit-and-wait)
//! scores through the traced protocol tag and prints each reply's
//! stage-timestamped span. Telemetry
//! flags: `--metrics` dumps the peer's stats-v3 registry human-readably,
//! `--metrics-json` as one JSON object; `--flight` prints the peer's
//! flight-recorder events (`--flight-drain` empties the ring). All three
//! exit non-zero against a peer running without telemetry, and all three
//! skip the default scoring pass unless `--utts` is given explicitly —
//! a scrape observes the server's counters, it doesn't add to them.

use lre_artifact::ArtifactRead;
use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, LanguageId, Scale};
use lre_lattice::DecodeScratch;
use lre_obs::{stage_name, MetricValue};
use lre_phone::UniversalInventory;
use lre_serve::args::{or_die, Args};
use lre_serve::client::ScoreReply;
use lre_serve::{Client, FleetStats, ScoringSystem, StatsSnapshot, SystemBundle};
use std::path::PathBuf;

const USAGE: &str = "lre-client --addr HOST:PORT [--utts N] [--scale smoke|demo|paper] \
    [--seed N] [--duration 30s|10s|3s] [--inflight N] [--deadline-ms N] \
    [--verify --bundle PATH] [--stats] [--fuzz] [--adapt] [--shutdown] \
    [--ping] [--rollback] [--tolerate-failures] [--traced] \
    [--metrics] [--metrics-json] [--flight] [--flight-drain] \
    [--wal-status] [--rollback-to GEN]";

fn connect_with_retry(addr: &str) -> Client {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let attempt = Client::connect(addr);
        if attempt.is_ok() || std::time::Instant::now() >= deadline {
            return or_die(attempt, format!("connecting to {addr}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// Print the stats line. The field order is a documented contract (CI
/// and operators' scripts parse it): `requests completed rejected
/// max_queue_depth mean_latency_ms max_latency_ms qps expired failed
/// shed_global generation swaps rollbacks unknown`. Append new
/// fields at the end; never reorder.
fn print_stats(s: &StatsSnapshot) {
    let qps = if s.uptime_us > 0 {
        s.completed as f64 / (s.uptime_us as f64 / 1e6)
    } else {
        0.0
    };
    let mean_lat_ms = if s.completed > 0 {
        s.latency_us_sum as f64 / s.completed as f64 / 1e3
    } else {
        0.0
    };
    println!(
        "stats: requests={} completed={} rejected={} max_queue_depth={} \
         mean_latency_ms={mean_lat_ms:.1} max_latency_ms={:.1} qps={qps:.1} \
         expired={} failed={} shed_global={} generation={} swaps={} rollbacks={} \
         unknown={}",
        s.requests,
        s.completed,
        s.rejected,
        s.max_queue_depth,
        s.latency_us_max as f64 / 1e3,
        s.expired,
        s.failed,
        s.shed_global,
        s.generation,
        s.swaps,
        s.rollbacks,
        s.unknown
    );
}

fn print_fleet_stats(f: &FleetStats) {
    print_stats(&f.aggregate);
    for r in &f.replicas {
        println!(
            "  replica {}: healthy={} generation={} inflight={} completed={} shed={}",
            r.addr, r.healthy, r.generation, r.inflight, r.completed, r.shed
        );
    }
}

/// Resolve `--stats` against an unknown peer: fleet breakdown from a
/// router, engine counters from a single server (which refuses the fleet
/// tag `unsupported`). An `Err` — torn connection, malformed or truncated
/// stats frame — must NOT be swallowed into the fallback: a corrupt reply
/// never passes for a healthy single server, the client exits non-zero.
fn print_peer_stats(client: &mut Client) {
    match or_die(client.try_fleet_stats(), "fleet stats request failed") {
        Some(f) => print_fleet_stats(&f),
        None => print_stats(&or_die(client.stats_v2(), "stats request failed")),
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut utts: Option<usize> = None;
    let mut scale = Scale::Smoke;
    let mut seed = 42u64;
    let mut duration = Duration::S3;
    let mut inflight = 1usize;
    let mut deadline_ms = 0u64;
    let mut verify = false;
    let mut bundle_path: Option<PathBuf> = None;
    let mut stats = false;
    let mut fuzz = false;
    let mut adapt = false;
    let mut shutdown = false;
    let mut ping = false;
    let mut rollback = false;
    let mut tolerate_failures = false;
    let mut traced = false;
    let mut metrics = false;
    let mut metrics_json = false;
    let mut flight = false;
    let mut flight_drain = false;
    let mut wal_status = false;
    let mut rollback_to: Option<u64> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => addr = Some(args.value(&flag)),
            "--utts" => utts = Some(args.value(&flag)),
            "--scale" => scale = args.value(&flag),
            "--seed" => seed = args.value(&flag),
            "--duration" => duration = args.value(&flag),
            "--inflight" => {
                inflight = args.value(&flag);
                if inflight < 1 {
                    args.fail("bad value for --inflight (integer >= 1)");
                }
            }
            "--deadline-ms" => deadline_ms = args.value(&flag),
            "--verify" => verify = true,
            "--bundle" => bundle_path = Some(args.value(&flag)),
            "--stats" => stats = true,
            "--fuzz" => fuzz = true,
            "--adapt" => adapt = true,
            "--shutdown" => shutdown = true,
            "--ping" => ping = true,
            "--rollback" => rollback = true,
            "--tolerate-failures" => tolerate_failures = true,
            "--traced" => traced = true,
            "--metrics" => metrics = true,
            "--metrics-json" => metrics_json = true,
            "--flight" => flight = true,
            "--flight-drain" => {
                flight = true;
                flight_drain = true;
            }
            "--wal-status" => wal_status = true,
            "--rollback-to" => rollback_to = Some(args.value(&flag)),
            other => args.fail(&format!("unknown argument {other}")),
        }
    }
    let Some(addr) = addr else {
        args.fail("--addr is required")
    };
    // A telemetry scrape observes without perturbing: unless --utts was
    // given explicitly, --metrics/--flight skip the default scoring pass
    // so the scraped counters reflect only the server's real traffic.
    let utts = utts.unwrap_or(if metrics || metrics_json || flight || wal_status {
        0
    } else {
        10
    });
    if traced && inflight > 1 {
        args.fail("--traced requires --inflight 1 (a traced score is submit-and-wait)");
    }

    if fuzz {
        // Wait for the server, then hammer it with the malformed corpus.
        drop(connect_with_retry(&addr));
        let Ok(sock_addr) = addr.parse() else {
            args.fail("--fuzz needs a numeric HOST:PORT address")
        };
        match lre_serve::fuzz::run_corpus(sock_addr, std::time::Duration::from_secs(10)) {
            Ok(ran) => {
                let total: usize = ran.values().sum();
                let per_class: Vec<String> = ran
                    .iter()
                    .map(|(class, n)| format!("{class} {n}"))
                    .collect();
                println!(
                    "fuzz OK: {total} malformed cases ({}), every one refused cleanly",
                    per_class.join(", ")
                );
            }
            Err(e) => {
                eprintln!("fuzz FAILED: {e}");
                std::process::exit(1);
            }
        }
        // The server must still be fully alive afterwards.
        let mut probe = Client::connect(&addr).unwrap_or_else(|e| {
            eprintln!("fuzz FAILED: server unreachable after corpus: {e}");
            std::process::exit(1);
        });
        if let Err(e) = probe.stats_v2() {
            eprintln!("fuzz FAILED: stats after corpus: {e}");
            std::process::exit(1);
        }
        println!("fuzz post-check OK: server still answers stats");
    }

    if ping {
        let mut client = connect_with_retry(&addr);
        let p = or_die(client.ping(), "ping request failed");
        println!(
            "ping: generation={} inflight={} shed={} completed={}",
            p.generation, p.inflight, p.shed, p.completed
        );
    }

    let local = if verify {
        let Some(path) = bundle_path else {
            args.fail("--verify needs --bundle PATH")
        };
        let bundle = or_die(
            SystemBundle::load_artifact(&path),
            format!("loading {}", path.display()),
        );
        Some(or_die(ScoringSystem::from_bundle(bundle), "invalid bundle"))
    } else {
        None
    };

    let mut mismatches = 0usize;
    let mut expired = 0usize;
    let mut tolerated = 0usize;
    if utts > 0 {
        let inv = UniversalInventory::new();
        let ds = Dataset::generate(DatasetConfig::new(scale, seed));
        let pool = ds.test_set(duration);
        let mut scratch = DecodeScratch::new();
        let rendered: Vec<(usize, LanguageId, Vec<f32>)> = pool
            .iter()
            .cycle()
            .take(utts)
            .enumerate()
            .map(|(n, spec)| {
                (
                    n,
                    spec.language,
                    render_utterance(spec, ds.language(spec.language), &inv).samples,
                )
            })
            .collect();
        let deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));

        let mut verify_one = |n: usize, lang: LanguageId, samples: &[f32], reply: &ScoreReply| {
            let scored = match reply {
                ScoreReply::Scored(s) => s,
                ScoreReply::DeadlineExceeded => {
                    expired += 1;
                    println!("utt {n:>3} ({}): deadline exceeded", lang.name());
                    return;
                }
                other => {
                    if tolerate_failures {
                        tolerated += 1;
                        println!("utt {n:>3} ({}): failed ({other:?})", lang.name());
                        return;
                    }
                    eprintln!("error: utt {n} refused: {other:?}");
                    std::process::exit(1);
                }
            };
            let top = if scored.unknown {
                "unknown".to_string()
            } else {
                LanguageId::targets()[scored.decision].name().to_string()
            };
            println!(
                "utt {n:>3} ({}): {} (LLR {:+.3})",
                lang.name(),
                top,
                scored.llrs[scored.decision]
            );
            if let Some(span) = &scored.span {
                let stages: Vec<String> = span
                    .stages
                    .iter()
                    .map(|&(s, o)| format!("{}@{o}us", stage_name(s)))
                    .collect();
                println!("  trace {:#018x}: {}", span.trace_id, stages.join(" "));
            }
            if let Some(sys) = &local {
                let expect = sys.score(samples, &mut scratch);
                let same = expect.len() == scored.llrs.len()
                    && expect
                        .iter()
                        .zip(&scored.llrs)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    eprintln!(
                        "MISMATCH on utt {n}: local {expect:?} vs server {:?}",
                        scored.llrs
                    );
                    mismatches += 1;
                }
            }
        };

        let mut client = connect_with_retry(&addr);
        if inflight > 1 {
            let samples: Vec<Vec<f32>> = rendered.iter().map(|(_, _, s)| s.clone()).collect();
            let replies = or_die(
                client.score_all(&samples, inflight, deadline),
                "pipelined scoring failed",
            );
            for ((n, lang, samples), reply) in rendered.iter().zip(&replies) {
                verify_one(*n, *lang, samples, reply);
            }
        } else {
            for (n, lang, samples) in &rendered {
                let reply = loop {
                    let result = if traced {
                        client.score_traced(samples, deadline, 0)
                    } else {
                        client.score(samples)
                    };
                    match or_die(result, "score request failed") {
                        ScoreReply::Overloaded => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        r => break r,
                    }
                };
                verify_one(*n, *lang, samples, &reply);
            }
        }
        if stats || verify {
            print_peer_stats(&mut client);
        }
        // With --adapt, shutdown waits for the adaptation report below.
        if shutdown && !adapt {
            or_die(client.shutdown(), "shutdown request failed");
            println!("server acknowledged shutdown");
            shutdown = false;
        }

        if verify {
            if mismatches > 0 {
                eprintln!("verification FAILED: {mismatches}/{utts} mismatching utterances");
                std::process::exit(1);
            }
            println!(
                "verification OK: {} utterances bit-identical to the local pipeline \
                 ({expired} deadline-expired, {tolerated} failed-and-tolerated)",
                utts - expired - tolerated
            );
        } else if tolerate_failures {
            println!(
                "scoring done: {}/{utts} utterances scored, {tolerated} failed \
                 with typed statuses, {expired} deadline-expired",
                utts - expired - tolerated
            );
        }
    }

    if metrics || metrics_json {
        let mut client = connect_with_retry(&addr);
        let Some(entries) = or_die(client.metrics(), "metrics request failed") else {
            eprintln!("error: peer runs without telemetry (stats-v3 unsupported)");
            std::process::exit(1);
        };
        if metrics_json {
            let fields: Vec<String> = entries
                .iter()
                .map(|(name, value)| match value {
                    MetricValue::Counter(v) => {
                        format!("\"{name}\":{{\"kind\":\"counter\",\"value\":{v}}}")
                    }
                    MetricValue::Gauge(v) => {
                        format!("\"{name}\":{{\"kind\":\"gauge\",\"value\":{v}}}")
                    }
                    MetricValue::Histogram(h) => format!(
                        "\"{name}\":{{\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                        h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999
                    ),
                    MetricValue::Sketch(s) => format!(
                        "\"{name}\":{{\"kind\":\"sketch\",\"count\":{},\"mean\":{},\"m2\":{}}}",
                        s.count,
                        if s.mean.is_finite() { s.mean } else { 0.0 },
                        if s.m2.is_finite() { s.m2 } else { 0.0 }
                    ),
                })
                .collect();
            println!("{{{}}}", fields.join(","));
        } else {
            for (name, value) in &entries {
                match value {
                    MetricValue::Counter(v) => println!("metric {name} counter {v}"),
                    MetricValue::Gauge(v) => println!("metric {name} gauge {v}"),
                    MetricValue::Histogram(h) => println!(
                        "metric {name} histogram count={} sum={} max={} p50={} p90={} \
                         p99={} p999={}",
                        h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999
                    ),
                    MetricValue::Sketch(s) => println!(
                        "metric {name} sketch count={} mean={:.6} var={:.6}",
                        s.count,
                        s.mean,
                        s.variance()
                    ),
                }
            }
        }
    }

    if flight {
        let mut client = connect_with_retry(&addr);
        let Some(events) = or_die(client.flight(flight_drain), "flight request failed") else {
            eprintln!("error: peer runs without telemetry (flight recorder unsupported)");
            std::process::exit(1);
        };
        println!("flight recorder: {} events buffered", events.len());
        for ev in &events {
            println!("{}", ev.render());
        }
    }

    if wal_status {
        let mut client = connect_with_retry(&addr);
        let Some(w) = or_die(client.wal_status(), "wal-status request failed") else {
            eprintln!("error: peer runs without a WAL (wal-status unsupported)");
            std::process::exit(1);
        };
        // One parseable line; CI's crash-recovery drill greps it.
        println!(
            "wal-status: appended={} low_water={} buffered={} segments={} \
             replayed={} torn={} fsyncs={} lineage_head={} \
             lineage_entries={} lineage_retained={} lineage_bytes={} chain_ok={}",
            w.appended,
            w.low_water,
            w.buffered,
            w.segments,
            w.replayed,
            w.torn,
            w.fsyncs,
            w.lineage_head,
            w.lineage_entries,
            w.lineage_retained,
            w.lineage_bytes,
            w.chain_ok
        );
    }

    if let Some(generation) = rollback_to {
        let mut client = connect_with_retry(&addr);
        match or_die(client.rollback_to(generation), "rollback-to request failed") {
            Ok(ack) => println!(
                "rollback-to: restored={} serving_generation={} checksum={:#010x}",
                ack.restored, ack.serving, ack.checksum
            ),
            Err(s) => {
                eprintln!("error: rollback-to refused (status {s})");
                std::process::exit(1);
            }
        }
    }

    if adapt {
        let mut client = connect_with_retry(&addr);
        let report = or_die(client.adapt(), "adapt request failed");
        let outcome = match report.outcome {
            lre_serve::ADAPT_PROMOTED => "promoted",
            lre_serve::ADAPT_REJECTED_GUARD => "rejected_guard",
            lre_serve::ADAPT_INSUFFICIENT_DATA => "insufficient_data",
            _ => "failed",
        };
        println!(
            "adapt: outcome={outcome} generation={} selected={} drained={}",
            report.generation, report.selected, report.drained
        );
    }

    if rollback {
        let mut client = connect_with_retry(&addr);
        let ack = or_die(client.rollback(), "rollback request failed");
        println!(
            "rollback: rolled={} generation={}",
            ack.rolled, ack.generation
        );
    }

    if shutdown {
        let mut client = connect_with_retry(&addr);
        or_die(client.shutdown(), "shutdown request failed");
        println!("server acknowledged shutdown");
    }
}
