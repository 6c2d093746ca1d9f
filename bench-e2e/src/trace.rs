//! The traced phase's views from outside the program: the servers' own
//! counters scraped over the wire, window-1 probes over TCP paired with
//! the layer walk, and the codec functions timed in this process.

use crate::children::Fleet;
use crate::stats::median;
use crate::walk::Walked;
use crate::{metric, Metrics};
use lre_obs::{HistogramSummary, MetricValue};
use lre_serve::protocol::{
    decode_request, decode_score_reply_v2, encode_request, encode_score_ok_v2,
};
use lre_serve::{Client, PipelinedClient, Request, ScoreReply, ScoredUtt};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

fn push(out: &mut Metrics, name: &str, value: f64) {
    out.push(metric(name, value));
}

/// Histograms named `prefix…suffix` of several processes read as one:
/// counts and sums add, percentiles are averaged weighted by count.
fn merged(dumps: &[Vec<(String, MetricValue)>], prefix: &str, suffix: &str) -> HistogramSummary {
    let mut all = HistogramSummary::default();
    let (mut p50, mut p99) = (0.0, 0.0);
    for (name, value) in dumps.iter().flatten() {
        if let MetricValue::Histogram(h) = value {
            if name.starts_with(prefix) && name.ends_with(suffix) {
                all.count += h.count;
                all.sum += h.sum;
                all.max = all.max.max(h.max);
                p50 += (h.p50 * h.count) as f64;
                p99 += (h.p99 * h.count) as f64;
            }
        }
    }
    if all.count > 0 {
        all.p50 = (p50 / all.count as f64) as u64;
        all.p99 = (p99 / all.count as f64) as u64;
    }
    all
}

fn counter(dumps: &[Vec<(String, MetricValue)>], wanted: &str) -> f64 {
    dumps
        .iter()
        .flatten()
        .filter(|(name, _)| name == wanted)
        .map(|(_, v)| match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => *c as f64,
            _ => 0.0,
        })
        .sum()
}

/// The `engine.*` and `router.*` counters after the timed window. A
/// series the program does not (or no longer does) export reads 0; the
/// scrape itself failing is an error.
pub fn scrape_counters(fleet: &Fleet) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    let mut dumps = Vec::new();
    let (mut rejected, mut expired, mut failed, mut depth) = (0, 0, 0, 0);
    for &addr in &fleet.servers {
        let mut c = Client::connect(addr)?;
        dumps.push(c.metrics()?.unwrap_or_default());
        let s = c.stats_v2()?;
        rejected += s.rejected;
        expired += s.expired;
        failed += s.failed;
        depth = depth.max(s.max_queue_depth);
    }
    let wait = merged(&dumps, "engine.queue.wait_us", "");
    let fill = merged(&dumps, "engine.batch.fill", "");
    push(&mut out, "engine.queue_wait_p50_us", wait.p50 as f64);
    push(&mut out, "engine.queue_wait_p99_us", wait.p99 as f64);
    push(
        &mut out,
        "engine.batch_fill_mean",
        fill.sum as f64 / fill.count.max(1) as f64,
    );
    push(
        &mut out,
        "engine.batches",
        counter(&dumps, "engine.batch.formed"),
    );
    push(&mut out, "engine.max_queue_depth", depth as f64);
    push(
        &mut out,
        "engine.latency_p50_us",
        merged(&dumps, "engine.latency_us", "").p50 as f64,
    );
    push(
        &mut out,
        "engine.decode_p50_us",
        merged(&dumps, "engine.stage.decode_us", "").p50 as f64,
    );
    push(&mut out, "engine.rejected", rejected as f64);
    push(&mut out, "engine.expired", expired as f64);
    push(&mut out, "engine.failed", failed as f64);

    let (mut imbalance, mut ejected, mut backend_p50) = (0.0, 0.0, 0.0);
    if fleet.servers.len() > 1 {
        let mut router = Client::connect(fleet.front)?;
        if let Some(stats) = router.try_fleet_stats()? {
            let done: Vec<u64> = stats.replicas.iter().map(|r| r.completed).collect();
            let total: u64 = done.iter().sum();
            let spread = done.iter().max().unwrap_or(&0) - done.iter().min().unwrap_or(&0);
            imbalance = spread as f64 / total.max(1) as f64;
        }
        let dump = [router.metrics()?.unwrap_or_default()];
        ejected = counter(&dump, "router.backend.ejected");
        backend_p50 = merged(&dump, "router.backend.", ".latency_us").p50 as f64;
    }
    push(&mut out, "router.replica_imbalance", imbalance);
    push(&mut out, "router.ejected", ejected);
    push(&mut out, "router.backend_latency_p50_us", backend_p50);
    Ok(out)
}

/// Round-trip time in µs of each utterance, one at a time, and the last
/// scored reply (the codec timing reuses it). Every reply must carry the
/// reference row bit for bit.
fn probe(
    addr: SocketAddr,
    utts: &[Vec<f32>],
    reference: &[Vec<f32>],
) -> io::Result<(Vec<f64>, Option<ScoredUtt>)> {
    let mut client = PipelinedClient::connect(addr)?;
    let mut rtt = Vec::with_capacity(utts.len());
    let mut last = None;
    for (utt, want) in utts.iter().zip(reference) {
        let started = Instant::now();
        client.submit(utt, None)?;
        let (_, reply) = client.recv()?;
        rtt.push(started.elapsed().as_secs_f64() * 1e6);
        match reply {
            ScoreReply::Scored(s) if crate::same_bits(&s.llrs, want) => last = Some(s),
            other => {
                return Err(io::Error::other(format!(
                    "probe reply is not the reference score: {other:?}"
                )));
            }
        }
    }
    Ok((rtt, last))
}

fn paired_median(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>())
}

/// Window-1 probes against the live processes with the walked utterances,
/// paired per utterance with the walk's `scorer.whole_us`, and the four
/// codec functions timed on the same requests and a real reply.
pub fn probes(fleet: &Fleet, utts: &[Vec<f32>], walked: &Walked) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    let (direct, scored) = probe(fleet.servers[0], utts, &walked.reference)?;
    push(&mut out, "serve.rtt_us", median(&direct));
    push(
        &mut out,
        "serve.overhead_us",
        paired_median(&direct, &walked.whole_us),
    );
    if fleet.servers.len() > 1 {
        let (routed, _) = probe(fleet.front, utts, &walked.reference)?;
        push(&mut out, "router.rtt_us", median(&routed));
        push(&mut out, "router.hop_us", paired_median(&routed, &direct));
    } else {
        push(&mut out, "router.rtt_us", 0.0);
        push(&mut out, "router.hop_us", 0.0);
    }

    let scored = scored.ok_or_else(|| io::Error::other("no probe was sent"))?;
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut bytes = 0;
    for (i, utt) in utts.iter().enumerate() {
        let request = Request::ScoreV2 {
            id: i as u64,
            deadline_ms: 0,
            samples: utt.clone(),
        };
        let mut lap = |slot: usize, started: Instant| {
            times[slot].push(started.elapsed().as_secs_f64() * 1e6);
        };
        let t = Instant::now();
        let wire = std::hint::black_box(encode_request(&request));
        lap(0, t);
        let t = Instant::now();
        let decoded = std::hint::black_box(decode_request(&wire));
        lap(1, t);
        let t = Instant::now();
        let reply = std::hint::black_box(encode_score_ok_v2(i as u64, &scored));
        lap(2, t);
        let t = Instant::now();
        let back = std::hint::black_box(decode_score_reply_v2(&reply));
        lap(3, t);
        if decoded.is_err() || back.is_err() {
            return Err(io::Error::other("codec round trip failed"));
        }
        bytes += wire.len();
    }
    push(&mut out, "protocol.encode_request_us", median(&times[0]));
    push(&mut out, "protocol.decode_request_us", median(&times[1]));
    push(&mut out, "protocol.encode_reply_us", median(&times[2]));
    push(&mut out, "protocol.decode_reply_us", median(&times[3]));
    push(
        &mut out,
        "protocol.request_bytes",
        bytes as f64 / utts.len().max(1) as f64,
    );
    Ok(out)
}

/// One adaptation cycle, requested and timed from outside.
pub fn adapt_cycle(fleet: &Fleet) -> io::Result<Metrics> {
    let mut client = PipelinedClient::connect(fleet.front)?;
    let started = Instant::now();
    let report = client.adapt()?;
    let mut out = Metrics::new();
    push(
        &mut out,
        "adapt.cycle_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    push(&mut out, "adapt.drained", f64::from(report.drained));
    push(&mut out, "adapt.selected", f64::from(report.selected));
    push(&mut out, "adapt.outcome", f64::from(report.outcome));
    Ok(out)
}
