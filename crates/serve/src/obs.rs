//! The serving stack's telemetry bundle: one registry, one flight
//! recorder, and the engine's pre-registered series.
//!
//! Every serving process builds one [`ServeObs`] and threads it to the
//! engine and server through [`crate::server::ServerHooks::obs`]; there is
//! no way to run either without one. All hot-path series are resolved
//! to `Arc`s here, at construction, so recording in the engine loop never
//! touches the registry lock. What the queue and the scorer handle already
//! keep (depth high-water mark, model generation, installs) and the uptime
//! clock are bound as readers by [`crate::Engine::start`] and read when the
//! registry is snapshotted.
//!
//! The stats-v3 dump is the only counter format a process speaks.
//! [`StatsSnapshot`], [`PingReport`], [`FleetStats`] (with its
//! [`ReplicaStat`] rows) and [`WalStatusInfo`] are views over it, computed
//! by whoever holds a dump: the client ([`crate::Client::stats_v2`],
//! [`crate::Client::ping`], [`crate::Client::try_fleet_stats`],
//! [`crate::Client::wal_status`]), the engine ([`crate::Engine::stats`])
//! and the router. Every field of a view reads exactly one series, or
//! sums one over replicas. Metric names are part of the stats-v3 wire
//! contract and documented in `docs/OBSERVABILITY.md`:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `engine.requests` | counter | submissions seen, accepted or shed |
//! | `engine.rejected` | counter | submissions shed: queue full or connection window |
//! | `engine.expired` | counter | accepted requests shed because their deadline passed |
//! | `engine.failed` | counter | requests whose scorer panicked |
//! | `engine.bad_audio` | counter | scores refused `bad request` at the door for their samples (outside `engine.requests`) |
//! | `engine.queue.wait_us` | histogram | admission → a worker picked it up |
//! | `engine.latency_us` | histogram | admission → scored |
//! | `engine.stage.decode_us` | histogram | acoustic decode per utterance, busy time summed over subsystems |
//! | `engine.stage.supervector_us` | histogram | supervector build per utterance, likewise |
//! | `engine.stage.score_us` | histogram | SVM + fusion per utterance, likewise |
//! | `engine.fanout.tasks` | counter | per-subsystem tasks run |
//! | `engine.fanout.helped` | counter | of those, run by a worker other than the request's owner |
//! | `engine.fanout.join_wait_us` | histogram | owner asleep on tasks a helper still held |
//! | `engine.unknown` | counter | scored replies flagged open-set unknown |
//! | `engine.queue.max_depth` | gauge (read) | high-water mark of queue depth |
//! | `engine.uptime_us` | gauge (read) | time since the engine started |
//! | `engine.generation` | gauge (read) | generation of the installed model |
//! | `engine.swaps` | counter (read) | model installs, rollbacks included |
//! | `engine.rollbacks` | counter (read) | of those, rollbacks |
//! | `score.llr.top1.lang{NN}` | sketch | fused LLR of the winning language |
//!
//! [`WalStatusInfo`] reads the `wal.*` series a WAL-backed vote log
//! records (`lre_wal::WalObs`) and the `lineage.*` gauges a durable
//! adaptation controller binds to its chain. [`FleetStats`] reads a
//! router's dump: its `router.shed` counter and, per backend, the series
//! [`backend_series`] writes.

use crate::protocol::MetricsDump;
use lre_obs::{
    Counter, FlightRecorder, Histogram, HistogramSummary, MetricValue, Registry, Sketch,
};
use std::sync::{Arc, Mutex};

/// Default flight-recorder ring size for the serving binaries.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The process-wide telemetry handle.
pub struct ServeObs {
    pub registry: Arc<Registry>,
    pub flight: Arc<FlightRecorder>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) expired: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) bad_audio: Arc<Counter>,
    pub(crate) queue_wait_us: Arc<Histogram>,
    pub(crate) latency_us: Arc<Histogram>,
    pub(crate) decode_us: Arc<Histogram>,
    pub(crate) supervector_us: Arc<Histogram>,
    pub(crate) score_us: Arc<Histogram>,
    pub(crate) fanout_tasks: Arc<Counter>,
    pub(crate) fanout_helped: Arc<Counter>,
    pub(crate) fanout_join_wait_us: Arc<Histogram>,
    pub(crate) unknown: Arc<Counter>,
    /// Per-top-1-language fused-LLR sketches, registered on first use
    /// (the engine learns the language count from the scores themselves).
    lang_sketches: Mutex<Vec<Arc<Sketch>>>,
}

impl ServeObs {
    /// Build a fresh registry + recorder and pre-register the engine
    /// series. `flight_capacity` bounds the event ring.
    pub fn new(flight_capacity: usize) -> Arc<ServeObs> {
        let registry = Arc::new(Registry::new());
        Arc::new(ServeObs {
            flight: Arc::new(FlightRecorder::new(flight_capacity)),
            requests: registry.counter("engine.requests"),
            rejected: registry.counter("engine.rejected"),
            expired: registry.counter("engine.expired"),
            failed: registry.counter("engine.failed"),
            bad_audio: registry.counter("engine.bad_audio"),
            queue_wait_us: registry.histogram("engine.queue.wait_us"),
            latency_us: registry.histogram("engine.latency_us"),
            decode_us: registry.histogram("engine.stage.decode_us"),
            supervector_us: registry.histogram("engine.stage.supervector_us"),
            score_us: registry.histogram("engine.stage.score_us"),
            fanout_tasks: registry.counter("engine.fanout.tasks"),
            fanout_helped: registry.counter("engine.fanout.helped"),
            fanout_join_wait_us: registry.histogram("engine.fanout.join_wait_us"),
            unknown: registry.counter("engine.unknown"),
            lang_sketches: Mutex::new(Vec::new()),
            registry,
        })
    }

    /// The fused-LLR sketch for top-1 language `lang`, registering
    /// `score.llr.top1.lang{NN}` on first sight of that index. The lock
    /// is per scored utterance and uncontended in steady state.
    pub(crate) fn lang_sketch(&self, lang: usize) -> Arc<Sketch> {
        let mut cache = self.lang_sketches.lock().expect("lang sketches poisoned");
        while cache.len() <= lang {
            let name = format!("score.llr.top1.lang{:02}", cache.len());
            cache.push(self.registry.sketch(&name));
        }
        Arc::clone(&cache[lang])
    }
}

/// Series `name` of a dump (dumps are name-sorted: the registry snapshots
/// in name order and the wire decoder refuses any other).
fn series<'a>(dump: &'a MetricsDump, name: &str) -> Option<&'a MetricValue> {
    let at = dump.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok()?;
    Some(&dump[at].1)
}

/// Counter or gauge `name` of a dump.
fn scalar(dump: &MetricsDump, name: &str) -> Option<u64> {
    match series(dump, name)? {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
        _ => None,
    }
}

/// The engine's counters: the stats-v2 view of a stats-v3 dump (see
/// [`StatsSnapshot::from_dump`] for which series each field reads), and,
/// summed over replicas, the fleet aggregate of [`FleetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions seen (accepted + shed).
    pub requests: u64,
    /// Utterances scored to completion.
    pub completed: u64,
    /// Submissions refused because the queue (or a connection's inflight
    /// window) was full.
    pub rejected: u64,
    /// High-water mark of queue depth.
    pub max_queue_depth: u64,
    /// Sum of per-request latency (enqueue → scored), microseconds.
    pub latency_us_sum: u64,
    /// Worst per-request latency, microseconds.
    pub latency_us_max: u64,
    /// Engine uptime, microseconds (QPS = `completed / uptime`).
    pub uptime_us: u64,
    /// Accepted requests shed unscored because their deadline passed.
    pub expired: u64,
    /// Requests lost to scorer panics.
    pub failed: u64,
    /// Generation of the currently installed model (bumps on every hot
    /// swap, including rollbacks).
    pub generation: u64,
    /// Model installs performed over the engine's lifetime.
    pub swaps: u64,
    /// How many of those installs were guard rollbacks.
    pub rollbacks: u64,
    /// Completed utterances flagged open-set `unknown` (top LLR below the
    /// configured threshold). Always 0 without `--unknown-threshold`.
    /// Counted inside `completed` — an unknown is still a scored reply.
    pub unknown: u64,
}

impl StatsSnapshot {
    /// The engine's view of `dump`: `completed`, `latency_us_sum` and
    /// `latency_us_max` are `engine.latency_us`'s count, sum and max,
    /// `max_queue_depth` is `engine.queue.max_depth`, and every other field
    /// is the `engine.*` series of its own name. `None` when the dump has
    /// no `engine.requests` — a router's, which serves no engine.
    pub fn from_dump(dump: &MetricsDump) -> Option<StatsSnapshot> {
        StatsSnapshot::under(dump, "")
    }

    /// The same view of the series whose names start with `prefix`.
    fn under(dump: &MetricsDump, prefix: &str) -> Option<StatsSnapshot> {
        let at = |name: &str| format!("{prefix}{name}");
        let n = |name| scalar(dump, &at(name)).unwrap_or(0);
        let latency = match series(dump, &at("engine.latency_us")) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistogramSummary::default(),
        };
        Some(StatsSnapshot {
            requests: scalar(dump, &at("engine.requests"))?,
            completed: latency.count,
            rejected: n("engine.rejected"),
            max_queue_depth: n("engine.queue.max_depth"),
            latency_us_sum: latency.sum,
            latency_us_max: latency.max,
            uptime_us: n("engine.uptime_us"),
            expired: n("engine.expired"),
            failed: n("engine.failed"),
            generation: n("engine.generation"),
            swaps: n("engine.swaps"),
            rollbacks: n("engine.rollbacks"),
            unknown: n("engine.unknown"),
        })
    }
}

/// The health summary: four numbers from the engine counters, as
/// [`PingReport::from_stats`] derives them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PingReport {
    /// Serving model generation.
    pub generation: u64,
    /// Requests admitted but not yet resolved (completed / rejected /
    /// expired / failed).
    pub inflight: u64,
    /// Load-shedding refusals so far: queue-full and window rejections
    /// plus deadline expirations, each counted once.
    pub shed: u64,
    /// Successfully scored utterances so far.
    pub completed: u64,
}

impl PingReport {
    /// Derive the summary from engine counters: one server's, or a fleet
    /// aggregate.
    pub fn from_stats(s: &StatsSnapshot) -> PingReport {
        PingReport {
            generation: s.generation,
            inflight: s
                .requests
                .saturating_sub(s.completed + s.rejected + s.expired + s.failed),
            shed: s.rejected + s.expired,
            completed: s.completed,
        }
    }
}

/// One replica's row in a fleet breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStat {
    /// Backend address as the router dials it (e.g. `127.0.0.1:7701`).
    pub addr: String,
    /// Whether the router routes to this replica and it answered the
    /// router's scrape for this dump.
    pub healthy: bool,
    /// The replica's serving model generation, as of the last probe that
    /// answered (for a healthy row, the scrape for this dump).
    pub generation: u64,
    /// Requests the router has outstanding on this replica.
    pub inflight: u64,
    /// Utterances the replica has scored, by its own count, as of the same
    /// probe as `generation`.
    pub completed: u64,
    /// Load-shedding refusals the replica has issued (healthy rows; 0
    /// otherwise).
    pub shed: u64,
}

/// A router's fleet: the aggregate counter set (summed over the healthy
/// replicas, plus the router's own sheds; `generation` is the lowest a
/// healthy replica serves, so a mixed fleet is visible) and one row per
/// backend, in the router's order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    pub aggregate: StatsSnapshot,
    pub replicas: Vec<ReplicaStat>,
}

/// Name of router-side series `what` of the backend at `addr`.
fn backend_gauge(addr: &str, what: &str) -> String {
    format!("router.backend.{addr}.{what}")
}

/// The prefix before every series of the dump the replica at `addr`
/// answered a router's scrape with.
fn replica_prefix(addr: &str) -> String {
    format!("replica.{addr}.")
}

/// The series a router's stats-v3 reply carries for its backend at
/// `addr`, as [`FleetStats::from_dump`] reads them back: five gauges —
/// `router.backend.{addr}.index` (its place in the router's order),
/// `.inflight` (requests the router has outstanding on it), `.routable`
/// (1 or 0), and `.probe.generation` / `.probe.completed` (of the
/// [`StatsSnapshot`] view of `last_probe`, the last dump the replica
/// answered a probe with) — and, when `answered_now`, every series of
/// `last_probe` under `replica.{addr}.`.
pub fn backend_series(
    addr: &str,
    index: usize,
    inflight: usize,
    routable: bool,
    last_probe: Option<&MetricsDump>,
    answered_now: bool,
) -> MetricsDump {
    let last = last_probe
        .and_then(StatsSnapshot::from_dump)
        .unwrap_or_default();
    let gauges = [
        ("index", index as u64),
        ("inflight", inflight as u64),
        ("routable", u64::from(routable)),
        ("probe.generation", last.generation),
        ("probe.completed", last.completed),
    ];
    let mut series: MetricsDump = gauges
        .map(|(what, v)| (backend_gauge(addr, what), MetricValue::Gauge(v)))
        .into();
    let prefix = replica_prefix(addr);
    let answered = last_probe.filter(|_| answered_now).into_iter().flatten();
    series.extend(answered.map(|(name, v)| (format!("{prefix}{name}"), v.clone())));
    series
}

impl FleetStats {
    /// The fleet view of a router's dump. Backends are the
    /// `router.backend.{addr}.index` gauges, in index order. A row is
    /// healthy when its replica's dump is in this one under
    /// `replica.{addr}.` with an `engine.requests` series; `generation` and
    /// `completed` are the backend's `probe.generation` / `probe.completed`
    /// gauges, `inflight` its `inflight` gauge, and `shed` the replica view's
    /// [`PingReport::shed`]. The aggregate sums the healthy
    /// replicas' [`StatsSnapshot`] views (maximum for `max_queue_depth`,
    /// `latency_us_max` and `uptime_us`) and adds `router.shed` to
    /// `requests` and `rejected`. `None` when the dump has no
    /// `router.shed`: the peer is not a router.
    pub fn from_dump(dump: &MetricsDump) -> Option<FleetStats> {
        let router_shed = scalar(dump, "router.shed")?;
        let mut backends: Vec<(u64, &str)> = dump
            .iter()
            .filter_map(|(name, _)| {
                let addr = name
                    .strip_prefix("router.backend.")?
                    .strip_suffix(".index")?;
                Some((scalar(dump, name)?, addr))
            })
            .collect();
        backends.sort_unstable();
        let mut agg = StatsSnapshot {
            requests: router_shed,
            rejected: router_shed,
            ..StatsSnapshot::default()
        };
        let mut replicas = Vec::with_capacity(backends.len());
        for (_, addr) in backends {
            let gauge = |what| scalar(dump, &backend_gauge(addr, what)).unwrap_or(0);
            let view = StatsSnapshot::under(dump, &replica_prefix(addr));
            if let Some(s) = &view {
                agg.requests += s.requests;
                agg.completed += s.completed;
                agg.rejected += s.rejected;
                agg.max_queue_depth = agg.max_queue_depth.max(s.max_queue_depth);
                agg.latency_us_sum += s.latency_us_sum;
                agg.latency_us_max = agg.latency_us_max.max(s.latency_us_max);
                agg.uptime_us = agg.uptime_us.max(s.uptime_us);
                agg.expired += s.expired;
                agg.failed += s.failed;
                agg.swaps += s.swaps;
                agg.rollbacks += s.rollbacks;
                agg.unknown += s.unknown;
            }
            replicas.push(ReplicaStat {
                addr: addr.to_string(),
                healthy: view.is_some(),
                generation: gauge("probe.generation"),
                inflight: gauge("inflight"),
                completed: gauge("probe.completed"),
                shed: view.map_or(0, |s| PingReport::from_stats(&s).shed),
            });
        }
        // The fleet's committed floor: the lowest generation a healthy
        // replica serves.
        let healthy = replicas.iter().filter(|r| r.healthy);
        agg.generation = healthy.map(|r| r.generation).min().unwrap_or(0);
        Some(FleetStats {
            aggregate: agg,
            replicas,
        })
    }
}

/// The durability tier's state: WAL watermarks and recovery counters plus
/// the generation-lineage chain summary, as a view over a stats-v3 dump.
/// A process without a lineage store reads zeroed lineage fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStatusInfo {
    /// Total vote records ever appended (the WAL's next sequence number).
    pub appended: u64,
    /// First sequence number still logically in the log.
    pub low_water: u64,
    /// Records currently buffered in the WAL (`appended - low_water`).
    pub buffered: u64,
    /// Log files holding records: 1, or 0 while the log is empty.
    pub segments: u64,
    /// Records replayed by this process's crash recovery.
    pub replayed: u64,
    /// Torn tail records skipped by this process's crash recovery.
    pub torn: u64,
    /// fsyncs issued since this process opened the WAL.
    pub fsyncs: u64,
    /// Newest generation in the lineage chain.
    pub lineage_head: u64,
    /// Chain entries, pruned included.
    pub lineage_entries: u32,
    /// Entries whose sealed bundle bytes are still on disk.
    pub lineage_retained: u32,
    /// Bytes held by retained generations.
    pub lineage_bytes: u64,
    /// Whether the chain is sound: true by construction, because the
    /// lineage store refuses to open or append a broken chain.
    pub chain_ok: bool,
}

impl WalStatusInfo {
    /// The durability view of `dump`: `appended` is `wal.next_seq`,
    /// `low_water` `wal.low_water`, `replayed` / `torn` / `fsyncs` the
    /// `wal.replayed_records` / `wal.torn_records` / `wal.fsyncs`
    /// counters, and each `lineage_*` field the `lineage.*` gauge of its
    /// name (`lineage_bytes` is `lineage.bytes`). `None` when the dump has
    /// no `wal.next_seq`: the process runs without a WAL.
    pub fn from_dump(dump: &MetricsDump) -> Option<WalStatusInfo> {
        let n = |name| scalar(dump, name).unwrap_or(0);
        let appended = scalar(dump, "wal.next_seq")?;
        let low_water = n("wal.low_water");
        let buffered = appended.saturating_sub(low_water);
        Some(WalStatusInfo {
            appended,
            low_water,
            buffered,
            // One file, present in this count while it holds records.
            segments: u64::from(buffered > 0),
            replayed: n("wal.replayed_records"),
            torn: n("wal.torn_records"),
            fsyncs: n("wal.fsyncs"),
            lineage_head: n("lineage.head"),
            lineage_entries: n("lineage.entries") as u32,
            lineage_retained: n("lineage.retained") as u32,
            lineage_bytes: n("lineage.bytes"),
            chain_ok: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;
    impl crate::system::Scorer for Silent {
        fn score_utt(
            &self,
            samples: &[f32],
            _scratch: &mut lre_lattice::DecodeScratch,
        ) -> crate::system::ScoreDetail {
            crate::system::ScoreDetail::from_fused(samples, vec![0.0])
        }
    }

    /// Every engine series is in the dump of an engine that has not seen a
    /// request: the recorded ones from `ServeObs::new`, the read ones from
    /// `Engine::start`.
    #[test]
    fn engine_series_are_preregistered_and_sorted() {
        let obs = ServeObs::new(8);
        let handle = Arc::new(crate::ScorerHandle::new(Arc::new(Silent), 0));
        let engine = crate::Engine::start(Default::default(), handle, None, Arc::clone(&obs));
        let names: Vec<String> = obs
            .registry
            .snapshot()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        engine.shutdown();
        assert_eq!(
            names,
            [
                "engine.bad_audio",
                "engine.expired",
                "engine.failed",
                "engine.fanout.helped",
                "engine.fanout.join_wait_us",
                "engine.fanout.tasks",
                "engine.generation",
                "engine.latency_us",
                "engine.queue.depth",
                "engine.queue.max_depth",
                "engine.queue.wait_us",
                "engine.rejected",
                "engine.requests",
                "engine.rollbacks",
                "engine.stage.decode_us",
                "engine.stage.score_us",
                "engine.stage.supervector_us",
                "engine.swaps",
                "engine.unknown",
                "engine.uptime_us",
            ]
        );
    }

    fn wal_dump(next_seq: u64, low_water: u64) -> MetricsDump {
        let r = Registry::new();
        r.gauge("wal.next_seq").set(next_seq);
        r.gauge("wal.low_water").set(low_water);
        r.snapshot()
    }

    #[test]
    fn views_need_their_anchor_series() {
        assert_eq!(StatsSnapshot::from_dump(&Vec::new()), None);
        assert_eq!(
            WalStatusInfo::from_dump(&ServeObs::new(8).registry.snapshot()),
            None
        );
        let empty = StatsSnapshot::from_dump(&ServeObs::new(8).registry.snapshot());
        assert_eq!(empty, Some(StatsSnapshot::default()));
        let wal = WalStatusInfo::from_dump(&wal_dump(7, 4)).expect("a WAL dump");
        assert_eq!((wal.appended, wal.buffered, wal.segments), (7, 3, 1));
        assert_eq!((wal.lineage_head, wal.lineage_entries), (0, 0));
        assert!(wal.chain_ok);
        let drained = WalStatusInfo::from_dump(&wal_dump(7, 7)).expect("a WAL dump");
        assert_eq!((drained.buffered, drained.segments), (0, 0));
    }

    fn stats_example() -> StatsSnapshot {
        StatsSnapshot {
            requests: 100,
            completed: 80,
            rejected: 5,
            max_queue_depth: 12,
            latency_us_sum: 123_456,
            latency_us_max: 9_999,
            uptime_us: 77,
            expired: 3,
            failed: 2,
            generation: 4,
            swaps: 3,
            rollbacks: 1,
            unknown: 6,
        }
    }

    #[test]
    fn ping_report_is_derived_from_the_counters() {
        // 100 admitted, 80+5+3+2 resolved → 10 in flight; shed counts
        // queue and window rejections + expirations.
        assert_eq!(
            PingReport::from_stats(&stats_example()),
            PingReport {
                generation: 4,
                inflight: 10,
                shed: 8,
                completed: 80,
            }
        );
    }

    /// A replica's engine dump with `requests` admitted, `completed`
    /// scored in 10 µs each, serving `generation`.
    fn replica_dump(requests: u64, completed: u64, generation: u64) -> MetricsDump {
        let r = Registry::new();
        r.counter("engine.requests").add(requests);
        r.counter("engine.rejected").add(requests - completed);
        for _ in 0..completed {
            r.histogram("engine.latency_us").record(10);
        }
        r.gauge("engine.generation").set(generation);
        r.snapshot()
    }

    /// A router's dump as its stats-v3 handler builds it: backends in
    /// `rows` order, `(addr, last probe, answered now)`, one request in
    /// flight on each.
    fn router_dump(shed: u64, rows: &[(&str, MetricsDump, bool)]) -> MetricsDump {
        let r = Registry::new();
        r.counter("router.shed").add(shed);
        r.histogram("router.backend.0.0.0.0:1.latency_us");
        let mut dump = r.snapshot();
        for (index, (addr, last, now)) in rows.iter().enumerate() {
            dump.extend(backend_series(addr, index, 1, *now, Some(last), *now));
        }
        dump.sort_by(|a, b| a.0.cmp(&b.0));
        dump
    }

    #[test]
    fn fleet_view_sums_the_answering_replicas_in_router_order() {
        assert_eq!(FleetStats::from_dump(&replica_dump(3, 2, 1)), None);
        let dump = router_dump(
            4,
            &[
                ("10.0.0.9:80", replica_dump(10, 7, 3), true),
                ("10.0.0.1:80", replica_dump(50, 40, 1), false),
                ("10.0.0.5:80", replica_dump(6, 6, 2), true),
            ],
        );
        // Engine and WAL views read exact names, never a replica's copy.
        assert_eq!(StatsSnapshot::from_dump(&dump), None);
        assert_eq!(WalStatusInfo::from_dump(&dump), None);
        let fleet = FleetStats::from_dump(&dump).expect("a router dump");
        let addrs: Vec<&str> = fleet.replicas.iter().map(|r| r.addr.as_str()).collect();
        assert_eq!(addrs, ["10.0.0.9:80", "10.0.0.1:80", "10.0.0.5:80"]);
        assert_eq!(
            fleet.replicas[1],
            ReplicaStat {
                addr: "10.0.0.1:80".into(),
                healthy: false,
                generation: 1,
                inflight: 1,
                completed: 40,
                shed: 0,
            }
        );
        assert_eq!((fleet.replicas[0].shed, fleet.replicas[2].shed), (3, 0));
        let agg = fleet.aggregate;
        assert_eq!((agg.requests, agg.rejected, agg.completed), (20, 7, 13));
        assert_eq!(agg.generation, 2, "the healthy floor");
        assert_eq!(agg.latency_us_sum, 130);
        let ping = PingReport::from_stats(&agg);
        assert_eq!((ping.inflight, ping.shed), (0, 7));
        // No healthy replica: the router's sheds alone, generation 0.
        let lost = [("a:1", replica_dump(9, 9, 5), false)];
        let empty = FleetStats::from_dump(&router_dump(2, &lost)).expect("a router dump");
        assert_eq!(
            (empty.aggregate.requests, empty.aggregate.generation),
            (2, 0)
        );
    }

    #[test]
    fn lang_sketches_register_on_demand() {
        let obs = ServeObs::new(8);
        obs.lang_sketch(2).record(1.5);
        obs.lang_sketch(0).record(-0.5);
        obs.lang_sketch(2).record(2.5);
        let snap = obs.registry.snapshot();
        let sketches: Vec<(&str, u64)> = snap
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Sketch(s) => Some((n.as_str(), s.count)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sketches,
            [
                ("score.llr.top1.lang00", 1),
                ("score.llr.top1.lang01", 0),
                ("score.llr.top1.lang02", 2),
            ]
        );
    }
}
