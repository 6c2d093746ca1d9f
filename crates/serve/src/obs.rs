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
//! [`StatsSnapshot`] and [`WalStatusInfo`] are views over it, computed by
//! whoever holds a dump: the client ([`crate::Client::stats_v2`],
//! [`crate::Client::wal_status`]), the engine ([`crate::Engine::stats`])
//! and the router's fleet scrape. Every field of either view reads exactly
//! one series. Metric names are part of the stats-v3 wire contract and
//! documented in `docs/OBSERVABILITY.md`:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `engine.requests` | counter | submissions seen, accepted or shed |
//! | `engine.rejected` | counter | submissions shed: queue full, connection window or global cap |
//! | `engine.shed_global` | counter | of those, shed by the global admission cap |
//! | `engine.expired` | counter | accepted requests shed because their deadline passed |
//! | `engine.failed` | counter | requests whose scorer returned an error or panicked |
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
//! adaptation controller binds to its chain.

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
    pub(crate) shed_global: Arc<Counter>,
    pub(crate) expired: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
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
            shed_global: registry.counter("engine.shed_global"),
            expired: registry.counter("engine.expired"),
            failed: registry.counter("engine.failed"),
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
/// summed over replicas, the router's fleet-stats aggregate.
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
    /// Requests lost to scorer failures.
    pub failed: u64,
    /// Subset of `rejected` shed by the server's *global* admission cap
    /// (`--max-global-inflight`), counted across every connection.
    pub shed_global: u64,
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
        let n = |name| scalar(dump, name).unwrap_or(0);
        let latency = match series(dump, "engine.latency_us") {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistogramSummary::default(),
        };
        Some(StatsSnapshot {
            requests: scalar(dump, "engine.requests")?,
            completed: latency.count,
            rejected: n("engine.rejected"),
            max_queue_depth: n("engine.queue.max_depth"),
            latency_us_sum: latency.sum,
            latency_us_max: latency.max,
            uptime_us: n("engine.uptime_us"),
            expired: n("engine.expired"),
            failed: n("engine.failed"),
            shed_global: n("engine.shed_global"),
            generation: n("engine.generation"),
            swaps: n("engine.swaps"),
            rollbacks: n("engine.rollbacks"),
            unknown: n("engine.unknown"),
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
        ) -> Result<crate::system::ScoreDetail, lre_artifact::ArtifactError> {
            Ok(crate::system::ScoreDetail::from_fused(samples, vec![0.0]))
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
                "engine.expired",
                "engine.failed",
                "engine.fanout.helped",
                "engine.fanout.join_wait_us",
                "engine.fanout.tasks",
                "engine.generation",
                "engine.latency_us",
                "engine.queue.max_depth",
                "engine.queue.wait_us",
                "engine.rejected",
                "engine.requests",
                "engine.rollbacks",
                "engine.shed_global",
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
