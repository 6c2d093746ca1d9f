//! The serving stack's telemetry bundle: one registry, one flight
//! recorder, and the engine's pre-registered series.
//!
//! Every serving process builds one [`ServeObs`] and threads it to the
//! engine and server through [`crate::server::ServerHooks::obs`]; there is
//! no way to run either without one. All hot-path series are resolved
//! to `Arc`s here, at construction, so recording in the engine loop never
//! touches the registry lock. The engine keeps no other counters: the
//! stats-v2 reply ([`crate::Engine::stats`]) is read from these series.
//! Metric names are part of the stats-v3 wire contract and documented in
//! `docs/OBSERVABILITY.md`:
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
//! | `engine.traced` | counter | requests that carried a trace id |
//! | `engine.unknown` | counter | scored replies flagged open-set unknown |
//! | `score.llr.top1.lang{NN}` | sketch | fused LLR of the winning language |

use lre_obs::{Counter, FlightRecorder, Histogram, Registry, Sketch};
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
    pub(crate) traced: Arc<Counter>,
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
            traced: registry.counter("engine.traced"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use lre_obs::MetricValue;

    #[test]
    fn engine_series_are_preregistered_and_sorted() {
        let obs = ServeObs::new(8);
        let names: Vec<String> = obs
            .registry
            .snapshot()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "engine.expired",
                "engine.failed",
                "engine.fanout.helped",
                "engine.fanout.join_wait_us",
                "engine.fanout.tasks",
                "engine.latency_us",
                "engine.queue.wait_us",
                "engine.rejected",
                "engine.requests",
                "engine.shed_global",
                "engine.stage.decode_us",
                "engine.stage.score_us",
                "engine.stage.supervector_us",
                "engine.traced",
                "engine.unknown",
            ]
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
