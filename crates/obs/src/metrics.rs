//! Named metric series and the registry that snapshots them.
//!
//! Series are registered once (typically at startup) and the returned
//! `Arc` is held by the hot path, so recording never touches the
//! registry lock. A value its owner already keeps (a queue's high-water
//! mark, a model generation, a clock) is exported instead by binding a
//! reader to a name ([`Registry::counter_fn`], [`Registry::gauge_fn`]),
//! so nothing is recorded twice. A [`Registry::snapshot`] walks the name
//! map, loads every series with relaxed atomics, calls every reader, and
//! returns the entries in name-sorted order — the exact order the
//! stats-v3 wire frame and `lre-client --metrics` print.

use crate::hist::{Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (queue depth, inflight, generation).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A Welford running-moments sketch: count, mean, and M2 (the sum of
/// squared deviations, so `variance = m2 / count`). The serving stack
/// keeps one per top-1 language over the fused detection LLR — the
/// score-distribution drift signal the adaptation loop can key off.
///
/// Updates take a short mutex (three f64 field writes); this is recorded
/// once per scored utterance, not per sample, so the lock is never
/// contended for longer than the update itself.
#[derive(Default)]
pub struct Sketch {
    state: Mutex<SketchState>,
}

#[derive(Clone, Copy, Default)]
struct SketchState {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Sketch {
    pub fn new() -> Sketch {
        Sketch::default()
    }

    pub fn record(&self, x: f64) {
        let mut s = self.state.lock().expect("sketch poisoned");
        s.count += 1;
        let delta = x - s.mean;
        s.mean += delta / s.count as f64;
        s.m2 += delta * (x - s.mean);
    }

    pub fn summary(&self) -> SketchSummary {
        let s = self.state.lock().expect("sketch poisoned");
        SketchSummary {
            count: s.count,
            mean: s.mean,
            m2: s.m2,
        }
    }
}

/// The three numbers a sketch puts on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SketchSummary {
    pub count: u64,
    pub mean: f64,
    pub m2: f64,
}

impl SketchSummary {
    /// Population variance (`0` while empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// Reads a value its owner keeps, at snapshot time.
type Reader = Arc<dyn Fn() -> u64 + Send + Sync>;

/// One registered series, as held by the registry.
#[derive(Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Sketch(Arc<Sketch>),
    ReadCounter(Reader),
    ReadGauge(Reader),
}

impl Series {
    fn value(&self) -> MetricValue {
        match self {
            Series::Counter(c) => MetricValue::Counter(c.get()),
            Series::Gauge(g) => MetricValue::Gauge(g.get()),
            Series::Histogram(h) => MetricValue::Histogram(h.summary()),
            Series::Sketch(sk) => MetricValue::Sketch(sk.summary()),
            Series::ReadCounter(read) => MetricValue::Counter(read()),
            Series::ReadGauge(read) => MetricValue::Gauge(read()),
        }
    }
}

/// A point-in-time value of one series (what goes on the wire).
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSummary),
    Sketch(SketchSummary),
}

impl MetricValue {
    /// Stable kind tag, shared by the wire encoding and the human dump.
    pub fn kind(&self) -> u8 {
        match self {
            MetricValue::Counter(_) => 0,
            MetricValue::Gauge(_) => 1,
            MetricValue::Histogram(_) => 2,
            MetricValue::Sketch(_) => 3,
        }
    }
}

/// Name → series map. Registration is get-or-create and idempotent;
/// re-registering a name as a different kind is a programming error and
/// panics (metric names are compile-time constants in this codebase).
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<String, Series>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.series.lock().expect("registry poisoned");
        let s = map
            .entry(name.to_string())
            .or_insert_with(|| Series::Counter(Arc::new(Counter::new())));
        match s {
            Series::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.series.lock().expect("registry poisoned");
        let s = map
            .entry(name.to_string())
            .or_insert_with(|| Series::Gauge(Arc::new(Gauge::new())));
        match s {
            Series::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.series.lock().expect("registry poisoned");
        let s = map
            .entry(name.to_string())
            .or_insert_with(|| Series::Histogram(Arc::new(Histogram::new())));
        match s {
            Series::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    pub fn sketch(&self, name: &str) -> Arc<Sketch> {
        let mut map = self.series.lock().expect("registry poisoned");
        let s = map
            .entry(name.to_string())
            .or_insert_with(|| Series::Sketch(Arc::new(Sketch::new())));
        match s {
            Series::Sketch(sk) => Arc::clone(sk),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Export a count its owner already keeps as counter `name`: `read`
    /// is called at every snapshot. Binding a bound name again replaces
    /// the reader (the latest owner wins).
    pub fn counter_fn(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.bind(name, Series::ReadCounter(Arc::new(read)));
    }

    /// [`Registry::counter_fn`] for a level.
    pub fn gauge_fn(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.bind(name, Series::ReadGauge(Arc::new(read)));
    }

    fn bind(&self, name: &str, series: Series) {
        let mut map = self.series.lock().expect("registry poisoned");
        match map.get(name) {
            None | Some(Series::ReadCounter(_) | Series::ReadGauge(_)) => {}
            Some(_) => panic!("metric {name} already registered as a different kind"),
        }
        map.insert(name.to_string(), series);
    }

    /// Snapshot every series, name-sorted. Writers are never stopped:
    /// each series is loaded with the same relaxed atomics the hot path
    /// writes with. Readers run after the registry lock is released, so
    /// one may take its owner's lock without ordering against this one.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let series: Vec<(String, Series)> = {
            let map = self.series.lock().expect("registry poisoned");
            map.iter().map(|(n, s)| (n.clone(), s.clone())).collect()
        };
        series.into_iter().map(|(n, s)| (n, s.value())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter("x.count").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_name_sorted_and_typed() {
        let r = Registry::new();
        r.gauge("b.gauge").set(7);
        r.counter("a.count").add(3);
        r.histogram("c.hist").record(100);
        r.sketch("d.sketch").record(1.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.count", "b.gauge", "c.hist", "d.sketch"]);
        assert_eq!(snap[0].1, MetricValue::Counter(3));
        assert_eq!(snap[1].1, MetricValue::Gauge(7));
        match &snap[2].1 {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.max, 100);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        match &snap[3].1 {
            MetricValue::Sketch(s) => {
                assert_eq!(s.count, 1);
                assert!((s.mean - 1.5).abs() < 1e-12);
                assert_eq!(s.variance(), 0.0);
            }
            other => panic!("expected sketch, got {other:?}"),
        }
    }

    #[test]
    fn readers_are_called_at_snapshot_and_rebinding_replaces_them() {
        let r = Registry::new();
        let level = Arc::new(AtomicU64::new(3));
        let seen = Arc::clone(&level);
        r.gauge_fn("q.depth", move || seen.load(Ordering::Relaxed));
        r.counter_fn("q.swaps", || 1);
        level.store(5, Ordering::Relaxed);
        assert_eq!(
            r.snapshot(),
            [
                ("q.depth".to_string(), MetricValue::Gauge(5)),
                ("q.swaps".to_string(), MetricValue::Counter(1)),
            ]
        );
        r.counter_fn("q.swaps", || 2);
        assert_eq!(r.snapshot()[1].1, MetricValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn a_reader_cannot_replace_a_recorded_series() {
        let r = Registry::new();
        let _ = r.counter("x");
        r.counter_fn("x", || 0);
    }

    #[test]
    fn welford_moments_match_direct_computation() {
        let sk = Sketch::new();
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for x in xs {
            sk.record(x);
        }
        let s = sk.summary();
        assert_eq!(s.count, xs.len() as u64);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }
}
