//! Process-global metrics registry: named counters, gauges and latency
//! histograms under one namespace.
//!
//! Handles are get-or-create ([`counter`], [`gauge`], [`histogram`]) and
//! cheap to clone; [`snapshot`] captures every registered metric sorted
//! by name for the exporters. The registry absorbs what used to live in
//! scattered structs (`ServiceStats`, `DistQueryStats`, compaction
//! counters) so one scrape sees the whole serving stack.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::hist::LatencyHistogram;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increase by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increase by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move in both directions.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared latency-histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        self.0.lock().expect("histogram poisoned").record(latency);
    }

    /// Record one sample given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.0.lock().expect("histogram poisoned").record_micros(micros);
    }

    /// A copy of the current histogram contents.
    pub fn get(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The handle registered under `name`, registering `new()` first when
/// there is none. The name is copied only on that first registration.
fn get_or_register<T: Clone>(
    map: &Mutex<BTreeMap<String, T>>,
    name: &str,
    new: impl FnOnce() -> T,
) -> T {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_insert_with(new).clone()
}

/// Get or create the counter named `name`.
pub fn counter(name: &str) -> Counter {
    get_or_register(&registry().counters, name, || Counter(Arc::new(AtomicU64::new(0))))
}

/// Get or create the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    get_or_register(&registry().gauges, name, || Gauge(Arc::new(AtomicI64::new(0))))
}

/// Get or create the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    get_or_register(&registry().histograms, name, || {
        Histogram(Arc::new(Mutex::new(LatencyHistogram::new())))
    })
}

/// A point-in-time capture of every registered metric, sorted by name.
/// This is what the exporters serialize and what
/// `IndexService::telemetry()` returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, contents)` for every histogram.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Insert or overwrite a counter (used by `telemetry()` adapters
    /// that fold externally-tracked stats into a snapshot).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Insert or overwrite a gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = value,
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// Insert or overwrite a histogram.
    pub fn set_histogram(&mut self, name: &str, value: LatencyHistogram) {
        match self.histograms.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.histograms[i].1 = value,
            Err(i) => self.histograms.insert(i, (name.to_string(), value)),
        }
    }
}

/// Capture every registered metric, sorted by name.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(n, c)| (n.clone(), c.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(n, g)| (n.clone(), g.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(n, h)| (n.clone(), h.get()))
        .collect();
    MetricsSnapshot { counters, gauges, histograms }
}

/// Drop every registered metric. Existing handles keep working but are
/// detached from the registry; intended for test isolation.
pub fn reset_metrics() {
    let reg = registry();
    reg.counters.lock().expect("metrics registry poisoned").clear();
    reg.gauges.lock().expect("metrics registry poisoned").clear();
    reg.histograms.lock().expect("metrics registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that reset it.
    fn serialized<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset_metrics();
        let out = f();
        reset_metrics();
        out
    }

    #[test]
    fn counters_share_state_by_name() {
        serialized(|| {
            let a = counter("gas_test_requests_total");
            let b = counter("gas_test_requests_total");
            a.inc();
            b.add(2);
            assert_eq!(a.get(), 3);
            assert_eq!(snapshot().counter("gas_test_requests_total"), Some(3));
        });
    }

    #[test]
    fn lookups_share_one_handle_and_new_names_still_register() {
        serialized(|| {
            let (a, b) = (counter("gas_test_hits"), counter("gas_test_hits"));
            assert!(Arc::ptr_eq(&a.0, &b.0));
            assert!(Arc::ptr_eq(&gauge("gas_test_level").0, &gauge("gas_test_level").0));
            assert!(Arc::ptr_eq(&histogram("gas_test_lat").0, &histogram("gas_test_lat").0));
            let other = counter("gas_test_misses");
            assert!(!Arc::ptr_eq(&a.0, &other.0));
            other.inc();
            let snap = snapshot();
            assert_eq!(snap.counter("gas_test_hits"), Some(0));
            assert_eq!(snap.counter("gas_test_misses"), Some(1));
            assert_eq!(snap.gauge("gas_test_level"), Some(0));
            assert!(snap.histogram("gas_test_lat").is_some());
        });
    }

    #[test]
    fn gauges_move_both_directions() {
        serialized(|| {
            let g = gauge("gas_test_inflight");
            g.set(5);
            g.add(-2);
            assert_eq!(g.get(), 3);
            assert_eq!(snapshot().gauge("gas_test_inflight"), Some(3));
        });
    }

    #[test]
    fn histograms_record_and_snapshot() {
        serialized(|| {
            let h = histogram("gas_test_latency_micros");
            h.record_micros(100);
            h.record(Duration::from_micros(900));
            let snap = snapshot();
            let hist = snap.histogram("gas_test_latency_micros").expect("registered");
            assert_eq!(hist.count(), 2);
            assert_eq!(hist.total_micros(), 1000);
        });
    }

    #[test]
    fn snapshot_is_sorted_and_editable() {
        serialized(|| {
            counter("gas_test_b").inc();
            counter("gas_test_a").inc();
            let mut snap = snapshot();
            let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["gas_test_a", "gas_test_b"]);
            snap.set_counter("gas_test_ab", 7);
            let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["gas_test_a", "gas_test_ab", "gas_test_b"]);
            snap.set_counter("gas_test_a", 9);
            assert_eq!(snap.counter("gas_test_a"), Some(9));
        });
    }
}
