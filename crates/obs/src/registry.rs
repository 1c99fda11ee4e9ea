//! A named-metric registry: counters, gauges, and histograms.
//!
//! A [`Registry`] maps metric names to [`Metric`]s behind one mutex; the
//! map is a `BTreeMap` so snapshots enumerate metrics in a deterministic
//! (sorted) order — important for diffable snapshot files. A process-wide
//! instance is available through [`global`]; libraries record cheap
//! telemetry there (a few updates per batch or trace, never per sample)
//! and applications export it with the functions in [`crate::export`].

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A value distribution.
    Histogram(Histogram),
}

/// A point-in-time copy of a registry: sorted `(name, metric)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metrics in ascending name order.
    pub metrics: Vec<(String, Metric)>,
}

impl Snapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Counter value by name, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// A thread-safe registry of named metrics.
///
/// Updates that hit an existing metric of a *different* kind replace it
/// with the requested kind — last writer wins, so a typo'd name cannot
/// poison the whole registry.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map.get_mut(name) {
            Some(Metric::Counter(v)) => *v = v.saturating_add(delta),
            Some(other) => *other = Metric::Counter(delta),
            None => {
                map.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut map = self.inner.lock().expect("registry poisoned");
        map.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Records `value` into the histogram `name`, creating it if needed.
    pub fn histogram_record(&self, name: &str, value: u64) {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map.get_mut(name) {
            Some(Metric::Histogram(h)) => h.record(value),
            other => {
                let mut h = Histogram::new();
                h.record(value);
                match other {
                    Some(slot) => *slot = Metric::Histogram(h),
                    None => {
                        map.insert(name.to_string(), Metric::Histogram(h));
                    }
                }
            }
        }
    }

    /// Records `value` into the histogram `name` with a trace-id
    /// exemplar attached (see [`Histogram::record_with_exemplar`]), so
    /// a slow interval of the histogram can link back to the span tree
    /// that produced its slowest values.
    pub fn histogram_record_with_exemplar(&self, name: &str, value: u64, trace_id: u64) {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map.get_mut(name) {
            Some(Metric::Histogram(h)) => h.record_with_exemplar(value, trace_id),
            other => {
                let mut h = Histogram::new();
                h.record_with_exemplar(value, trace_id);
                match other {
                    Some(slot) => *slot = Metric::Histogram(h),
                    None => {
                        map.insert(name.to_string(), Metric::Histogram(h));
                    }
                }
            }
        }
    }

    /// Merges a whole histogram into the histogram `name`.
    pub fn histogram_merge(&self, name: &str, hist: &Histogram) {
        let mut map = self.inner.lock().expect("registry poisoned");
        match map.get_mut(name) {
            Some(Metric::Histogram(h)) => h.merge(hist),
            Some(other) => *other = Metric::Histogram(hist.clone()),
            None => {
                map.insert(name.to_string(), Metric::Histogram(hist.clone()));
            }
        }
    }

    /// Copies the current state, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().expect("registry poisoned");
        Snapshot {
            metrics: map.iter().map(|(n, m)| (n.clone(), m.clone())).collect(),
        }
    }

    /// Removes every metric.
    pub fn clear(&self) {
        self.inner.lock().expect("registry poisoned").clear();
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add("a", u64::MAX);
        assert_eq!(r.snapshot().counter("a"), Some(u64::MAX));
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn histograms_record_and_merge() {
        let r = Registry::new();
        r.histogram_record("h", 100);
        r.histogram_record("h", 200);
        let mut extra = Histogram::new();
        extra.record(300);
        r.histogram_merge("h", &extra);
        let snap = r.snapshot();
        let h = snap.histogram("h").expect("histogram");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn exemplar_recording_tags_the_histogram() {
        let r = Registry::new();
        r.histogram_record_with_exemplar("h", 5_000, 77);
        r.histogram_record("h", 10);
        let snap = r.snapshot();
        let h = snap.histogram("h").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.exemplars().len(), 1);
        assert_eq!(h.exemplars()[0].trace_id, 77);
    }

    #[test]
    fn kind_conflicts_resolve_to_last_writer() {
        let r = Registry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 5);
        assert_eq!(r.snapshot().counter("x"), Some(5));
        r.histogram_record("x", 9);
        assert_eq!(r.snapshot().histogram("x").map(Histogram::count), Some(1));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter_add("zebra", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let names: Vec<_> = r
            .snapshot()
            .metrics
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
    }
}
