//! Counters / gauges / histograms behind stable metric names.
//!
//! The registry absorbs the counters that used to live in ad-hoc structs
//! (`OptimizerStats`, `ExecStats`, `BufferPoolStats`, `YarnState`): each
//! subsystem publishes under a documented name (see the metric-name
//! catalog in DESIGN.md "Observability") so tools — `reml-bench
//! profile_report`, tests, future dashboards — read one namespace instead
//! of five structs.
//!
//! Handles are `Arc`-shared atomics: after the one map lookup the hot
//! path is a single `fetch_add`. All methods are safe to call from any
//! thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Value;

/// Monotonic counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucketed histogram over `u64` observations (microseconds
/// in practice): bucket `i` counts values with `63 - leading_zeros == i`
/// (bucket 0 also takes zero). Tracks count / sum / min / max exactly.
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
    pub fn min(&self) -> Option<u64> {
        let m = self.min.load(Ordering::Relaxed);
        (m != u64::MAX).then_some(m)
    }
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }
}

/// A point-in-time copy of one metric, for reports.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    Counter(u64),
    Gauge(i64),
    Histogram {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        mean: f64,
    },
}

impl MetricSnapshot {
    pub fn to_value(&self) -> Value {
        match self {
            MetricSnapshot::Counter(v) => Value::Num(*v as f64),
            MetricSnapshot::Gauge(v) => Value::Num(*v as f64),
            MetricSnapshot::Histogram {
                count,
                sum,
                min,
                max,
                mean,
            } => Value::Object(vec![
                ("count".into(), Value::Num(*count as f64)),
                ("sum".into(), Value::Num(*sum as f64)),
                ("min".into(), Value::Num(*min as f64)),
                ("max".into(), Value::Num(*max as f64)),
                ("mean".into(), Value::Num(*mean)),
            ]),
        }
    }
}

/// The metric registry. One global instance lives behind
/// [`crate::metrics()`]; tests may construct private ones.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Sorted point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out: Vec<(String, MetricSnapshot)> = Vec::new();
        for (name, c) in self.counters.lock().iter() {
            out.push((name.clone(), MetricSnapshot::Counter(c.get())));
        }
        for (name, g) in self.gauges.lock().iter() {
            out.push((name.clone(), MetricSnapshot::Gauge(g.get())));
        }
        for (name, h) in self.histograms.lock().iter() {
            out.push((
                name.clone(),
                MetricSnapshot::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min().unwrap_or(0),
                    max: h.max(),
                    mean: h.mean(),
                },
            ));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drop every metric (handles held elsewhere keep counting into
    /// detached atomics — callers re-fetch handles after a reset).
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }

    /// Render the snapshot as an ordered JSON object.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.snapshot()
                .into_iter()
                .map(|(name, snap)| (name, snap.to_value()))
                .collect(),
        )
    }

    /// Byte-stable pretty-JSON dump (metrics sorted by name, trailing
    /// newline): the canonical form report artifacts embed, so two
    /// registries holding the same values dump identically regardless of
    /// registration order.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("value serializes");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        reg.counter("a.count").add(3);
        reg.counter("a.count").inc();
        reg.gauge("a.level").set(-7);
        let h = reg.histogram("a.lat_us");
        for v in [1u64, 2, 1024, 0] {
            h.observe(v);
        }
        assert_eq!(reg.counter("a.count").get(), 4);
        assert_eq!(reg.gauge("a.level").get(), -7);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1027);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), 1024);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by name");
    }

    #[test]
    fn dump_is_byte_stable_across_registration_order() {
        let fill = |names: &[&str]| {
            let reg = Registry::new();
            for n in names {
                reg.counter(n).add(n.len() as u64);
            }
            reg.gauge("z.gauge").set(5);
            reg.histogram("m.hist").observe(8);
            reg
        };
        let a = fill(&["b.count", "a.count", "c.count"]);
        let b = fill(&["c.count", "b.count", "a.count"]);
        // Same values registered in different orders: identical bytes.
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().ends_with('\n'));
    }

    #[test]
    fn reset_clears_names() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.reset();
        assert!(reg.snapshot().is_empty());
        assert_eq!(reg.counter("x").get(), 0);
    }
}
