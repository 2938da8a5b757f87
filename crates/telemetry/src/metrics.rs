//! Named metrics registry with a byte-stable snapshot API.
//!
//! Three metric shapes — monotonic counters, signed gauges, and
//! [`LogHistogram`]s — keyed by name in a `BTreeMap`, so iteration (and
//! therefore every export) is in stable lexicographic order regardless of
//! registration order.

use std::collections::BTreeMap;

use rsched_simkit::json;

use crate::hist::{HistSummary, LogHistogram};

/// One live metric slot.
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(LogHistogram),
}

/// Registry of named counters, gauges, and histograms.
///
/// Writes that hit an existing slot of a different shape are ignored rather
/// than panicking — telemetry must never take down the host process.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named counter, creating it at zero first if needed.
    pub(crate) fn inc(&mut self, name: &str, by: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v = v.saturating_add(by),
            Some(_) => {}
            None => {
                self.metrics.insert(name.to_string(), Metric::Counter(by));
            }
        }
    }

    /// Set the named counter to an absolute value (used to harvest totals
    /// maintained elsewhere, e.g. kernel `SimStats`). Monotonicity is the
    /// caller's contract.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v = value,
            Some(_) => {}
            None => {
                self.metrics
                    .insert(name.to_string(), Metric::Counter(value));
            }
        }
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Gauge(v)) => *v = value,
            Some(_) => {}
            None => {
                self.metrics.insert(name.to_string(), Metric::Gauge(value));
            }
        }
    }

    /// Record one sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.record(value),
            Some(_) => {}
            None => {
                let mut h = LogHistogram::new();
                h.record(value);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Current value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Current value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read access to a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Point-in-time copy of every metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .metrics
                .iter()
                .map(|(name, metric)| MetricEntry {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(v) => MetricValue::Counter(*v),
                        Metric::Gauge(v) => MetricValue::Gauge(*v),
                        Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                    },
                })
                .collect(),
        }
    }
}

/// Snapshot value of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Signed gauge.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistSummary),
}

/// One named entry in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Metric name (snake_case by convention).
    pub name: String,
    /// Captured value.
    pub value: MetricValue,
}

/// Immutable, name-ordered capture of a registry — the unit all exporters
/// consume. Identical registry contents produce byte-identical exports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Entries in stable name order.
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Byte-stable JSON object: `{"name":{"type":...,"value":...},...}` with
    /// keys in name order and histogram fields in fixed order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", json::escape(&e.name)));
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.inc("b_counter", 2);
        reg.inc("b_counter", 3);
        reg.set_gauge("a_gauge", -7);
        reg.observe("c_hist", 10);
        reg.observe("c_hist", 20);
        assert_eq!(reg.counter("b_counter"), Some(5));
        assert_eq!(reg.gauge("a_gauge"), Some(-7));
        assert_eq!(reg.histogram("c_hist").unwrap().count(), 2);
        // Snapshot is in name order, not insertion order.
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "b_counter", "c_hist"]);
    }

    #[test]
    fn shape_conflicts_are_ignored() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x", 1);
        reg.set_gauge("x", 99);
        reg.observe("x", 5);
        assert_eq!(reg.counter("x"), Some(1));
        assert_eq!(reg.gauge("x"), None);
    }

    #[test]
    fn snapshot_json_is_byte_stable() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.inc("jobs_total", 42);
            reg.set_gauge("queue_depth", 3);
            reg.observe("tick_nanos", 1_500);
            reg.observe("tick_nanos", 900_000);
            reg.snapshot().to_json()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"jobs_total\":{\"type\":\"counter\",\"value\":42}"));
    }
}
