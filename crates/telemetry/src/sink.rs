//! The `TelemetrySink`: a cheaply cloneable handle that is either disabled
//! (every call is a single `Option` check, no allocation, no branch into
//! shared state) or backed by a shared [`Telemetry`] hub.
//!
//! Kernels, services, and observers all hold clones of the same sink, so
//! sim and service metrics share one namespace. The hub lives behind
//! `Rc<RefCell<…>>` — telemetry never crosses threads (policies and kernels
//! are deliberately `!Send` in this workspace).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rsched_simkit::SimTime;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::provenance::EpochTrace;
use crate::span::{SpanRecord, Tracer};

/// The shared telemetry hub: one tracer, one metrics registry, and the
/// epoch provenance log for components without their own storage.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Span log.
    pub(crate) tracer: Tracer,
    /// Metrics registry.
    pub metrics: MetricsRegistry,
}

/// Handle to an optional [`Telemetry`] hub.
///
/// The default (and [`disabled`](Self::disabled)) sink carries `None`; every
/// recording method starts with `let Some(inner) = &self.inner else { return }`,
/// so the disabled hot path is one pointer-sized check.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Rc<RefCell<Telemetry>>>,
}

impl TelemetrySink {
    /// A sink that records nothing; all methods are no-ops.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording sink **without** wall-clock span stamping — fully
    /// deterministic, suitable for byte-stable exports.
    pub fn recording() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Telemetry {
                tracer: Tracer::new(false),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// A recording sink **with** wall-clock span stamping — for profiling
    /// and Chrome trace export; span durations are nondeterministic.
    pub fn recording_with_wall() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Telemetry {
                tracer: Tracer::new(true),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes (and stamps wall time if enabled) when the
    /// returned guard drops. On a disabled sink this is a no-op.
    #[inline]
    pub fn span(&self, name: &'static str, time: SimTime) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { inner: None },
            Some(rc) => {
                let mut hub = rc.borrow_mut();
                let idx = hub.tracer.open(name, time);
                let start = hub.tracer.wall_enabled().then(Instant::now);
                SpanGuard {
                    inner: Some((Rc::clone(rc), idx, start)),
                }
            }
        }
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn count(&self, name: &str, by: u64) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().metrics.inc(name, by);
        }
    }

    /// Set a counter to an absolute value (harvesting externally kept totals).
    #[inline]
    pub fn set_counter(&self, name: &str, value: u64) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().metrics.set_counter(name, value);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().metrics.set_gauge(name, value);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(rc) = &self.inner {
            rc.borrow_mut().metrics.observe(name, value);
        }
    }

    /// Run `f` against the hub; `None` when disabled. Do not open spans or
    /// call other sink methods from inside `f` — the hub is borrowed.
    pub fn with<R>(&self, f: impl FnOnce(&Telemetry) -> R) -> Option<R> {
        self.inner.as_ref().map(|rc| f(&rc.borrow()))
    }

    /// Snapshot the metrics registry; `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.with(|t| t.metrics.snapshot())
    }

    /// Copy of the recorded spans; `None` when disabled.
    pub fn spans(&self) -> Option<Vec<SpanRecord>> {
        self.with(|t| t.tracer.spans().to_vec())
    }
}

/// RAII guard returned by [`TelemetrySink::span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Rc<RefCell<Telemetry>>, usize, Option<Instant>)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rc, idx, start)) = self.inner.take() {
            let nanos = start.map_or(0, |s| {
                s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
            });
            rc.borrow_mut().tracer.close(idx, nanos);
        }
    }
}

/// Epoch provenance is stored by the kernel itself (it must be recorded even
/// with a disabled sink so `SimOutcome::epochs` stays deterministic), but the
/// sink also counts them so the metrics namespace sees epoch outcomes.
impl TelemetrySink {
    /// Count an epoch outcome by its stable code (e.g.
    /// `sim_epoch_saturated_total`). No-op when disabled.
    #[inline]
    pub fn count_epoch(&self, trace: &EpochTrace) {
        if self.inner.is_some() {
            self.count(&format!("sim_epoch_{}_total", trace.outcome.code()), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::EpochOutcome;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.count("x", 1);
        sink.observe("h", 5);
        {
            let _g = sink.span("s", SimTime::ZERO);
        }
        assert!(sink.snapshot().is_none());
        assert!(sink.spans().is_none());
    }

    #[test]
    fn recording_sink_shares_one_hub_across_clones() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        sink.count("jobs_total", 2);
        clone.count("jobs_total", 3);
        let snap = sink.snapshot().unwrap();
        assert!(snap
            .to_json()
            .contains("\"jobs_total\":{\"type\":\"counter\",\"value\":5}"));
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let sink = TelemetrySink::recording();
        {
            let _outer = sink.span("outer", SimTime::from_secs(1));
            let _inner = sink.span("inner", SimTime::from_secs(1));
        }
        let spans = sink.spans().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        // Deterministic sink: no wall stamping.
        assert_eq!(spans[0].wall_nanos, 0);
    }

    #[test]
    fn wall_sink_stamps_durations() {
        let sink = TelemetrySink::recording_with_wall();
        {
            let _g = sink.span("timed", SimTime::ZERO);
            std::hint::black_box(0u64);
        }
        // Wall duration may legitimately round to 0ns on a coarse clock, but
        // the span must exist and be closed.
        assert_eq!(sink.spans().unwrap().len(), 1);
    }

    #[test]
    fn epoch_counting_uses_outcome_code() {
        let sink = TelemetrySink::recording();
        let trace = EpochTrace {
            time: SimTime::ZERO,
            outcome: EpochOutcome::Saturated,
            reason: None,
            queue_len: 4,
            queries: 0,
        };
        sink.count_epoch(&trace);
        sink.count_epoch(&trace);
        assert!(sink
            .snapshot()
            .unwrap()
            .to_json()
            .contains("\"sim_epoch_saturated_total\":{\"type\":\"counter\",\"value\":2}"));
    }
}
