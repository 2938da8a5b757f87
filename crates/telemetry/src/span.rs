//! Structured span tracing over hot kernel phases.
//!
//! Spans are keyed by static call-site names (`"kernel.epoch"`,
//! `"conservative.reservation_pass"`, …), stamped with the deterministic
//! [`SimTime`] at open, and optionally with a wall-clock duration at close.
//! Deterministic exporters omit the wall-clock field; the Chrome trace
//! exporter uses it for span widths.

use rsched_simkit::SimTime;

/// One recorded span. `wall_nanos` stays `0` until the span closes (and
/// forever when wall-clock stamping is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static call-site identifier, e.g. `"kernel.epoch"`.
    pub name: &'static str,
    /// Deterministic simulation time at open.
    pub time: SimTime,
    /// Nesting depth at open (0 = top level).
    pub depth: u32,
    /// Monotonic sequence number (open order).
    pub seq: u64,
    /// Wall-clock duration in nanoseconds; `0` when wall stamping is off or
    /// the span has not closed yet. Excluded from deterministic exports.
    pub wall_nanos: u64,
}

/// Append-only span log with a nesting-depth cursor.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tracer {
    spans: Vec<SpanRecord>,
    depth: u32,
    wall: bool,
}

impl Tracer {
    /// A tracer; `wall` controls whether closing a span stamps a wall-clock
    /// duration (nondeterministic — keep off for byte-stable exports).
    pub fn new(wall: bool) -> Self {
        Self {
            spans: Vec::new(),
            depth: 0,
            wall,
        }
    }

    /// Whether wall-clock stamping is enabled.
    pub(crate) fn wall_enabled(&self) -> bool {
        self.wall
    }

    /// Open a span; returns its index for the matching [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, time: SimTime) -> usize {
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            time,
            depth: self.depth,
            seq: idx as u64,
            wall_nanos: 0,
        });
        self.depth += 1;
        idx
    }

    /// Close the span opened at `idx`, recording its wall duration.
    pub fn close(&mut self, idx: usize, wall_nanos: u64) {
        self.depth = self.depth.saturating_sub(1);
        if let Some(span) = self.spans.get_mut(idx) {
            span.wall_nanos = wall_nanos;
        }
    }

    /// All recorded spans in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depth_is_tracked() {
        let mut t = Tracer::new(false);
        let a = t.open("outer", SimTime::from_secs(1));
        let b = t.open("inner", SimTime::from_secs(1));
        t.close(b, 10);
        let c = t.open("inner2", SimTime::from_secs(2));
        t.close(c, 20);
        t.close(a, 100);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 1);
        assert_eq!(spans[0].wall_nanos, 100);
        assert_eq!(
            spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
