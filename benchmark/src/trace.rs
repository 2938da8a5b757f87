//! The benchmark's own span recorder: spans are opened **from the
//! benchmark's files, around the calls into each layer**, kept in memory,
//! and written as a Chrome trace-event file when the run ends. A span
//! carries its name, layer, start, end, parent and pass id; a layer's self
//! time is its spans' duration minus the part their child spans cover.
//!
//! Recording is off during timed passes (one relaxed flag check per
//! would-be span); only the traced pass pays for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::write_escaped;

/// The crate a span's time is charged to. `Benchmark` is this package's
/// own glue: the root span of every timed region, whose self time is the
/// table's unattributed remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Workloads,
    Sim,
    Schedulers,
    Cpsolver,
    Core,
    Llm,
    Metrics,
    Campaign,
    Service,
    Benchmark,
}

impl Layer {
    pub fn crate_name(self) -> &'static str {
        match self {
            Layer::Workloads => "rsched-workloads",
            Layer::Sim => "rsched-sim",
            Layer::Schedulers => "rsched-schedulers",
            Layer::Cpsolver => "rsched-cpsolver",
            Layer::Core => "rsched-core",
            Layer::Llm => "rsched-llm",
            Layer::Metrics => "rsched-metrics",
            Layer::Campaign => "rsched-campaign",
            Layer::Service => "rsched-service",
            Layer::Benchmark => "(unattributed)",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub pass: u32,
    pub thread: u32,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Total duration of the direct children (same thread, or adopted).
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Named sums recorded at the same boundaries as the spans.
    counters: BTreeMap<(&'static str, u32), f64>,
    pass: u32,
    /// While the main thread blocks inside a program call that does its
    /// work on other threads (a 1-worker campaign pool, a draining
    /// daemon), spans those threads open at top level become children of
    /// this span.
    adopter: Option<u32>,
    threads: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The recorder is one per process: tests that record take this first.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn recorder() -> MutexGuard<'static, Option<Recorder>> {
    // Every update leaves the recorder valid (pushes and field stores), so
    // a panic on another thread must not take the trace down with it.
    RECORDER.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Start recording into an empty recorder.
pub fn start() {
    now_ns();
    *recorder() = Some(Recorder::default());
    // Relaxed: the flag publishes nothing; recorder state is behind the mutex.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording and take everything recorded since [`start`].
pub fn finish() -> Recording {
    ENABLED.store(false, Ordering::Relaxed);
    let taken = recorder().take().unwrap_or_default();
    Recording {
        spans: taken.spans,
        counters: taken.counters,
    }
}

/// Stop recording without discarding what was recorded: untraced passes
/// of a traced run.
pub fn pause() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Record again after [`pause`]; a no-op if no recording was started.
pub fn resume() {
    if recorder().is_some() {
        ENABLED.store(true, Ordering::Relaxed);
    }
}

/// Run `f` with recording paused, whatever it was before.
pub fn pause_while<R>(f: impl FnOnce() -> R) -> R {
    let was = enabled();
    pause();
    let result = f();
    if was {
        resume();
    }
    result
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Spans and counters recorded from now on belong to pass `pass`.
pub fn set_pass(pass: u32) {
    if let Some(rec) = recorder().as_mut() {
        rec.pass = pass;
    }
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Open a span on this thread; a no-op unless recording.
pub fn span(name: &'static str, layer: Layer) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let mut guard = recorder();
    let Some(rec) = guard.as_mut() else {
        return SpanGuard(None);
    };
    let thread = THREAD_ID.with(|id| {
        *id.borrow_mut().get_or_insert_with(|| {
            rec.threads += 1;
            rec.threads
        })
    });
    let parent = OPEN
        .with(|open| open.borrow().last().copied())
        .or(rec.adopter);
    let index = rec.spans.len() as u32;
    rec.spans.push(Span {
        name,
        layer,
        pass: rec.pass,
        thread,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        child_ns: 0,
    });
    drop(guard);
    OPEN.with(|open| open.borrow_mut().push(index));
    SpanGuard(Some(index))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        let mut guard = recorder();
        let Some(rec) = guard.as_mut() else { return };
        // A recorder restarted while the span was open no longer holds it.
        let Some(span) = rec.spans.get_mut(index as usize) else {
            return;
        };
        span.end_ns = end;
        let (dur, parent) = (span.dur_ns(), span.parent);
        if let Some(parent) = parent.and_then(|p| rec.spans.get_mut(p as usize)) {
            parent.child_ns += dur;
        }
    }
}

/// Run `f` — a call that blocks this thread while other threads do its
/// work one span at a time — with this thread's innermost open span
/// adopting the top-level spans those threads open.
pub fn adopting<R>(f: impl FnOnce() -> R) -> R {
    let adopter = OPEN.with(|open| open.borrow().last().copied());
    if let Some(rec) = recorder().as_mut() {
        rec.adopter = adopter;
    }
    let result = f();
    if let Some(rec) = recorder().as_mut() {
        rec.adopter = None;
    }
    result
}

/// Add `by` to the counter `name` of the current pass; a no-op unless
/// recording.
pub fn count(name: &'static str, by: f64) {
    if !enabled() {
        return;
    }
    if let Some(rec) = recorder().as_mut() {
        *rec.counters.entry((name, rec.pass)).or_insert(0.0) += by;
    }
}

/// Raise the counter `name` of the current pass to at least `value`.
pub fn count_max(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    if let Some(rec) = recorder().as_mut() {
        let slot = rec.counters.entry((name, rec.pass)).or_insert(value);
        *slot = slot.max(value);
    }
}

/// Everything one traced run recorded.
#[derive(Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<(&'static str, u32), f64>,
}

/// What the spans of one name added up to in one pass.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, ascending, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl Recording {
    pub fn counter(&self, name: &'static str, pass: u32) -> f64 {
        self.counters.get(&(name, pass)).copied().unwrap_or(0.0)
    }

    /// Totals per span name within `pass`. Spans with no parent that are
    /// not region roots (recorded on another thread while nothing adopted
    /// them, so they ran concurrently with the main thread) count towards
    /// their name here but are left out of [`layer_table`](Self::layer_table).
    pub fn by_name(&self, pass: u32) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.pass == pass) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += span.dur_ns();
            entry.self_ns += span.self_ns();
            entry.durations_ns.push(span.dur_ns());
        }
        for totals in out.values_mut() {
            totals.durations_ns.sort_unstable();
        }
        out
    }

    /// Self time per layer within `pass`, over the spans that hang below a
    /// region root, plus the traced wall (the summed duration of the
    /// roots). By construction the rows sum to the wall exactly when every
    /// child lies inside its parent; adoption across threads is the one
    /// place that can bend that, which is what the 5% check guards.
    pub fn layer_table(&self, pass: u32) -> LayerTable {
        let mut rows: BTreeMap<Layer, u64> = BTreeMap::new();
        let mut wall_ns = 0u64;
        let mut concurrent_ns = 0u64;
        for span in self.spans.iter().filter(|s| s.pass == pass) {
            match (span.parent, span.layer) {
                (None, Layer::Benchmark) => wall_ns += span.dur_ns(),
                (None, _) => {
                    concurrent_ns += span.dur_ns();
                    continue;
                }
                _ => {}
            }
            if self.rooted(span) {
                *rows.entry(span.layer).or_insert(0) += span.self_ns();
            }
        }
        LayerTable {
            rows,
            wall_ns,
            concurrent_ns,
        }
    }

    fn rooted(&self, span: &Span) -> bool {
        let mut at = span;
        loop {
            match at.parent {
                None => return at.layer == Layer::Benchmark,
                Some(p) => at = &self.spans[p as usize],
            }
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Spans that
    /// repeat by the hundred thousand (one per `decide`) are written up to
    /// `per_name_cap` per name and pass; the totals of what was left out
    /// go into `metadata` so the file never silently under-reports.
    pub fn chrome_trace(&self, workload: &str, per_name_cap: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(200_000) * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut written: BTreeMap<(&'static str, u32), usize> = BTreeMap::new();
        let mut dropped: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut first = true;
        for (index, span) in self.spans.iter().enumerate() {
            let seen = written.entry((span.name, span.pass)).or_insert(0);
            *seen += 1;
            if *seen > per_name_cap {
                let entry = dropped.entry(span.name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += span.dur_ns();
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"name\":");
            write_escaped(&mut out, span.name);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, span.layer.crate_name());
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"pass\":{}}}}}",
                span.thread,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                index,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.pass,
            ));
        }
        out.push_str("\n],\"metadata\":{\"workload\":");
        write_escaped(&mut out, workload);
        out.push_str(&format!(",\"spans_recorded\":{}", self.spans.len()));
        out.push_str(",\"spans_left_out\":{");
        for (i, (name, (count, ns))) in dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{count},\"total_ms\":{:.3}}}",
                *ns as f64 / 1e6
            ));
        }
        out.push_str("}}}\n");
        out
    }
}

#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Self time per layer; `Layer::Benchmark` is the unattributed rest.
    pub rows: BTreeMap<Layer, u64>,
    /// Summed duration of the region roots: the traced wall.
    pub wall_ns: u64,
    /// Time in spans that ran beside the main thread and are in no row.
    pub concurrent_ns: u64,
}

impl LayerTable {
    pub fn rows_sum_ns(&self) -> u64 {
        self.rows.values().sum()
    }

    pub fn unattributed_ns(&self) -> u64 {
        self.rows.get(&Layer::Benchmark).copied().unwrap_or(0)
    }

    /// The acceptance rule of the table: all rows together are within 5%
    /// of the traced wall, and no more than 5% of it is unattributed.
    pub fn check(&self) -> Result<(), String> {
        if self.wall_ns == 0 {
            return Err("layer table: the traced pass recorded no region".to_string());
        }
        let wall = self.wall_ns as f64;
        let off = (self.rows_sum_ns() as f64 - wall).abs() / wall;
        if off > 0.05 {
            return Err(format!(
                "layer table: rows sum to {:.1}% of the traced wall",
                100.0 * self.rows_sum_ns() as f64 / wall
            ));
        }
        let rest = self.unattributed_ns() as f64 / wall;
        if rest > 0.05 {
            return Err(format!(
                "layer table: {:.1}% of the traced wall is unattributed",
                100.0 * rest
            ));
        }
        Ok(())
    }

    pub fn render(&self, workload: &str) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = format!(
            "layer table: {workload} (traced pass, wall {:.4} s)\n",
            self.wall_ns as f64 / 1e9
        );
        let mut rows: Vec<(&Layer, &u64)> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (layer, ns) in rows {
            out.push_str(&format!(
                "  {:<20} {:>10.4} s {:>6.1}%\n",
                layer.crate_name(),
                *ns as f64 / 1e9,
                100.0 * *ns as f64 / wall
            ));
        }
        out.push_str(&format!(
            "  {:<20} {:>10.4} s {:>6.1}%\n",
            "sum of rows",
            self.rows_sum_ns() as f64 / 1e9,
            100.0 * self.rows_sum_ns() as f64 / wall
        ));
        if self.concurrent_ns > 0 {
            out.push_str(&format!(
                "  (beside the main thread, in no row: {:.4} s)\n",
                self.concurrent_ns as f64 / 1e9
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so everything that records lives in
    // this one test.
    #[test]
    fn self_time_is_duration_minus_children_and_rows_sum_to_the_wall() {
        let _recorder = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(span("off", Layer::Sim).0.is_none(), "off until started");
        start();
        set_pass(3);
        {
            let _root = span("region", Layer::Benchmark);
            {
                let _run = span("sim.run", Layer::Sim);
                for _ in 0..3 {
                    let _decide = span("decide", Layer::Schedulers);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            adopting(|| {
                std::thread::spawn(|| {
                    let _cell = span("cell", Layer::Cpsolver);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                })
                .join()
                .unwrap();
            });
            count("n", 2.0);
            count("n", 3.0);
            count_max("m", 4.0);
            count_max("m", 1.0);
        }
        std::thread::spawn(|| {
            let _orphan = span("beside", Layer::Service);
        })
        .join()
        .unwrap();
        let rec = finish();
        assert!(rec.spans.iter().all(|s| s.pass == 3));
        assert_eq!(rec.counter("n", 3), 5.0);
        assert_eq!(rec.counter("m", 3), 4.0);
        let names = rec.by_name(3);
        assert_eq!(names["decide"].calls, 3);
        assert!(names["sim.run"].self_ns >= 3_000_000);
        assert!(names["sim.run"].self_ns < names["sim.run"].total_ns);
        let table = rec.layer_table(3);
        assert_eq!(table.rows_sum_ns(), table.wall_ns, "rows sum to the wall");
        assert!(
            table.rows[&Layer::Cpsolver] >= 2_000_000,
            "adopted span is in the table"
        );
        assert!(!table.rows.contains_key(&Layer::Service), "orphan is not");
        let trace = rec.chrome_trace("test", 2);
        let parsed = crate::json::Json::parse(&trace).expect("trace is JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(
            events.len(),
            rec.spans.len() - 1,
            "third decide span left out"
        );
        assert!(trace.contains("\"spans_left_out\":{\"decide\":{\"count\":1"));
    }
}
