//! Streaming observation of a running campaign.
//!
//! A [`CampaignObserver`] receives callbacks *while* the engine executes:
//! once at launch (with the grid size and cache-hit count), once per
//! cached cell, once per freshly computed cell **as it completes** on the
//! worker pool, and once at the end. All callbacks run on the engine's
//! coordinating thread, so observers need no synchronization.

use crate::cell::{CellResult, CellSpec};

/// Callbacks streamed from a campaign run.
///
/// All methods default to no-ops; implement only the hooks you need. The
/// engine guarantees:
///
/// * [`on_start`](CampaignObserver::on_start) fires exactly once, after
///   validation, before any cell callback;
/// * [`on_cell_cached`](CampaignObserver::on_cell_cached) fires once per
///   cache hit, in grid order, before any
///   [`on_cell_complete`](CampaignObserver::on_cell_complete);
/// * [`on_cell_complete`](CampaignObserver::on_cell_complete) fires once
///   per freshly executed cell, in **completion** order (the pool is
///   concurrent; merge order is restored afterwards);
/// * [`on_complete`](CampaignObserver::on_complete) fires exactly once,
///   after the last cell, for runs that finish without error.
pub trait CampaignObserver {
    /// The grid is validated and sized: `total` cells, of which `cached`
    /// will be served from the cell cache.
    fn on_start(&mut self, total: usize, cached: usize) {
        let _ = (total, cached);
    }

    /// A cell was served from the cache.
    fn on_cell_cached(&mut self, cell: &CellSpec, result: &CellResult) {
        let _ = (cell, result);
    }

    /// A cell finished executing on the pool. `done` counts every settled
    /// cell so far (cached + completed) out of `total`.
    fn on_cell_complete(
        &mut self,
        cell: &CellSpec,
        result: &CellResult,
        done: usize,
        total: usize,
    ) {
        let _ = (cell, result, done, total);
    }

    /// The campaign finished; `results` is the full grid in grid order.
    fn on_complete(&mut self, results: &[CellResult]) {
        let _ = results;
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

/// Counts every callback — the cheapest way to smoke-test campaign
/// plumbing and to assert cache behavior in tests.
#[derive(Debug, Clone, Default)]
pub struct CountingCampaignObserver {
    /// `on_start` invocations (must end at exactly 1).
    pub starts: usize,
    /// Total cells announced at start.
    pub(crate) announced_total: usize,
    /// Cached cells announced at start.
    pub(crate) announced_cached: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells freshly executed.
    pub ran: usize,
    /// Labels of the freshly executed cells, in completion order.
    pub ran_labels: Vec<String>,
    /// `on_complete` invocations (must end at exactly 1).
    pub completions: usize,
}

impl CountingCampaignObserver {
    /// A fresh observer with all counters at zero.
    pub fn new() -> Self {
        CountingCampaignObserver::default()
    }
}

impl CampaignObserver for CountingCampaignObserver {
    fn on_start(&mut self, total: usize, cached: usize) {
        self.starts += 1;
        self.announced_total = total;
        self.announced_cached = cached;
    }

    fn on_cell_cached(&mut self, _cell: &CellSpec, _result: &CellResult) {
        self.cached += 1;
    }

    fn on_cell_complete(
        &mut self,
        cell: &CellSpec,
        _result: &CellResult,
        _done: usize,
        _total: usize,
    ) {
        self.ran += 1;
        self.ran_labels.push(cell.label());
    }

    fn on_complete(&mut self, _results: &[CellResult]) {
        self.completions += 1;
    }
}

/// Streams one line per settled cell to a sink — live progress for long
/// sweeps.
pub struct ProgressCampaignObserver<W: std::io::Write> {
    sink: W,
    total: usize,
    done: usize,
}

impl<W: std::io::Write> ProgressCampaignObserver<W> {
    /// Report to `sink`.
    pub fn new(sink: W) -> Self {
        ProgressCampaignObserver {
            sink,
            total: 0,
            done: 0,
        }
    }
}

impl ProgressCampaignObserver<std::io::Stderr> {
    /// Report to standard error.
    pub fn stderr() -> Self {
        ProgressCampaignObserver::new(std::io::stderr())
    }
}

impl<W: std::io::Write> CampaignObserver for ProgressCampaignObserver<W> {
    fn on_start(&mut self, total: usize, cached: usize) {
        self.total = total;
        let _ = writeln!(
            self.sink,
            "campaign: {total} cells ({cached} cached, {} to run)",
            total - cached
        );
    }

    fn on_cell_cached(&mut self, cell: &CellSpec, _result: &CellResult) {
        self.done += 1;
        let _ = writeln!(
            self.sink,
            "[{}/{}] cached {}",
            self.done,
            self.total,
            cell.label()
        );
    }

    fn on_cell_complete(
        &mut self,
        cell: &CellSpec,
        _result: &CellResult,
        done: usize,
        total: usize,
    ) {
        self.done = done;
        let _ = writeln!(self.sink, "[{done}/{total}] ran {}", cell.label());
    }

    fn on_complete(&mut self, results: &[CellResult]) {
        let _ = writeln!(self.sink, "campaign complete: {} cells", results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellSpec {
        CellSpec {
            policy: "FCFS".to_string(),
            scenario: "long_tail".to_string(),
            jobs: 10,
            workload_seed: 1,
            policy_seed: crate::cell::derived_policy_seed("FCFS", 1),
        }
    }

    fn result() -> CellResult {
        CellResult {
            cell: cell(),
            metrics: [0.0; 8],
            placements: 10,
            epochs: 11,
        }
    }

    #[test]
    fn counting_observer_tracks_everything() {
        let mut obs = CountingCampaignObserver::new();
        obs.on_start(4, 1);
        obs.on_cell_cached(&cell(), &result());
        obs.on_cell_complete(&cell(), &result(), 2, 4);
        obs.on_complete(&[result()]);
        assert_eq!(obs.starts, 1);
        assert_eq!(obs.announced_total, 4);
        assert_eq!(obs.announced_cached, 1);
        assert_eq!(obs.cached, 1);
        assert_eq!(obs.ran, 1);
        assert_eq!(obs.ran_labels, vec!["FCFS × long_tail/10 seed=1"]);
        assert_eq!(obs.completions, 1);
    }

    #[test]
    fn progress_observer_writes_one_line_per_cell() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut obs = ProgressCampaignObserver::new(&mut buf);
            obs.on_start(2, 1);
            obs.on_cell_cached(&cell(), &result());
            obs.on_cell_complete(&cell(), &result(), 2, 2);
            obs.on_complete(&[result(), result()]);
        }
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.contains("[1/2] cached FCFS"), "{text}");
        assert!(text.contains("[2/2] ran FCFS"), "{text}");
        assert!(text.contains("campaign complete: 2 cells"), "{text}");
    }
}
