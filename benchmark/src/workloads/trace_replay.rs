//! `trace_replay`: a synthetic Polaris archive as SWF text → `SwfReader`
//! ingest → FCFS replay on Polaris → metrics report.
//!
//! The archive-scale path. The trace is a quiet stretch (40 000 jobs, the
//! generator's submit gaps doubled, so the queue stays shallow: ingest,
//! arrival insert and head pop carry the time) followed by a rush (9000
//! jobs with gaps divided by 64) that lifts the waiting queue past the
//! kernel's parallel-scan threshold (`PARALLEL_SCAN_MIN`, 8192 jobs) and
//! holds it there for about 750 placements, each of which fans its scan
//! out over scoped threads. Kernel self time is most of the wall; FCFS
//! `decide` and the calendar do nothing.
//!
//! Why not the generator's own arrival rate: it only fills the queue that
//! deep after ~27 000 jobs, and how far past the threshold a trace of
//! affordable length then gets swings with the seed (28 000 rows: seeds 1
//! and 3 never cross it, seed 2 spends a second above it). The rush makes
//! the excursion structural — peak depth 8909–8956 over seeds 1–4. Why the
//! quiet stretch: thread spawn and join is the noisiest thing this box
//! does (see the README), and a pass that is nothing else cannot be gated.

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_metrics::MetricsReport;
use rsched_schedulers::Fcfs;
use rsched_sim::{run_simulation, SchedulingPolicy, SimOptions};
use rsched_workloads::swf::{jobs_from_rows, SwfJob, SwfReader, SwfTrace};
use rsched_workloads::synth::polaris_synth_rows;
use rsched_workloads::WorkloadError;

use super::SimFold;
use crate::harness::{PassClock, PassOutput, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{TimedPolicy, FCFS};

/// Rows of the quiet stretch, whose submit gaps are multiplied by
/// [`QUIET_STRETCH`].
const QUIET_ROWS: usize = 40_000;
const QUIET_STRETCH: i64 = 2;
/// Rows of the rush that follows, whose submit gaps are divided by
/// [`RUSH_COMPRESSION`].
const RUSH_ROWS: usize = 9_000;
const RUSH_COMPRESSION: i64 = 64;

pub struct TraceReplay {
    text: String,
    rows: usize,
    rows_unusable: usize,
    cluster: ClusterConfig,
    options: SimOptions,
}

impl TraceReplay {
    pub fn new(seed: u64, scale: usize) -> Self {
        let _span = trace::span("workloads.synth_text", Layer::Workloads);
        // The generator counts usable rows; so does the boundary.
        let mut rows = polaris_synth_rows((QUIET_ROWS + RUSH_ROWS) / scale, seed);
        let quiet = rows
            .iter()
            .scan(0, |usable, row| {
                *usable += usize::from(row.is_usable());
                Some(*usable)
            })
            .position(|usable| usable > QUIET_ROWS / scale)
            .unwrap_or(rows.len());
        let rush_starts = rows.get(quiet).map_or(0, |row| row.submit_secs);
        for (index, row) in rows.iter_mut().enumerate() {
            row.submit_secs = if index < quiet {
                row.submit_secs * QUIET_STRETCH
            } else {
                rush_starts * QUIET_STRETCH + (row.submit_secs - rush_starts) / RUSH_COMPRESSION
            };
        }
        let unusable = rows.iter().filter(|row| !row.is_usable()).count();
        let trace = SwfTrace {
            directives: vec![
                ("Version".to_string(), "2.2".to_string()),
                (
                    "Computer".to_string(),
                    "Polaris (synthetic, compressed arrivals)".to_string(),
                ),
                ("MaxNodes".to_string(), "560".to_string()),
            ],
            jobs: rows,
        };
        TraceReplay {
            text: trace.to_string(),
            rows: trace.jobs.len(),
            rows_unusable: unusable,
            cluster: ClusterConfig::polaris(),
            // One query per job plus the epilogue outgrows nothing at this
            // size, but the budget guards livelock, not scale.
            options: SimOptions {
                max_queries: 16_000_000,
                ..SimOptions::default()
            },
        }
    }

    fn ingest(&self, traced: bool) -> Result<(Vec<JobSpec>, usize), WorkloadError> {
        if !traced {
            return Ok((SwfReader::from_text(&self.text).into_jobs(0)?, self.rows));
        }
        // The same pipeline cut at its one public seam: row iteration,
        // then the conversion core `into_jobs` lands in.
        let rows: Vec<SwfJob> = {
            let _span = trace::span("workloads.swf_parse", Layer::Workloads);
            SwfReader::from_text(&self.text).collect::<Result<_, _>>()?
        };
        let parsed = rows.len();
        let _span = trace::span("workloads.swf_convert", Layer::Workloads);
        Ok((jobs_from_rows(rows, 0), parsed))
    }
}

impl Workload for TraceReplay {
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput {
        let mut out = PassOutput::default();
        out.exact.insert("workloads.swf_rows", self.rows as f64);
        out.exact
            .insert("workloads.swf_bytes", self.text.len() as f64);
        out.exact
            .insert("workloads.swf_rows_unusable", self.rows_unusable as f64);
        let mut policy: Box<dyn SchedulingPolicy> = Box::new(Fcfs::default());
        if traced {
            policy = Box::new(TimedPolicy::new(policy, &FCFS));
        }
        let replay = clock.region(|| {
            let (jobs, parsed) = self.ingest(traced).map_err(|e| e.to_string())?;
            let outcome = {
                let _span = trace::span("sim.run", Layer::Sim);
                run_simulation(self.cluster, &jobs, policy.as_mut(), &self.options)
                    .map_err(|e| e.to_string())?
            };
            let report = {
                let _span = trace::span("metrics.report", Layer::Metrics);
                MetricsReport::compute(&outcome.records, self.cluster)
            };
            Ok::<_, String>((jobs, parsed, outcome, report))
        });
        let expected_jobs = (self.rows - self.rows_unusable) as u64;
        match replay {
            Err(e) => {
                out.attempted += expected_jobs;
                out.fail(expected_jobs, format!("replay: {e}"));
            }
            Ok((jobs, parsed, outcome, report)) => {
                if parsed != self.rows || jobs.len() as u64 != expected_jobs {
                    out.fail(
                        1,
                        format!(
                            "ingest: {parsed} rows → {} jobs, generated {} rows with {} unusable",
                            jobs.len(),
                            self.rows,
                            self.rows_unusable
                        ),
                    );
                }
                let mut fold = SimFold::default();
                fold.absorb(
                    "polaris_synth/FCFS",
                    &jobs,
                    self.cluster,
                    &outcome,
                    &report,
                    &mut out,
                );
                fold.finish(&mut out);
            }
        }
        out
    }
}
