//! The six workloads. Each is built from a seed (that is set-up) and then
//! run pass after pass; see `README.md` for why each exists and which
//! layers it exercises or bypasses.

use std::collections::BTreeMap;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_metrics::MetricsReport;
use rsched_sim::{run_simulation, EpochOutcome, SchedulingPolicy, SimOptions, SimOutcome};
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

use crate::check::{check_schedule, combine_fnv48, outcome_fnv48};
use crate::harness::{PassClock, PassOutput, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{PolicyKey, TimedPolicy};

mod agent_1k;
mod backfill_8k;
mod paper_grid;
mod service_burst;
mod sjf_8k;
mod trace_replay;

/// Build the named workload from `seed`: generate its inputs and construct
/// whatever of the program outlives a pass. `scale` divides every input
/// size (1 for a real run; the tests use 50).
pub fn build(name: &str, seed: u64, scale: usize) -> Result<Box<dyn Workload>, String> {
    let scale = scale.max(1);
    Ok(match name {
        "paper_grid" => Box::new(paper_grid::PaperGrid::new(seed, scale)?),
        "agent_1k" => Box::new(agent_1k::new(seed, scale)),
        "trace_replay" => Box::new(trace_replay::TraceReplay::new(seed, scale)),
        "sjf_8k" => Box::new(sjf_8k::new(seed, scale)),
        "backfill_8k" => Box::new(backfill_8k::new(seed, scale)),
        "service_burst" => Box::new(service_burst::ServiceBurst::new(seed, scale)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// A builtin scenario's jobs, generated under a span so that a traced run
/// can tell input generation from the rest of set-up.
pub fn scenario_jobs(
    scenario: &str,
    n: usize,
    mode: ArrivalMode,
    seed: u64,
    cluster: ClusterConfig,
) -> Vec<JobSpec> {
    let _span = trace::span("workloads.scenario_generate", Layer::Workloads);
    scenario_builtins()
        .generate(
            scenario,
            &ScenarioContext::new(n)
                .with_mode(mode)
                .with_seed(seed)
                .with_cluster(cluster),
        )
        .unwrap_or_else(|e| panic!("builtin scenario `{scenario}`: {e}"))
        .jobs
}

/// One simulation a pass runs: a job list, a machine, a policy.
pub struct SimCell {
    pub label: &'static str,
    pub cluster: ClusterConfig,
    pub jobs: Vec<JobSpec>,
    pub options: SimOptions,
    pub key: &'static PolicyKey,
    /// A fresh policy for one pass. `true` asks for the traced build of a
    /// policy that has something inside worth wrapping (the agent's
    /// language model); the cell runner adds the policy wrapper itself.
    pub make: Box<dyn Fn(bool) -> Box<dyn SchedulingPolicy>>,
}

/// The outputs of a pass's cells, folded.
#[derive(Default)]
pub struct SimFold {
    fingerprint: u64,
    jobs: u64,
    stats: BTreeMap<&'static str, f64>,
    makespan_s: f64,
    wait_job_s: f64,
    node_util_sum: f64,
    cells: u64,
}

impl SimFold {
    fn add(&mut self, name: &'static str, by: f64) {
        *self.stats.entry(name).or_insert(0.0) += by;
    }

    /// Check one cell's outcome and fold it in.
    pub fn absorb(
        &mut self,
        label: &str,
        jobs: &[JobSpec],
        cluster: ClusterConfig,
        outcome: &SimOutcome,
        report: &MetricsReport,
        out: &mut PassOutput,
    ) {
        out.attempted += jobs.len() as u64;
        out.submitted += jobs.len() as u64;
        if let Err(bad) = check_schedule(jobs, &outcome.records, cluster) {
            out.fail(bad.count.min(jobs.len() as u64), format!("{label}: {bad}"));
        }
        self.fingerprint = combine_fnv48(self.fingerprint, outcome_fnv48(&outcome.records));
        self.jobs += jobs.len() as u64;
        self.cells += 1;
        let stats = outcome.stats;
        self.add("sim.epochs", stats.epochs as f64);
        self.add("sim.queries", stats.queries as f64);
        self.add("sim.placements", stats.placements as f64);
        self.add("sim.backfills", stats.backfills as f64);
        self.add("sim.delays", stats.delays as f64);
        self.add("sim.rejections", stats.rejections as f64);
        let saturated = outcome
            .epochs
            .iter()
            .filter(|e| e.outcome == EpochOutcome::Saturated)
            .count();
        self.add("sim.epochs_saturated", saturated as f64);
        let deepest = outcome
            .epochs
            .iter()
            .map(|e| e.queue_len)
            .max()
            .unwrap_or(0);
        let slot = self.stats.entry("sim.queue_len_max").or_insert(0.0);
        *slot = slot.max(f64::from(deepest));
        self.makespan_s += report.makespan_secs;
        self.wait_job_s += report.avg_wait_secs * jobs.len() as f64;
        self.node_util_sum += report.node_utilization;
    }

    /// Move the folded outputs into the pass's result.
    pub fn finish(self, out: &mut PassOutput) {
        out.fingerprint = self.fingerprint;
        out.exact.extend(self.stats);
        out.exact.insert("sim.makespan_s", self.makespan_s);
        out.exact
            .insert("sim.avg_wait_s", self.wait_job_s / self.jobs.max(1) as f64);
        out.exact.insert(
            "sim.node_util",
            self.node_util_sum / self.cells.max(1) as f64,
        );
    }
}

/// Run one cell on the pass clock: the simulation, then the metrics
/// report. Checks happen off the clock.
pub fn run_cell(
    cell: &SimCell,
    clock: &mut PassClock,
    traced: bool,
    fold: &mut SimFold,
    out: &mut PassOutput,
) {
    let mut policy = (cell.make)(traced);
    if traced {
        policy = Box::new(TimedPolicy::new(policy, cell.key));
    }
    let outcome = clock.region(|| {
        let _span = trace::span("sim.run", Layer::Sim);
        run_simulation(cell.cluster, &cell.jobs, policy.as_mut(), &cell.options)
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            out.attempted += cell.jobs.len() as u64;
            out.fail(cell.jobs.len() as u64, format!("{}: {e}", cell.label));
            return;
        }
    };
    let report = clock.region(|| {
        let _span = trace::span("metrics.report", Layer::Metrics);
        MetricsReport::compute(&outcome.records, cell.cluster)
    });
    fold.absorb(cell.label, &cell.jobs, cell.cluster, &outcome, &report, out);
}

/// A workload that is nothing but a fixed list of cells.
pub struct CellWorkload {
    pub cells: Vec<SimCell>,
}

impl Workload for CellWorkload {
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let mut fold = SimFold::default();
        for cell in &self.cells {
            run_cell(cell, clock, traced, &mut fold, &mut out);
        }
        fold.finish(&mut out);
        out
    }
}
