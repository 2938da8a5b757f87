//! Figure 7: statistical robustness — five independent repetitions of the
//! full pipeline on Heterogeneous Mix with 100 dynamically arriving jobs,
//! box-plotting each normalized metric per scheduler (paper §4).
//!
//! The workload is fixed across repetitions (FCFS/SJF are deterministic and
//! plot flat, as in the paper); only the stochastic components vary — LLM
//! sampling noise and the optimizer's restart seed.

use std::fmt::Write as _;

use rsched_cluster::ClusterConfig;
use rsched_metrics::{normalize_against, Metric, MetricDistributions, TextTable};
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::names as scenario_names;

use crate::options::ExperimentOptions;
use crate::runner::{policy_seed_named, run_matrix, scenario_jobs_named, MatrixCell, RunResult};
use rsched_registry::names;

/// Repetitions (5 in the paper).
pub const REPETITIONS: usize = 5;

/// Figure 7 results: per-scheduler normalized-metric distributions.
#[derive(Debug, Clone)]
pub struct Fig7Output {
    /// Jobs in the workload (100 in the paper).
    pub jobs: usize,
    /// `(scheduler, distributions)` in paper order.
    pub distributions: Vec<(String, MetricDistributions)>,
    /// The raw cells (rep-major), for the JSON artifacts.
    pub runs: Vec<RunResult>,
}

/// Run the Figure 7 experiment.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> Fig7Output {
    let n = opts.scaled(100);
    let reps = if opts.quick { 3 } else { REPETITIONS };
    let tree = SeedTree::new(opts.seed).subtree("fig7", 0);
    let jobs = scenario_jobs_named(
        scenario_names::HETEROGENEOUS_MIX,
        n,
        tree.derive("workload", 0),
    )
    .expect("builtin scenario");
    let schedulers = names::PAPER_SET;

    let mut cells = Vec::new();
    for rep in 0..reps {
        for name in schedulers {
            cells.push(MatrixCell {
                scheduler: name.to_string(),
                scenario: format!("heterogeneous-mix/{n}/rep{rep}"),
                jobs: jobs.clone(),
                cluster: ClusterConfig::paper_default(),
                policy_seed: policy_seed_named(tree.derive("rep", rep as u64), name, rep as u64),
                solver: opts.solver,
            });
        }
    }
    let results = run_matrix(cells, pool);

    // FCFS is deterministic over the fixed workload: its first-rep report is
    // the normalization baseline for every repetition.
    let baseline = results
        .iter()
        .find(|r| r.scheduler == "FCFS")
        .expect("FCFS present")
        .report;

    let mut distributions: Vec<(String, MetricDistributions)> = schedulers
        .iter()
        .map(|name| (name.to_string(), MetricDistributions::new()))
        .collect();
    for (i, result) in results.iter().enumerate() {
        let scheduler_idx = i % schedulers.len();
        let normalized = normalize_against(&result.report, &baseline);
        distributions[scheduler_idx].1.push_normalized(&normalized);
    }

    Fig7Output {
        jobs: n,
        distributions,
        runs: results,
    }
}

impl Fig7Output {
    /// Distributions for one scheduler.
    pub fn scheduler(&self, name: &str) -> Option<&MetricDistributions> {
        self.distributions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// Render one box-plot table per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 7 — robustness over {} repetitions, Heterogeneous Mix, {} jobs \
             (normalized vs FCFS)\n",
            REPETITIONS, self.jobs
        );
        for metric in Metric::all() {
            let _ = writeln!(out, "## {}", metric.name());
            let mut table = TextTable::new([
                "scheduler",
                "n",
                "min",
                "q1",
                "median",
                "q3",
                "max",
                "outliers",
            ]);
            for (name, dist) in &self.distributions {
                match dist.boxplot(metric) {
                    Some(b) => table.push_row([
                        name.clone(),
                        b.count.to_string(),
                        format!("{:.3}", b.min),
                        format!("{:.3}", b.q1),
                        format!("{:.3}", b.median),
                        format!("{:.3}", b.q3),
                        format!("{:.3}", b.max),
                        b.outliers.len().to_string(),
                    ]),
                    None => table.push_row([
                        name.clone(),
                        "0".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]),
                }
            }
            let _ = writeln!(out, "{}", table.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cpsolver::SolverConfig;

    #[test]
    fn deterministic_baselines_are_flat_and_llms_have_bounded_spread() {
        let pool = ThreadPool::new(4);
        let opts = ExperimentOptions {
            seed: 9,
            quick: true,
            solver: SolverConfig {
                sa_iterations_per_task: 30,
                sa_iteration_cap: 600,
                ..SolverConfig::default()
            },
        };
        let out = run(&opts, &pool);
        assert_eq!(out.distributions.len(), 5);

        // FCFS and SJF plot flat: zero IQR on every defined metric.
        for name in ["FCFS", "SJF"] {
            let dist = out.scheduler(name).expect("present");
            for metric in Metric::all() {
                if let Some(b) = dist.boxplot(metric) {
                    assert!(
                        b.iqr() < 1e-12,
                        "{name}/{}: deterministic policies must be flat",
                        metric.name()
                    );
                }
            }
        }
        // The LLM rows exist with one sample per repetition.
        let claude = out.scheduler("Claude-3.7").expect("present");
        assert_eq!(claude.len(Metric::Makespan), 3, "quick mode runs 3 reps");
        assert!(out.render().contains("median"));
    }
}
