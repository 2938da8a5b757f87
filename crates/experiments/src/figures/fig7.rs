//! Figure 7: statistical robustness — five independent repetitions of the
//! full pipeline on Heterogeneous Mix with 100 dynamically arriving jobs,
//! box-plotting each normalized metric per scheduler (paper §4).
//!
//! The workload is fixed across repetitions (FCFS/SJF are deterministic and
//! plot flat, as in the paper); only the stochastic components vary — LLM
//! sampling noise and the optimizer's restart seed.

use std::fmt::Write as _;
use std::sync::Arc;

use rsched_campaign::{CellSpec, PolicyRun};
use rsched_cluster::ClusterConfig;
use rsched_metrics::{normalize_against, Metric, MetricDistributions, TextTable};
use rsched_parallel::ThreadPool;
use rsched_registry::{names, PolicyRegistry};
use rsched_simkit::csv;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::names as scenario_names;

use crate::figures::{metric_key, paper_cells, run_cells};
use crate::options::ExperimentOptions;

/// Repetitions (5 in the paper; 3 under `--quick`).
pub(crate) const REPETITIONS: usize = 5;

/// Figure 7 results: per-scheduler normalized-metric distributions.
#[derive(Debug, Clone)]
pub struct Fig7Output {
    /// Jobs in the workload (100 in the paper).
    pub jobs: usize,
    /// Repetitions run.
    pub(crate) repetitions: usize,
    /// `(scheduler, distributions)` in paper order.
    pub distributions: Vec<(String, MetricDistributions)>,
    /// The cells and their runs (rep-major), for the JSON artifacts.
    pub runs: Vec<(CellSpec, PolicyRun)>,
}

/// The Figure 7 grid: the paper's five schedulers once per repetition,
/// rep-major, over one workload — only the policy seeds vary.
pub fn cells(opts: &ExperimentOptions) -> Vec<CellSpec> {
    let tree = SeedTree::new(opts.seed).subtree("fig7", 0);
    let workload_seed = tree.derive("workload", 0);
    let repetitions = if opts.quick { 3 } else { REPETITIONS };
    (0..repetitions as u64)
        .flat_map(|rep| {
            paper_cells(
                scenario_names::HETEROGENEOUS_MIX,
                opts.scaled(100),
                workload_seed,
                SeedTree::new(tree.derive("rep", rep)),
                rep,
            )
        })
        .collect()
}

/// Run the Figure 7 experiment.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> Fig7Output {
    let results = run_cells(
        Arc::new(PolicyRegistry::with_builtins()),
        ClusterConfig::paper_default(),
        opts.solver,
        cells(opts),
        pool,
    );

    // FCFS is deterministic over the fixed workload: its first-rep report is
    // the normalization baseline for every repetition.
    let baseline = results
        .iter()
        .find(|(_, run)| run.policy == names::FCFS)
        .expect("FCFS present")
        .1
        .report;

    let mut distributions: Vec<(String, MetricDistributions)> = names::PAPER_SET
        .iter()
        .map(|name| (name.to_string(), MetricDistributions::new()))
        .collect();
    for (i, (_, run)) in results.iter().enumerate() {
        let normalized = normalize_against(&run.report, &baseline);
        distributions[i % names::PAPER_SET.len()]
            .1
            .push_normalized(&normalized);
    }

    Fig7Output {
        jobs: opts.scaled(100),
        repetitions: results.len() / names::PAPER_SET.len(),
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
            self.repetitions, self.jobs
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

    /// The box-plot numbers as CSV, one row per `(scheduler, metric)` with
    /// samples.
    pub fn to_csv(&self) -> String {
        let header = [
            "scheduler",
            "metric",
            "n",
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "outliers",
        ];
        let mut rows = vec![header.map(String::from).to_vec()];
        for (name, dist) in &self.distributions {
            for metric in Metric::all() {
                if let Some(b) = dist.boxplot(metric) {
                    rows.push(vec![
                        name.clone(),
                        metric_key(metric),
                        b.count.to_string(),
                        format!("{:.6}", b.min),
                        format!("{:.6}", b.q1),
                        format!("{:.6}", b.median),
                        format!("{:.6}", b.q3),
                        format!("{:.6}", b.max),
                        b.outliers.len().to_string(),
                    ]);
                }
            }
        }
        csv::write_rows(rows)
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
        let text = out.render();
        assert!(text.contains("median"));
        assert!(text.contains("robustness over 3 repetitions"), "{text}");
        assert!(out.to_csv().contains("\nClaude-3.7,makespan,3,"));
    }
}
