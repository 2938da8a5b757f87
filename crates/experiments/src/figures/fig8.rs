//! Figure 8: evaluation on real workload traces — 100 preprocessed Polaris
//! jobs on the 560-node × 512 GB/node configuration, all five schedulers,
//! normalized against FCFS (paper §5).
//!
//! The trace comes from the calibrated Polaris synthesizer + the paper's
//! preprocessing pipeline (`rsched-workloads::polaris`); a real exported
//! log in the same CSV schema can be substituted via `raw_from_csv`.

use std::fmt::Write as _;

use rsched_cluster::ClusterConfig;
use rsched_metrics::NormalizedReport;
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::polaris::polaris_workload;

use crate::figures::normalized_table;
use crate::options::ExperimentOptions;
use crate::runner::{normalize_table, policy_seed_named, run_matrix, MatrixCell, RunResult};
use rsched_registry::names;

/// Figure 8 results.
#[derive(Debug, Clone)]
pub struct Fig8Output {
    /// Jobs replayed (100 in the paper).
    pub jobs: usize,
    /// `(scheduler, normalized)` rows.
    pub rows: Vec<(String, NormalizedReport)>,
    /// The raw cells, for the JSON artifacts.
    pub runs: Vec<RunResult>,
}

/// Run the Figure 8 experiment.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> Fig8Output {
    let n = opts.scaled(100);
    let tree = SeedTree::new(opts.seed).subtree("fig8", 0);
    let jobs = polaris_workload(n, tree.derive("trace", 0));
    let cluster = ClusterConfig::polaris();

    let cells: Vec<MatrixCell> = names::PAPER_SET
        .into_iter()
        .map(|name| MatrixCell {
            scheduler: name.to_string(),
            scenario: format!("polaris/{}", jobs.len()),
            jobs: jobs.clone(),
            cluster,
            policy_seed: policy_seed_named(tree.derive("policy", 0), name, 0),
            solver: opts.solver,
        })
        .collect();
    let results = run_matrix(cells, pool);
    Fig8Output {
        jobs: jobs.len(),
        rows: normalize_table(&results, "FCFS"),
        runs: results,
    }
}

impl Fig8Output {
    /// Render the normalized table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 8 — Polaris trace replay, {} jobs, 560 nodes × 512 GB \
             (normalized vs FCFS)\n",
            self.jobs
        );
        let _ = writeln!(out, "{}", normalized_table(&self.rows).render());
        out
    }

    /// One scheduler's row.
    pub fn row(&self, scheduler: &str) -> Option<&NormalizedReport> {
        self.rows
            .iter()
            .find(|(name, _)| name == scheduler)
            .map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cpsolver::SolverConfig;
    use rsched_metrics::Metric;

    #[test]
    fn polaris_replay_produces_five_rows() {
        let pool = ThreadPool::new(4);
        let opts = ExperimentOptions {
            seed: 4,
            quick: true,
            solver: SolverConfig {
                sa_iterations_per_task: 30,
                sa_iteration_cap: 600,
                ..SolverConfig::default()
            },
        };
        let out = run(&opts, &pool);
        assert_eq!(out.rows.len(), 5);
        let fcfs = out.row("FCFS").expect("present");
        for (_, v) in fcfs.defined() {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // System efficiency is preserved by the LLM schedulers (paper §5):
        // utilization and throughput stay in the same ballpark as FCFS.
        for model in ["Claude-3.7", "O4-Mini"] {
            let row = out.row(model).expect("present");
            if let Some(util) = row.get(Metric::NodeUtilization) {
                assert!(util > 0.5, "{model} node util ratio {util}");
            }
        }
        assert!(out.render().contains("Polaris"));
    }
}
