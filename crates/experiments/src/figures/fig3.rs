//! Figure 3: normalized performance metrics across six workload scenarios
//! with 60 jobs each (paper §3.5).
//!
//! Heterogeneous Mix is excluded (it is covered by the §3.6 scalability
//! analysis), and average wait is omitted whenever FCFS achieved zero wait
//! (the 0/0 rule) — both exactly as in the paper.

use std::fmt::Write as _;

use rsched_cluster::ClusterConfig;
use rsched_metrics::NormalizedReport;
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{names as scenario_names, scenario_builtins};

use crate::figures::normalized_table;
use crate::options::ExperimentOptions;
use crate::runner::{
    normalize_table, policy_seed_named, run_matrix, scenario_jobs_named, MatrixCell, RunResult,
};
use rsched_registry::names;

/// Figure 3 results: per-scenario normalized tables.
#[derive(Debug, Clone)]
pub struct Fig3Output {
    /// Jobs per scenario instance (60 in the paper).
    pub jobs_per_scenario: usize,
    /// `(scenario name, rows)` in presentation order.
    pub scenarios: Vec<(String, Vec<(String, NormalizedReport)>)>,
    /// The raw (pre-normalization) cells, for the JSON artifacts.
    pub runs: Vec<RunResult>,
}

/// Run the Figure 3 experiment.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> Fig3Output {
    let n = opts.scaled(60);
    let tree = SeedTree::new(opts.seed).subtree("fig3", 0);
    let schedulers = names::PAPER_SET;

    let mut cells = Vec::new();
    for (s_idx, scenario) in scenario_names::FIGURE3.into_iter().enumerate() {
        let jobs = scenario_jobs_named(scenario, n, tree.derive(scenario, 0))
            .expect("figure-3 scenarios are builtin");
        for name in schedulers {
            cells.push(MatrixCell {
                scheduler: name.to_string(),
                scenario: format!("{scenario}/{n}"),
                jobs: jobs.clone(),
                cluster: ClusterConfig::paper_default(),
                policy_seed: policy_seed_named(tree.derive("policy", s_idx as u64), name, 0),
                solver: opts.solver,
            });
        }
    }
    let results = run_matrix(cells, pool);

    let scenarios = scenario_names::FIGURE3
        .into_iter()
        .enumerate()
        .map(|(s_idx, scenario)| {
            let slice = &results[s_idx * schedulers.len()..(s_idx + 1) * schedulers.len()];
            (scenario.to_string(), normalize_table(slice, "FCFS"))
        })
        .collect();

    Fig3Output {
        jobs_per_scenario: n,
        scenarios,
        runs: results,
    }
}

impl Fig3Output {
    /// Render all per-scenario tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 3 — normalized metrics (vs FCFS = 1.00x), {} jobs per scenario\n",
            self.jobs_per_scenario
        );
        for (scenario, rows) in &self.scenarios {
            let title = scenario_builtins().title(scenario).unwrap_or(scenario);
            let _ = writeln!(out, "## {title}");
            let _ = writeln!(out, "{}", normalized_table(rows).render());
        }
        out
    }

    /// Rows for one scenario, by registry name.
    pub fn scenario_rows(&self, scenario: &str) -> Option<&[(String, NormalizedReport)]> {
        self.scenarios
            .iter()
            .find(|(s, _)| s == scenario)
            .map(|(_, rows)| rows.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cpsolver::SolverConfig;
    use rsched_metrics::Metric;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions {
            seed: 11,
            quick: true,
            solver: SolverConfig {
                sa_iterations_per_task: 30,
                sa_iteration_cap: 600,
                ..SolverConfig::default()
            },
        }
    }

    #[test]
    fn produces_six_scenarios_with_five_schedulers() {
        let pool = ThreadPool::new(4);
        let out = run(&tiny_opts(), &pool);
        assert_eq!(out.scenarios.len(), 6);
        for (scenario, rows) in &out.scenarios {
            assert_eq!(rows.len(), 5, "{scenario}");
            assert_eq!(rows[0].0, "FCFS");
            // FCFS normalizes to 1.0 on every defined metric.
            for (_, v) in rows[0].1.defined() {
                assert!((v - 1.0).abs() < 1e-9);
            }
        }
        let text = out.render();
        assert!(text.contains("Long-Job Dominant"));
        assert!(text.contains("Claude-3.7"));
    }

    #[test]
    fn adversarial_scenario_is_flat_across_methods() {
        // Paper: "Adversarial conditions lead to flattened differences."
        let pool = ThreadPool::new(4);
        let out = run(&tiny_opts(), &pool);
        let rows = out
            .scenario_rows(scenario_names::ADVERSARIAL)
            .expect("present");
        for (name, report) in rows {
            if let Some(v) = report.get(Metric::Makespan) {
                assert!(
                    (0.8..1.2).contains(&v),
                    "{name} makespan ratio {v} should be near 1.0"
                );
            }
        }
    }
}
