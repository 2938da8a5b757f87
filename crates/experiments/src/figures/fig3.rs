//! Figure 3: normalized performance metrics across six workload scenarios
//! with 60 jobs each (paper §3.5).
//!
//! Heterogeneous Mix is excluded (it is covered by the §3.6 scalability
//! analysis), and average wait is omitted whenever FCFS achieved zero wait
//! (the 0/0 rule) — both exactly as in the paper.

use std::sync::Arc;

use rsched_campaign::CellSpec;
use rsched_cluster::ClusterConfig;
use rsched_parallel::ThreadPool;
use rsched_registry::PolicyRegistry;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{names as scenario_names, scenario_builtins};

use crate::figures::{paper_cells, run_cells, NormalizedFigure};
use crate::options::ExperimentOptions;

/// Jobs per scenario instance (60 in the paper).
pub fn jobs(opts: &ExperimentOptions) -> usize {
    opts.scaled(60)
}

/// The Figure 3 grid: the paper's five schedulers over each scenario,
/// scenario-major.
pub fn cells(opts: &ExperimentOptions) -> Vec<CellSpec> {
    let n = jobs(opts);
    let tree = SeedTree::new(opts.seed).subtree("fig3", 0);
    scenario_names::FIGURE3
        .into_iter()
        .enumerate()
        .flat_map(|(s_idx, scenario)| {
            let policy_seeds = SeedTree::new(tree.derive("policy", s_idx as u64));
            paper_cells(scenario, n, tree.derive(scenario, 0), policy_seeds, 0)
        })
        .collect()
}

/// Run the Figure 3 experiment: one group per scenario, labelled by its
/// title.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> NormalizedFigure {
    let runs = run_cells(
        Arc::new(PolicyRegistry::with_builtins()),
        ClusterConfig::paper_default(),
        opts.solver,
        cells(opts),
        pool,
    );
    let titles = scenario_names::FIGURE3
        .into_iter()
        .map(|s| scenario_builtins().title(s).unwrap_or(s).to_string())
        .collect();
    NormalizedFigure::new(
        format!(
            "Figure 3 — normalized metrics (vs FCFS = 1.00x), {} jobs per scenario",
            jobs(opts)
        ),
        Some(("scenario", "")),
        "scheduler",
        titles,
        runs,
    )
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
        assert_eq!(out.groups.len(), 6);
        for (scenario, rows) in &out.groups {
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
        let title = scenario_builtins()
            .title(scenario_names::ADVERSARIAL)
            .expect("builtin");
        let (_, rows) = out
            .groups
            .iter()
            .find(|(label, _)| label == title)
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
