//! Figure 4: scalability analysis — normalized metrics on the
//! Heterogeneous Mix workload for queue sizes 10 → 100 (paper §3.6).

use std::sync::Arc;

use rsched_cluster::ClusterConfig;
use rsched_parallel::ThreadPool;
use rsched_registry::PolicyRegistry;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::names as scenario_names;

use crate::figures::{paper_set, run_grid, scenario_jobs, Group, NormalizedFigure};
use crate::options::ExperimentOptions;

/// The paper's queue sizes.
pub const PAPER_SIZES: [usize; 6] = [10, 20, 40, 60, 80, 100];

/// Run the Figure 4 experiment: one group per queue size, ascending.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> NormalizedFigure {
    let sizes: Vec<usize> = if opts.quick {
        vec![10, 20, 40]
    } else {
        PAPER_SIZES.to_vec()
    };
    let tree = SeedTree::new(opts.seed).subtree("fig4", 0);
    let groups = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| Group {
            label: format!("heterogeneous-mix/{n}"),
            jobs: scenario_jobs(
                scenario_names::HETEROGENEOUS_MIX,
                n,
                tree.derive("workload", n as u64),
            ),
            policies: paper_set(SeedTree::new(tree.derive("policy", i as u64)), 0),
        })
        .collect();
    let runs = run_grid(
        Arc::new(PolicyRegistry::with_builtins()),
        ClusterConfig::paper_default(),
        opts.solver,
        groups,
        pool,
    );
    NormalizedFigure::new(
        "Figure 4 — scalability on Heterogeneous Mix (normalized vs FCFS)".to_string(),
        Some(("jobs", " jobs")),
        "scheduler",
        sizes.iter().map(usize::to_string).collect(),
        runs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cpsolver::SolverConfig;

    #[test]
    fn quick_mode_covers_three_sizes() {
        let pool = ThreadPool::new(4);
        let opts = ExperimentOptions {
            seed: 3,
            quick: true,
            solver: SolverConfig {
                sa_iterations_per_task: 30,
                sa_iteration_cap: 600,
                ..SolverConfig::default()
            },
        };
        let out = run(&opts, &pool);
        assert_eq!(out.groups.len(), 3);
        assert!(out.row("10", "FCFS").is_some());
        for (n, rows) in &out.groups {
            assert_eq!(rows.len(), 5, "size {n}");
        }
        assert!(out.render().contains("10 jobs"));
    }
}
