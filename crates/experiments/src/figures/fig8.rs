//! Figure 8: evaluation on real workload traces — 100 preprocessed Polaris
//! jobs on the 560-node × 512 GB/node configuration, all five schedulers,
//! normalized against FCFS (paper §5).
//!
//! The trace comes from the calibrated Polaris synthesizer + the paper's
//! preprocessing pipeline (`rsched-workloads::polaris`).

use std::sync::Arc;

use rsched_cluster::ClusterConfig;
use rsched_parallel::ThreadPool;
use rsched_registry::PolicyRegistry;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::polaris::polaris_workload;

use crate::figures::{paper_set, run_grid, Group, NormalizedFigure};
use crate::options::ExperimentOptions;

/// Run the Figure 8 experiment: one table.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> NormalizedFigure {
    let n = opts.scaled(100);
    let tree = SeedTree::new(opts.seed).subtree("fig8", 0);
    let jobs = polaris_workload(n, tree.derive("trace", 0));
    let replayed = jobs.len();
    let group = Group {
        label: format!("polaris/{replayed}"),
        jobs,
        policies: paper_set(SeedTree::new(tree.derive("policy", 0)), 0),
    };
    let runs = run_grid(
        Arc::new(PolicyRegistry::with_builtins()),
        ClusterConfig::polaris(),
        opts.solver,
        vec![group],
        pool,
    );
    NormalizedFigure::new(
        format!(
            "Figure 8 — Polaris trace replay, {replayed} jobs, 560 nodes × 512 GB \
             (normalized vs FCFS)"
        ),
        None,
        "scheduler",
        vec![String::new()],
        runs,
    )
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
        assert_eq!(out.groups[0].1.len(), 5);
        let fcfs = out.row("", "FCFS").expect("present");
        for (_, v) in fcfs.defined() {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // System efficiency is preserved by the LLM schedulers (paper §5):
        // utilization and throughput stay in the same ballpark as FCFS.
        for model in ["Claude-3.7", "O4-Mini"] {
            let row = out.row("", model).expect("present");
            if let Some(util) = row.get(Metric::NodeUtilization) {
                assert!(util > 0.5, "{model} node util ratio {util}");
            }
        }
        assert!(out.render().contains("Polaris"));
    }
}
