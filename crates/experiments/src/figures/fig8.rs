//! Figure 8: evaluation on real workload traces — 100 preprocessed Polaris
//! jobs on the 560-node × 512 GB/node configuration, all five schedulers,
//! normalized against FCFS (paper §5).
//!
//! The trace is the `polaris` scenario: the calibrated Polaris synthesizer
//! and the paper's preprocessing pipeline (`rsched-workloads::polaris`).

use std::path::Path;

use rsched_campaign::{run_cells, CampaignError, CellSpec};
use rsched_cluster::ClusterConfig;
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{names as scenario_names, scenario_builtins};

use crate::figures::{paper_cells, NormalizedFigure};
use crate::options::ExperimentOptions;

/// The Figure 8 grid: the paper's five schedulers over one Polaris trace.
pub fn cells(opts: &ExperimentOptions) -> Vec<CellSpec> {
    let tree = SeedTree::new(opts.seed).subtree("fig8", 0);
    paper_cells(
        scenario_names::POLARIS,
        opts.scaled(100),
        tree.derive("trace", 0),
        SeedTree::new(tree.derive("policy", 0)),
        0,
    )
    .collect()
}

/// Run the Figure 8 experiment: one table.
pub fn run(
    opts: &ExperimentOptions,
    cells_dir: &Path,
    pool: &ThreadPool,
) -> Result<NormalizedFigure, CampaignError> {
    let runs = run_cells(
        rsched_registry::builtins(),
        scenario_builtins(),
        cells(opts),
        ClusterConfig::polaris(),
        opts.solver,
        1.0,
        cells_dir,
        pool,
    )?;
    Ok(NormalizedFigure::new(
        format!(
            "Figure 8 — Polaris trace replay, {} jobs, 560 nodes × 512 GB \
             (normalized vs FCFS)",
            opts.scaled(100)
        ),
        None,
        "scheduler",
        vec![String::new()],
        runs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::TempCells;
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
        let out = run(&opts, &TempCells::new("fig8_1").0, &pool).expect("runs");
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
