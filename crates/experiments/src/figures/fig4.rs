//! Figure 4: scalability analysis — normalized metrics on the
//! Heterogeneous Mix workload for queue sizes 10 → 100 (paper §3.6).

use std::path::Path;

use rsched_campaign::{run_cells, CampaignError, CellSpec};
use rsched_cluster::ClusterConfig;
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{names as scenario_names, scenario_builtins};

use crate::figures::{paper_cells, NormalizedFigure};
use crate::options::ExperimentOptions;

/// The paper's queue sizes.
pub(crate) const PAPER_SIZES: [usize; 6] = [10, 20, 40, 60, 80, 100];

/// The queue sizes run: the paper's, or the first three under `--quick`.
fn sizes(opts: &ExperimentOptions) -> &'static [usize] {
    if opts.quick {
        &PAPER_SIZES[..3]
    } else {
        &PAPER_SIZES
    }
}

/// The Figure 4 grid: the paper's five schedulers over Heterogeneous Mix
/// at each queue size, ascending.
pub fn cells(opts: &ExperimentOptions) -> Vec<CellSpec> {
    let tree = SeedTree::new(opts.seed).subtree("fig4", 0);
    sizes(opts)
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| {
            paper_cells(
                scenario_names::HETEROGENEOUS_MIX,
                n,
                tree.derive("workload", n as u64),
                SeedTree::new(tree.derive("policy", i as u64)),
                0,
            )
        })
        .collect()
}

/// Run the Figure 4 experiment: one group per queue size, ascending.
pub fn run(
    opts: &ExperimentOptions,
    cells_dir: &Path,
    pool: &ThreadPool,
) -> Result<NormalizedFigure, CampaignError> {
    let runs = run_cells(
        rsched_registry::builtins(),
        scenario_builtins(),
        cells(opts),
        ClusterConfig::paper_default(),
        opts.solver,
        1.0,
        cells_dir,
        pool,
    )?;
    Ok(NormalizedFigure::new(
        "Figure 4 — scalability on Heterogeneous Mix (normalized vs FCFS)".to_string(),
        Some(("jobs", " jobs")),
        "scheduler",
        sizes(opts).iter().map(usize::to_string).collect(),
        runs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::TempCells;
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
        let out = run(&opts, &TempCells::new("fig4_1").0, &pool).expect("runs");
        assert_eq!(out.groups.len(), 3);
        assert!(out.row("10", "FCFS").is_some());
        for (n, rows) in &out.groups {
            assert_eq!(rows.len(), 5, "size {n}");
        }
        assert!(out.render().contains("10 jobs"));
    }
}
