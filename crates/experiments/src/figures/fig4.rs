//! Figure 4: scalability analysis — normalized metrics on the
//! Heterogeneous Mix workload for queue sizes 10 → 100 (paper §3.6).

use std::fmt::Write as _;

use rsched_cluster::ClusterConfig;
use rsched_metrics::NormalizedReport;
use rsched_parallel::ThreadPool;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::names as scenario_names;

use crate::figures::normalized_table;
use crate::options::ExperimentOptions;
use crate::runner::{
    normalize_table, policy_seed_named, run_matrix, scenario_jobs_named, MatrixCell, RunResult,
};
use rsched_registry::names;

/// The paper's queue sizes.
pub const PAPER_SIZES: [usize; 6] = [10, 20, 40, 60, 80, 100];

/// Figure 4 results: per-size normalized tables.
#[derive(Debug, Clone)]
pub struct Fig4Output {
    /// `(queue size, rows)` ascending.
    pub sizes: Vec<(usize, Vec<(String, NormalizedReport)>)>,
    /// The raw (pre-normalization) cells, for the JSON artifacts.
    pub runs: Vec<RunResult>,
}

/// Run the Figure 4 experiment.
pub fn run(opts: &ExperimentOptions, pool: &ThreadPool) -> Fig4Output {
    let sizes: Vec<usize> = if opts.quick {
        vec![10, 20, 40]
    } else {
        PAPER_SIZES.to_vec()
    };
    let tree = SeedTree::new(opts.seed).subtree("fig4", 0);
    let schedulers = names::PAPER_SET;

    let mut cells = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let jobs = scenario_jobs_named(
            scenario_names::HETEROGENEOUS_MIX,
            n,
            tree.derive("workload", n as u64),
        )
        .expect("builtin scenario");
        for name in schedulers {
            cells.push(MatrixCell {
                scheduler: name.to_string(),
                scenario: format!("heterogeneous-mix/{n}"),
                jobs: jobs.clone(),
                cluster: ClusterConfig::paper_default(),
                policy_seed: policy_seed_named(tree.derive("policy", i as u64), name, 0),
                solver: opts.solver,
            });
        }
    }
    let results = run_matrix(cells, pool);
    let sizes = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let slice = &results[i * schedulers.len()..(i + 1) * schedulers.len()];
            (n, normalize_table(slice, "FCFS"))
        })
        .collect();
    Fig4Output {
        sizes,
        runs: results,
    }
}

impl Fig4Output {
    /// Render all per-size tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4 — scalability on Heterogeneous Mix (normalized vs FCFS)\n"
        );
        for (n, rows) in &self.sizes {
            let _ = writeln!(out, "## {n} jobs");
            let _ = writeln!(out, "{}", normalized_table(rows).render());
        }
        out
    }

    /// Rows for one size.
    pub fn size_rows(&self, n: usize) -> Option<&[(String, NormalizedReport)]> {
        self.sizes
            .iter()
            .find(|(s, _)| *s == n)
            .map(|(_, rows)| rows.as_slice())
    }
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
        assert_eq!(out.sizes.len(), 3);
        assert!(out.size_rows(10).is_some());
        for (n, rows) in &out.sizes {
            assert_eq!(rows.len(), 5, "size {n}");
        }
        assert!(out.render().contains("10 jobs"));
    }
}
