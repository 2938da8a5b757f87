//! Figures 5 and 6: the agents' computational overhead (paper §3.7), read
//! off the runs whose schedules Figures 3 and 4 score — the overhead of a
//! schedule is the overhead of the run that produced it, so neither figure
//! runs anything of its own.
//!
//! * Figure 5 (§3.7.1): total elapsed time, LLM call counts and per-call
//!   latency distributions for both models across the six Figure 3
//!   scenarios at 60 jobs, counting only accepted placement actions in the
//!   distribution.
//! * Figure 6 (§3.7.2): the same columns against queue size on
//!   Heterogeneous Mix — super-linear elapsed-time growth for O4-Mini (with
//!   a transient spike near 80 jobs in the paper's run), near-linear growth
//!   for Claude 3.7, and linear call-count scaling for both.

use std::fmt::Write as _;

use rsched_metrics::TextTable;
use rsched_workloads::scenario_builtins;

use crate::figures::fig3::Fig3Output;
use crate::figures::fig4::Fig4Output;
use crate::figures::{latency_columns, latency_row};
use crate::runner::{OverheadSummary, RunResult};

/// An overhead figure: one row per agent cell of the grid it is read from.
#[derive(Debug, Clone)]
pub struct OverheadFigure {
    /// The line printed above the table.
    pub heading: String,
    /// What the figure varies (`"scenario"` or `"jobs"`): the header of
    /// the first label column; the second is always `"model"`.
    pub varies: &'static str,
    /// `([label, model], overhead)` in the order of the grid's runs.
    pub rows: Vec<(Vec<String>, OverheadSummary)>,
}

/// Figure 5: overhead per scenario, from Figure 3's runs.
pub fn fig5(fig3: &Fig3Output) -> OverheadFigure {
    let groups = fig3.scenarios.iter().map(|(scenario, rows)| {
        let title = scenario_builtins().title(scenario).unwrap_or(scenario);
        (title.to_string(), rows.len())
    });
    OverheadFigure {
        heading: format!(
            "Figure 5 — LLM overhead per scenario, {} jobs (accepted placements only)",
            fig3.jobs_per_scenario
        ),
        varies: "scenario",
        rows: agent_rows(groups, &fig3.runs),
    }
}

/// Figure 6: overhead against queue size, from Figure 4's runs.
pub fn fig6(fig4: &Fig4Output) -> OverheadFigure {
    let groups = fig4
        .sizes
        .iter()
        .map(|(n, rows)| (n.to_string(), rows.len()));
    OverheadFigure {
        heading: "Figure 6 — LLM overhead scaling with queue size (Heterogeneous Mix)".to_string(),
        varies: "jobs",
        rows: agent_rows(groups, &fig4.runs),
    }
}

/// The cells of `runs` that carry an overhead ledger, each labelled with
/// its group: `runs` is group-major, `(label, cells in the group)` says how.
fn agent_rows(
    groups: impl Iterator<Item = (String, usize)>,
    mut runs: &[RunResult],
) -> Vec<(Vec<String>, OverheadSummary)> {
    let mut rows = Vec::new();
    for (label, len) in groups {
        let (group, rest) = runs.split_at(len);
        runs = rest;
        for run in group {
            if let Some(overhead) = &run.overhead {
                rows.push((vec![label.clone(), run.scheduler.clone()], overhead.clone()));
            }
        }
    }
    rows
}

impl OverheadFigure {
    /// The overhead of one `(label, model)` cell.
    pub fn cell(&self, label: &str, model: &str) -> Option<&OverheadSummary> {
        self.rows
            .iter()
            .find(|(labels, _)| labels[0] == label && labels[1] == model)
            .map(|(_, overhead)| overhead)
    }

    /// Render the table (calls, elapsed, latency distribution).
    pub fn render(&self) -> String {
        let mut header = vec![self.varies.to_string(), "model".to_string()];
        header.extend(latency_columns().iter().map(|c| c.to_string()));
        let mut table = TextTable::new(header);
        for (labels, overhead) in &self.rows {
            let mut row = labels.clone();
            row.extend(latency_row(
                overhead.call_count,
                overhead.total_elapsed_secs,
                &overhead.placement_latencies,
            ));
            table.push_row(row);
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}\n\n{}", self.heading, table.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig3, fig4};
    use crate::options::ExperimentOptions;
    use rsched_cpsolver::SolverConfig;
    use rsched_parallel::ThreadPool;
    use rsched_registry::names;

    fn quick(seed: u64) -> ExperimentOptions {
        ExperimentOptions {
            seed,
            quick: true,
            solver: SolverConfig {
                sa_iterations_per_task: 30,
                sa_iteration_cap: 600,
                ..SolverConfig::default()
            },
        }
    }

    /// The figure's rows are the `overhead` of the grid's agent cells, cell
    /// for cell and in order — nothing else was run.
    fn assert_rows_are_the_agent_cells(figure: &OverheadFigure, runs: &[RunResult]) {
        let agent_cells: Vec<_> = runs.iter().filter(|r| r.overhead.is_some()).collect();
        assert_eq!(figure.rows.len(), agent_cells.len());
        for ((labels, overhead), run) in figure.rows.iter().zip(agent_cells) {
            assert_eq!(labels[1], run.scheduler);
            assert!(names::LLM_PAIR.contains(&run.scheduler.as_str()));
            assert_eq!(Some(overhead), run.overhead.as_ref());
        }
    }

    #[test]
    fn fig5_is_the_overhead_of_the_runs_fig3_scores() {
        let f3 = fig3::run(&quick(5), &ThreadPool::new(2));
        let out = fig5(&f3);
        assert_eq!(out.rows.len(), 12, "6 scenarios × 2 models");
        assert_rows_are_the_agent_cells(&out, &f3.runs);
        // Claude is faster than O4-Mini on every scenario (paper: up to 7×).
        for (scenario, _) in &f3.scenarios {
            let title = scenario_builtins().title(scenario).expect("builtin");
            let claude = out.cell(title, "Claude-3.7").expect("present");
            let o4 = out.cell(title, "O4-Mini").expect("present");
            assert!(
                o4.total_elapsed_secs > claude.total_elapsed_secs,
                "{scenario}: O4-Mini {} should exceed Claude {}",
                o4.total_elapsed_secs,
                claude.total_elapsed_secs
            );
            // Call counts are within the same order (≈ job count each).
            assert!(claude.call_count >= f3.jobs_per_scenario);
        }
        assert!(out.render().contains("elapsed_s"));
    }

    #[test]
    fn fig6_is_the_overhead_of_the_runs_fig4_scores() {
        let f4 = fig4::run(&quick(1), &ThreadPool::new(2));
        let out = fig6(&f4);
        assert_eq!(out.rows.len(), 6, "3 sizes × 2 models");
        assert_rows_are_the_agent_cells(&out, &f4.runs);
        for (lo, hi) in [("10", "20"), ("20", "40")] {
            for model in ["Claude-3.7", "O4-Mini"] {
                let small = out.cell(lo, model).expect("present");
                let large = out.cell(hi, model).expect("present");
                assert!(
                    large.call_count > small.call_count,
                    "{model}: calls must grow {lo}→{hi}"
                );
            }
        }
        for n in ["10", "20", "40"] {
            let claude = out.cell(n, "Claude-3.7").expect("present");
            let o4 = out.cell(n, "O4-Mini").expect("present");
            assert!(o4.total_elapsed_secs > claude.total_elapsed_secs);
        }
        assert!(out.render().contains("jobs"));
    }
}
