//! Figures 5 and 6: the agents' computational overhead (paper §3.7), read
//! off the records of the runs whose schedules Figures 3 and 4 score — the
//! overhead of a schedule is the overhead of the run that produced it, so
//! neither figure runs anything of its own.
//!
//! * Figure 5 (§3.7.1): total elapsed time, LLM call counts and per-call
//!   latency distributions for both models across the six Figure 3
//!   scenarios at 60 jobs, counting only accepted placement actions in the
//!   distribution.
//! * Figure 6 (§3.7.2): the same columns against queue size on
//!   Heterogeneous Mix — super-linear elapsed-time growth for O4-Mini (with
//!   a transient spike near 80 jobs in the paper's run), near-linear growth
//!   for Claude 3.7, and linear call-count scaling for both.

use rsched_campaign::OverheadSummary;
use rsched_metrics::TextTable;
use rsched_simkit::csv;

use crate::figures::NormalizedFigure;

/// An overhead figure: one row per agent cell of the grid it is read from.
#[derive(Debug, Clone)]
pub struct OverheadFigure {
    /// The line printed above the table.
    pub heading: String,
    /// What the figure varies (`"scenario"` or `"jobs"`): the header of
    /// the first label column; the second is always `"model"`.
    pub(crate) varies: &'static str,
    /// `([label, model], overhead)` in the order of the grid's runs.
    pub rows: Vec<(Vec<String>, OverheadSummary)>,
}

/// Figure 5: overhead per scenario, from Figure 3's runs of `jobs` jobs
/// each.
pub fn fig5(fig3: &NormalizedFigure, jobs: usize) -> OverheadFigure {
    OverheadFigure {
        heading: format!(
            "Figure 5 — LLM overhead per scenario, {jobs} jobs (accepted placements only)"
        ),
        varies: "scenario",
        rows: agent_rows(fig3),
    }
}

/// Figure 6: overhead against queue size, from Figure 4's runs.
pub fn fig6(fig4: &NormalizedFigure) -> OverheadFigure {
    OverheadFigure {
        heading: "Figure 6 — LLM overhead scaling with queue size (Heterogeneous Mix)".to_string(),
        varies: "jobs",
        rows: agent_rows(fig4),
    }
}

/// The cells of `figure` whose record carries an overhead summary, each
/// labelled with its group.
fn agent_rows(figure: &NormalizedFigure) -> Vec<(Vec<String>, OverheadSummary)> {
    let mut runs = figure.runs.records.as_slice();
    let mut rows = Vec::new();
    for (label, group) in &figure.groups {
        let (cells, rest) = runs.split_at(group.len());
        runs = rest;
        for (_, run) in cells {
            if let Some(overhead) = &run.overhead {
                rows.push((vec![label.clone(), run.policy.clone()], overhead.clone()));
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

    /// One row per cell: the labels, the call count, the elapsed seconds
    /// and the latency summary, numbers to `decimals` (elapsed seconds to
    /// `elapsed_decimals`), `missing` for an empty sample.
    fn body(&self, elapsed_decimals: usize, decimals: usize, missing: &str) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|(labels, overhead)| {
                let mut row = labels.clone();
                row.push(overhead.call_count.to_string());
                row.push(format!(
                    "{:.*}",
                    elapsed_decimals, overhead.total_elapsed_secs
                ));
                row.extend(match overhead.latency_s {
                    Some(summary) => summary.map(|v| format!("{v:.decimals$}")),
                    None => [(); 4].map(|_| missing.to_string()),
                });
                row
            })
            .collect()
    }

    fn header(&self, columns: [&str; 6]) -> Vec<String> {
        let mut header = vec![self.varies.to_string(), "model".to_string()];
        header.extend(columns.map(String::from));
        header
    }

    /// Render the table (calls, elapsed, latency distribution).
    pub fn render(&self) -> String {
        let mut table = TextTable::new(self.header([
            "calls",
            "elapsed_s",
            "mean_s",
            "p50_s",
            "p95_s",
            "max_s",
        ]));
        for row in self.body(0, 1, "-") {
            table.push_row(row);
        }
        format!("{}\n\n{}\n", self.heading, table.render())
    }

    /// The same numbers as CSV, to three decimals (blank for an empty
    /// sample).
    pub fn to_csv(&self) -> String {
        let mut rows = vec![self.header([
            "calls",
            "elapsed_s",
            "latency_mean_s",
            "latency_p50_s",
            "latency_p95_s",
            "latency_max_s",
        ])];
        rows.extend(self.body(3, 3, ""));
        csv::write_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::TempCells;
    use crate::figures::{fig3, fig4};
    use crate::options::ExperimentOptions;
    use rsched_campaign::{CellSpec, PolicyRun};
    use rsched_cpsolver::SolverConfig;
    use rsched_parallel::ThreadPool;
    use rsched_registry::names;
    use rsched_simkit::csv::Table;

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
    fn assert_rows_are_the_agent_cells(figure: &OverheadFigure, runs: &[(CellSpec, PolicyRun)]) {
        let agent_cells: Vec<_> = runs
            .iter()
            .map(|(_, run)| run)
            .filter(|r| r.overhead.is_some())
            .collect();
        assert_eq!(figure.rows.len(), agent_cells.len());
        for ((labels, overhead), run) in figure.rows.iter().zip(agent_cells) {
            assert_eq!(labels[1], run.policy);
            assert!(names::LLM_PAIR.contains(&run.policy.as_str()));
            assert_eq!(Some(overhead), run.overhead.as_ref());
        }
    }

    #[test]
    fn fig5_is_the_overhead_of_the_runs_fig3_scores() {
        let jobs = fig3::jobs(&quick(5));
        let f3 = fig3::run(
            &quick(5),
            &TempCells::new("overhead_1").0,
            &ThreadPool::new(2),
        )
        .expect("runs");
        let out = fig5(&f3, jobs);
        assert_eq!(out.rows.len(), 12, "6 scenarios × 2 models");
        assert_rows_are_the_agent_cells(&out, &f3.runs.records);
        // Claude is faster than O4-Mini on every scenario (paper: up to 7×).
        for (scenario, _) in &f3.groups {
            let claude = out.cell(scenario, "Claude-3.7").expect("present");
            let o4 = out.cell(scenario, "O4-Mini").expect("present");
            assert!(
                o4.total_elapsed_secs > claude.total_elapsed_secs,
                "{scenario}: O4-Mini {} should exceed Claude {}",
                o4.total_elapsed_secs,
                claude.total_elapsed_secs
            );
            // Call counts are within the same order (≈ job count each).
            assert!(claude.call_count >= jobs);
        }
        assert!(out.render().contains("elapsed_s"));
    }

    #[test]
    fn fig6_is_the_overhead_of_the_runs_fig4_scores() {
        let f4 = fig4::run(
            &quick(1),
            &TempCells::new("overhead_2").0,
            &ThreadPool::new(2),
        )
        .expect("runs");
        let out = fig6(&f4);
        assert_eq!(out.rows.len(), 6, "3 sizes × 2 models");
        assert_rows_are_the_agent_cells(&out, &f4.runs.records);
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

    fn figure(latency_s: Option<[f64; 4]>) -> OverheadFigure {
        OverheadFigure {
            heading: "Heading".to_string(),
            varies: "jobs",
            rows: vec![(
                vec!["60".to_string(), "O4-Mini".to_string()],
                OverheadSummary {
                    total_elapsed_secs: 1500.0,
                    call_count: 61,
                    latency_s,
                },
            )],
        }
    }

    #[test]
    fn the_table_and_the_csv_print_one_latency_summary() {
        let out = figure(Some([20.0, 20.0, 29.0, 30.0]));
        let table = Table::parse(&out.to_csv()).expect("valid CSV");
        assert_eq!(table.get(0, "jobs"), Some("60"));
        assert_eq!(table.get(0, "calls"), Some("61"));
        assert_eq!(table.get(0, "elapsed_s"), Some("1500.000"));
        assert_eq!(table.get(0, "latency_mean_s"), Some("20.000"));
        assert_eq!(table.get(0, "latency_p95_s"), Some("29.000"));
        assert_eq!(table.get(0, "latency_max_s"), Some("30.000"));
        let text = out.render();
        assert!(text.starts_with("Heading\n\n"), "{text}");
        assert!(text.contains("1500"), "{text}");
        assert!(text.contains("20.0"), "{text}");
        assert!(text.contains("29.0"), "{text}");
    }

    #[test]
    fn an_empty_sample_leaves_blank_cells() {
        let out = figure(None);
        let table = Table::parse(&out.to_csv()).expect("valid CSV");
        assert_eq!(table.get(0, "latency_mean_s"), Some(""));
        assert_eq!(table.get(0, "latency_max_s"), Some(""));
        assert!(out.render().contains(" - "));
    }
}
