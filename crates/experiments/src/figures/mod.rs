//! One module per experiment grid; Figures 5 and 6 are [`overhead`] views
//! of the runs Figures 3 and 4 score.
//!
//! Every grid module lists its cells (`cells`) as campaign [`CellSpec`]s,
//! each naming its workload seed and its policy seed, and runs them with
//! `run_cells` through [`rsched_campaign::run_cell`] — the function that
//! runs a campaign cell. Figures 3, 4, 8 and the ablation normalize each
//! group against its FCFS run into a [`NormalizedFigure`].

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod overhead;

use std::fmt::Write as _;
use std::sync::Arc;

use rsched_campaign::{run_cell, CellSpec, PolicyRun};
use rsched_cluster::ClusterConfig;
use rsched_cpsolver::SolverConfig;
use rsched_metrics::table::fmt_ratio;
use rsched_metrics::{normalize_against, Metric, NormalizedReport, TextTable};
use rsched_parallel::ThreadPool;
use rsched_registry::{names, PolicyRegistry};
use rsched_simkit::csv;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::scenario_builtins;

/// Run `cells` on `pool` through [`rsched_campaign::run_cell`] on
/// `cluster`, returning each cell beside its run in input order.
///
/// # Panics
/// If a name is in neither `policies` nor the builtin scenarios, or a run
/// fails.
pub(crate) fn run_cells(
    policies: Arc<PolicyRegistry>,
    cluster: ClusterConfig,
    solver: SolverConfig,
    cells: Vec<CellSpec>,
    pool: &ThreadPool,
) -> Vec<(CellSpec, PolicyRun)> {
    // Each task carries its machine and solver budget rather than the
    // closure capturing them. A worker frees the task box the pool
    // allocated on this thread; at ~90 bytes that box lands in a size class
    // the runs' growing buffers reuse, and every later `realloc` of it then
    // takes glibc's main-arena lock against the other worker (Figure 7 on
    // 2 workers, x86-64 glibc: 40 → ~4 000 voluntary context switches,
    // +15 % CPU). At ~250 bytes it does not. The cell itself goes back to
    // this thread inside the result.
    let tasks = cells
        .into_iter()
        .map(|cell| (cell, cluster, solver))
        .collect();
    pool.par_map(tasks, move |(cell, cluster, solver)| {
        run_cell(&policies, scenario_builtins(), cell, solver, cluster, 1.0)
    })
}

/// The paper's five schedulers over one workload, each seeded
/// `policy_seeds.derive(name, stream)`.
pub(crate) fn paper_cells(
    scenario: &str,
    jobs: usize,
    workload_seed: u64,
    policy_seeds: SeedTree,
    stream: u64,
) -> impl Iterator<Item = CellSpec> + '_ {
    names::PAPER_SET.into_iter().map(move |name| CellSpec {
        policy: name.to_string(),
        scenario: scenario.to_string(),
        jobs,
        workload_seed,
        policy_seed: policy_seeds.derive(name, stream),
    })
}

/// A figure of FCFS-normalized tables (Figures 3, 4, 8 and the ablation):
/// one table per group of the grid.
#[derive(Debug, Clone)]
pub struct NormalizedFigure {
    /// The line printed above the tables.
    pub heading: String,
    /// What the groups vary: the CSV header of the group column and the
    /// text printed after a group's label in its `## ` title. `None` for a
    /// figure of one table, whose group label is empty.
    pub group: Option<(&'static str, &'static str)>,
    /// The CSV header of the row-label column.
    pub(crate) rows_are: &'static str,
    /// `(group label, (policy, FCFS-normalized report) rows)` in grid
    /// order.
    pub groups: Vec<(String, Vec<(String, NormalizedReport)>)>,
    /// The cells and their runs, group-major, for the JSON artifacts.
    pub runs: Vec<(CellSpec, PolicyRun)>,
}

impl NormalizedFigure {
    /// Normalize `runs` — equal-sized groups in the order of `labels` —
    /// each against the group's FCFS run.
    ///
    /// # Panics
    /// If there are no runs, or a group has no FCFS run.
    pub(crate) fn new(
        heading: String,
        group: Option<(&'static str, &'static str)>,
        rows_are: &'static str,
        labels: Vec<String>,
        runs: Vec<(CellSpec, PolicyRun)>,
    ) -> Self {
        let per_group = runs.len() / labels.len();
        let groups = labels
            .into_iter()
            .zip(runs.chunks(per_group))
            .map(|(label, cells)| {
                let base = cells
                    .iter()
                    .find(|(_, run)| run.policy == names::FCFS)
                    .unwrap_or_else(|| panic!("group `{label}` has no FCFS run"))
                    .1
                    .report;
                let rows = cells
                    .iter()
                    .map(|(_, run)| (run.policy.clone(), normalize_against(&run.report, &base)))
                    .collect();
                (label, rows)
            })
            .collect();
        NormalizedFigure {
            heading,
            group,
            rows_are,
            groups,
            runs,
        }
    }

    /// One policy's row in the group labelled `group` (`""` for a figure
    /// of one table).
    pub fn row(&self, group: &str, policy: &str) -> Option<&NormalizedReport> {
        let (_, rows) = self.groups.iter().find(|(label, _)| label == group)?;
        rows.iter().find(|(p, _)| p == policy).map(|(_, r)| r)
    }

    /// The paper-style tables, ratios to two decimals (`-` where omitted).
    pub fn render(&self) -> String {
        let mut out = format!("{}\n\n", self.heading);
        for (label, rows) in &self.groups {
            if let Some((_, suffix)) = self.group {
                let _ = writeln!(out, "## {label}{suffix}");
            }
            let mut header = vec!["scheduler".to_string()];
            header.extend(Metric::all().into_iter().map(|m| m.name().to_string()));
            let mut table = TextTable::new(header);
            for (name, report) in rows {
                let mut row = vec![name.clone()];
                row.extend(Metric::all().into_iter().map(|m| fmt_ratio(report.get(m))));
                table.push_row(row);
            }
            let _ = writeln!(out, "{}", table.render());
        }
        out
    }

    /// The rows as CSV, ratios to six decimals (empty where omitted).
    pub fn to_csv(&self) -> String {
        let mut header: Vec<String> = self.group.iter().map(|(c, _)| c.to_string()).collect();
        header.push(self.rows_are.to_string());
        header.extend(Metric::all().into_iter().map(metric_key));
        let mut table = vec![header];
        for (label, rows) in &self.groups {
            for (name, report) in rows {
                let mut row: Vec<String> = self.group.iter().map(|_| label.clone()).collect();
                row.push(name.clone());
                row.extend(Metric::all().into_iter().map(|m| match report.get(m) {
                    Some(v) => format!("{v:.6}"),
                    None => String::new(),
                }));
                table.push(row);
            }
        }
        csv::write_rows(table)
    }
}

/// A metric's machine-readable key (`avg_wait`, `node_util`, …).
pub(crate) fn metric_key(metric: Metric) -> String {
    metric.name().replace(' ', "_").to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_metrics::MetricsReport;
    use rsched_sim::{Action, SchedulingPolicy, SystemView};
    use rsched_simkit::csv::Table;
    use rsched_workloads::names as scenario_names;

    fn quick_solver() -> SolverConfig {
        SolverConfig {
            sa_iterations_per_task: 40,
            sa_iteration_cap: 800,
            ..SolverConfig::default()
        }
    }

    fn builtins() -> Arc<PolicyRegistry> {
        Arc::new(PolicyRegistry::with_builtins())
    }

    fn one_cell(policy: &str, scenario: &str, jobs: usize, seed: u64) -> CellSpec {
        CellSpec {
            policy: policy.to_string(),
            scenario: scenario.to_string(),
            jobs,
            workload_seed: seed,
            policy_seed: seed,
        }
    }

    #[test]
    fn every_builtin_completes_a_small_scenario_with_overhead_only_for_the_agents() {
        let cells = names::ALL_BUILTIN
            .into_iter()
            .map(|name| one_cell(name, scenario_names::HETEROGENEOUS_MIX, 10, 7))
            .collect();
        let runs = run_cells(
            builtins(),
            ClusterConfig::paper_default(),
            quick_solver(),
            cells,
            &ThreadPool::new(2),
        );
        for (cell, run) in &runs {
            let name = cell.policy.as_str();
            assert!(run.report.makespan_secs > 0.0, "{name}");
            assert_eq!(run.stats.placements, 10, "{name}");
            assert_eq!(
                run.overhead.is_some(),
                names::LLM_PAIR.contains(&name),
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_policy_name_errors_without_panicking() {
        let jobs = scenario_builtins()
            .generate(
                scenario_names::RESOURCE_SPARSE,
                &rsched_workloads::ScenarioContext::new(8).with_seed(1),
            )
            .expect("builtin")
            .jobs;
        let registry = PolicyRegistry::with_builtins();
        let cluster = ClusterConfig::paper_default();
        let run =
            rsched_campaign::run_policy(&registry, "pbs-pro", &jobs, cluster, 1, quick_solver());
        assert!(run.is_err());
    }

    #[test]
    fn a_run_is_labelled_by_its_registry_name() {
        struct NarrowestFirst;
        impl SchedulingPolicy for NarrowestFirst {
            fn name(&self) -> &str {
                // Deliberately differs from the registry name.
                "NarrowestFirst v2"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                if view.all_jobs_started() {
                    return Action::Stop;
                }
                match view.eligible_now().min_by_key(|j| j.nodes) {
                    Some(j) => Action::StartJob(j.id),
                    None => Action::Delay,
                }
            }
        }
        let mut registry = PolicyRegistry::with_builtins();
        registry
            .register("narrowest-first", |_| Box::new(NarrowestFirst))
            .expect("fresh name");
        let cells = ["narrowest-first", "fcfs"]
            .into_iter()
            .map(|p| one_cell(p, scenario_names::HETEROGENEOUS_MIX, 10, 2))
            .collect();
        let runs = run_cells(
            Arc::new(registry),
            ClusterConfig::paper_default(),
            quick_solver(),
            cells,
            &ThreadPool::new(2),
        );
        assert_eq!(runs[0].1.policy, "narrowest-first");
        assert_eq!(runs[1].1.policy, "FCFS", "the registered case");
        assert_eq!(runs[1].0.policy, "fcfs", "the cell as it was named");
        assert!(runs[0].1.overhead.is_none());
    }

    #[test]
    fn the_cells_keep_their_order_through_the_pool() {
        let cells: Vec<CellSpec> = [10, 12]
            .into_iter()
            .flat_map(|n| paper_cells(scenario_names::RESOURCE_SPARSE, n, 2, SeedTree::new(3), 0))
            .collect();
        let runs = run_cells(
            builtins(),
            ClusterConfig::paper_default(),
            quick_solver(),
            cells.clone(),
            &ThreadPool::new(4),
        );
        let back: Vec<CellSpec> = runs.iter().map(|(cell, _)| cell.clone()).collect();
        assert_eq!(back, cells);
        for (cell, run) in &runs {
            assert_eq!(run.policy, cell.policy);
            assert_eq!(run.stats.placements, cell.jobs);
        }
    }

    fn report(wait: f64) -> MetricsReport {
        MetricsReport {
            makespan_secs: 100.0,
            avg_wait_secs: wait,
            avg_turnaround_secs: 50.0,
            throughput: 0.5,
            node_utilization: 0.7,
            memory_utilization: 0.6,
            wait_fairness: 0.9,
            user_fairness: 0.8,
        }
    }

    fn cell(policy: &str, wait: f64) -> (CellSpec, PolicyRun) {
        (
            one_cell(policy, "x", 8, 1),
            PolicyRun {
                policy: policy.to_string(),
                report: report(wait),
                stats: Default::default(),
                overhead: None,
            },
        )
    }

    #[test]
    fn groups_normalize_against_their_own_fcfs_run() {
        let runs = vec![
            cell("SJF", 5.0),
            cell("FCFS", 10.0),
            cell("FCFS", 20.0),
            cell("SJF", 5.0),
        ];
        let figure = NormalizedFigure::new(
            "Heading".to_string(),
            Some(("jobs", " jobs")),
            "scheduler",
            vec!["10".to_string(), "20".to_string()],
            runs,
        );
        let wait = |g, p| figure.row(g, p).and_then(|r| r.get(Metric::AvgWait));
        assert_eq!(wait("10", "FCFS"), Some(1.0));
        assert_eq!(wait("10", "SJF"), Some(0.5));
        assert_eq!(wait("20", "SJF"), Some(0.25));
        let text = figure.render();
        assert!(text.starts_with("Heading\n\n## 10 jobs\n"), "{text}");
        let table = Table::parse(&figure.to_csv()).expect("valid CSV");
        assert_eq!(table.rows.len(), 4);
        assert_eq!(table.get(3, "jobs"), Some("20"));
        assert_eq!(table.get(3, "scheduler"), Some("SJF"));
        assert_eq!(table.get(3, "avg_wait"), Some("0.250000"));
        assert_eq!(table.get(3, "makespan"), Some("1.000000"));
    }

    #[test]
    fn a_figure_of_one_table_has_no_group_column_and_blanks_omitted_ratios() {
        let figure = NormalizedFigure::new(
            "Heading".to_string(),
            None,
            "persona",
            vec![String::new()],
            vec![cell("FCFS", 0.0), cell("balanced", 0.0)],
        );
        assert!(!figure.render().contains("##"));
        let table = Table::parse(&figure.to_csv()).expect("valid CSV");
        assert_eq!(table.header[0], "persona");
        assert_eq!(table.get(1, "persona"), Some("balanced"));
        assert_eq!(table.get(1, "avg_wait"), Some(""), "0/0 is omitted");
        assert!(figure.row("", "balanced").is_some());
    }

    #[test]
    #[should_panic(expected = "has no FCFS run")]
    fn a_group_without_fcfs_panics() {
        let _ = NormalizedFigure::new(
            String::new(),
            None,
            "scheduler",
            vec![String::new()],
            vec![cell("SJF", 1.0)],
        );
    }
}
