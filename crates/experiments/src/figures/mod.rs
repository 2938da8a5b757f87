//! One module per experiment grid; Figures 5 and 6 are [`overhead`] views
//! of the runs Figures 3 and 4 score.
//!
//! Every grid is a list of [`Group`]s run by [`run_grid`], whose cells go
//! through [`rsched_campaign::run_policy`] — the function that runs a
//! campaign cell too. Figures 3, 4, 8 and the ablation normalize each
//! group against its FCFS run into a [`NormalizedFigure`].

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod overhead;

use std::fmt::Write as _;
use std::sync::Arc;

use rsched_campaign::{run_policy, PolicyRun};
use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_cpsolver::SolverConfig;
use rsched_metrics::table::fmt_ratio;
use rsched_metrics::{normalize_against, Metric, NormalizedReport, TextTable};
use rsched_parallel::ThreadPool;
use rsched_registry::{names, PolicyRegistry};
use rsched_simkit::csv;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{scenario_builtins, ScenarioContext};

/// One cell of a figure grid.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The label of the cell's workload (`"<scenario>/<n>"`, with a
    /// `/rep<k>` suffix in Figure 7), carried into the cells JSON.
    pub scenario: String,
    /// What the run produced, labelled by the policy's registry name.
    pub run: PolicyRun,
}

/// One workload of a figure grid and the policies run over it.
#[derive(Debug, Clone)]
pub struct Group {
    /// The label every cell of the group carries ([`RunResult::scenario`]).
    pub label: String,
    /// The workload.
    pub jobs: Vec<JobSpec>,
    /// `(registry name, policy seed)` of each cell, in presentation order.
    pub policies: Vec<(&'static str, u64)>,
}

/// Run every cell of `groups` on `pool` through
/// [`rsched_campaign::run_policy`], returning the results group-major in
/// input order.
///
/// # Panics
/// If a name is not in `policies`, or a run fails.
pub fn run_grid(
    policies: Arc<PolicyRegistry>,
    cluster: ClusterConfig,
    solver: SolverConfig,
    groups: Vec<Group>,
    pool: &ThreadPool,
) -> Vec<RunResult> {
    // Each cell carries its machine and solver budget rather than the
    // closure capturing them. A worker frees the task box the pool
    // allocated on this thread; at ~90 bytes that box lands in a size class
    // the runs' growing buffers reuse, and every later `realloc` of it then
    // takes glibc's main-arena lock against the other worker (Figure 7 on
    // 2 workers, x86-64 glibc: 40 → ~4 000 voluntary context switches,
    // +15 % CPU). At ~250 bytes it does not.
    let mut cells = Vec::new();
    for group in groups {
        let jobs: Arc<[JobSpec]> = group.jobs.into();
        for (policy, seed) in group.policies {
            let label = group.label.clone();
            cells.push((label, Arc::clone(&jobs), policy, seed, cluster, solver));
        }
    }
    pool.par_map(
        cells,
        move |(scenario, jobs, policy, seed, cluster, solver)| RunResult {
            run: run_policy(&policies, policy, &jobs, cluster, seed, solver)
                .unwrap_or_else(|e| panic!("figure cell `{scenario}`: {e}")),
            scenario,
        },
    )
}

/// The paper's five schedulers, each seeded `seeds.derive(name, stream)`.
pub(crate) fn paper_set(seeds: SeedTree, stream: u64) -> Vec<(&'static str, u64)> {
    names::PAPER_SET
        .into_iter()
        .map(|name| (name, seeds.derive(name, stream)))
        .collect()
}

/// `n` jobs of a builtin scenario with dynamic arrivals (paper §3.1).
pub(crate) fn scenario_jobs(scenario: &str, n: usize, seed: u64) -> Vec<JobSpec> {
    scenario_builtins()
        .generate(scenario, &ScenarioContext::new(n).with_seed(seed))
        .unwrap_or_else(|e| panic!("figure scenario `{scenario}`: {e}"))
        .jobs
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
    pub rows_are: &'static str,
    /// `(group label, (policy, FCFS-normalized report) rows)` in grid
    /// order.
    pub groups: Vec<(String, Vec<(String, NormalizedReport)>)>,
    /// The raw cells, group-major, for the JSON artifacts.
    pub runs: Vec<RunResult>,
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
        runs: Vec<RunResult>,
    ) -> Self {
        let per_group = runs.len() / labels.len();
        let groups = labels
            .into_iter()
            .zip(runs.chunks(per_group))
            .map(|(label, cells)| {
                let base = cells
                    .iter()
                    .find(|r| r.run.policy == names::FCFS)
                    .unwrap_or_else(|| panic!("group `{label}` has no FCFS run"))
                    .run
                    .report;
                let rows = cells
                    .iter()
                    .map(|r| {
                        (
                            r.run.policy.clone(),
                            normalize_against(&r.run.report, &base),
                        )
                    })
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
    use rsched_campaign::{run_cell, CellResult, CellSpec};
    use rsched_metrics::MetricsReport;
    use rsched_sim::{Action, SchedulingPolicy, SystemView};
    use rsched_simkit::csv::Table;
    use rsched_workloads::{names as scenario_names, ScenarioRegistry};

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

    fn one_group(jobs: Vec<JobSpec>, policies: &[&'static str], seed: u64) -> Vec<Group> {
        vec![Group {
            label: "label".to_string(),
            jobs,
            policies: policies.iter().map(|&p| (p, seed)).collect(),
        }]
    }

    #[test]
    fn every_builtin_completes_a_small_scenario_with_overhead_only_for_the_agents() {
        let jobs = scenario_jobs(scenario_names::HETEROGENEOUS_MIX, 10, 1);
        let cluster = ClusterConfig::paper_default();
        let registry = PolicyRegistry::with_builtins();
        for name in names::ALL_BUILTIN {
            let run =
                run_policy(&registry, name, &jobs, cluster, 7, quick_solver()).expect("builtin");
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
        let jobs = scenario_jobs(scenario_names::RESOURCE_SPARSE, 8, 1);
        let registry = PolicyRegistry::with_builtins();
        let cluster = ClusterConfig::paper_default();
        assert!(run_policy(&registry, "pbs-pro", &jobs, cluster, 1, quick_solver()).is_err());
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
        let jobs = scenario_jobs(scenario_names::HETEROGENEOUS_MIX, 10, 2);
        let runs = run_grid(
            Arc::new(registry),
            ClusterConfig::paper_default(),
            quick_solver(),
            one_group(jobs, &["narrowest-first", "fcfs"], 1),
            &ThreadPool::new(2),
        );
        assert_eq!(runs[0].run.policy, "narrowest-first");
        assert_eq!(runs[1].run.policy, "FCFS", "the registered case");
        assert!(runs[0].run.overhead.is_none());
    }

    #[test]
    fn the_grid_keeps_cell_order_through_the_pool() {
        let jobs = scenario_jobs(scenario_names::RESOURCE_SPARSE, 10, 2);
        let groups = ["a", "b"]
            .into_iter()
            .map(|label| Group {
                label: label.to_string(),
                jobs: jobs.clone(),
                policies: paper_set(SeedTree::new(3), 0),
            })
            .collect();
        let runs = run_grid(
            builtins(),
            ClusterConfig::paper_default(),
            quick_solver(),
            groups,
            &ThreadPool::new(4),
        );
        let cells: Vec<(&str, &str)> = runs
            .iter()
            .map(|r| (r.scenario.as_str(), r.run.policy.as_str()))
            .collect();
        let expected: Vec<(&str, &str)> = ["a", "b"]
            .into_iter()
            .flat_map(|g| names::PAPER_SET.into_iter().map(move |p| (g, p)))
            .collect();
        assert_eq!(cells, expected);
    }

    /// A figure cell and a campaign cell at the same coordinates are the
    /// same run: the two paths share one function and must not fork.
    #[test]
    fn a_figure_cell_is_the_campaign_cell_at_the_same_coordinates() {
        let (scenario, n, seed) = (scenario_names::HETEROGENEOUS_MIX, 12, 2025);
        let cluster = ClusterConfig::paper_default();
        let policies = builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        for policy in [names::FCFS, names::OR_TOOLS, names::CLAUDE37] {
            let cell = CellSpec {
                policy: policy.to_string(),
                scenario: scenario.to_string(),
                jobs: n,
                seed,
            };
            let group = Group {
                label: format!("{scenario}/{n}"),
                jobs: scenario_jobs(scenario, n, cell.workload_seed()),
                policies: vec![(policy, cell.policy_seed())],
            };
            let figure = run_grid(
                Arc::clone(&policies),
                cluster,
                quick_solver(),
                vec![group],
                &ThreadPool::new(1),
            );
            let run = &figure[0].run;
            let from_figure = CellResult::new(
                cell.clone(),
                &run.report,
                run.stats.placements as u64,
                run.stats.epochs as u64,
            );
            let from_campaign = run_cell(&policies, &scenarios, cell, quick_solver(), cluster, 1.0);
            assert_eq!(from_figure, from_campaign, "{policy}");
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

    fn cell(policy: &str, wait: f64) -> RunResult {
        RunResult {
            scenario: "x/8".to_string(),
            run: PolicyRun {
                policy: policy.to_string(),
                report: report(wait),
                stats: Default::default(),
                overhead: None,
            },
        }
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
