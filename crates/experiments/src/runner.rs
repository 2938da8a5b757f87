//! Running one (scheduler, workload) cell and fanning out the matrix.
//!
//! Schedulers are addressed by **registry name** (see
//! [`rsched_registry::names`]): every cell is a registry lookup plus one
//! [`Simulation`] run, so third-party policies registered into a
//! [`PolicyRegistry`] flow through the same harness as the builtins.

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_metrics::{normalize_against, MetricsReport, NormalizedReport};
use rsched_parallel::ThreadPool;
use rsched_registry::{builtins, PolicyContext, PolicyRegistry, RegistryError};
use rsched_sim::{SimStats, Simulation};
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext, WorkloadError};

pub use rsched_cpsolver::SolverConfig;

/// LLM overhead numbers extracted from a run (paper §3.7) — re-exported
/// from the policy trait's uniform [`overhead_report`] hook.
///
/// [`overhead_report`]: rsched_sim::SchedulingPolicy::overhead_report
pub type OverheadSummary = rsched_sim::OverheadReport;

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The registry display name the cell was addressed by — stable for
    /// baseline lookups and artifacts even when the policy's own `name()`
    /// differs.
    pub scheduler: String,
    /// Free-form workload label (scenario slug, queue size, …) carried
    /// through from [`MatrixCell::scenario`]; empty for ad-hoc runs.
    pub scenario: String,
    /// The eight §3.2 metrics.
    pub report: MetricsReport,
    /// Simulator counters.
    pub stats: SimStats,
    /// LLM overhead, for the agent schedulers.
    pub overhead: Option<OverheadSummary>,
}

/// Generate the jobs for a named scenario instance (dynamic arrivals, as
/// in the paper's §3.1 evaluation). Resolves through the shared
/// [`ScenarioRegistry`](rsched_workloads::ScenarioRegistry) builtins, so
/// `swf:<path>` trace names work here too.
pub fn scenario_jobs_named(name: &str, n: usize, seed: u64) -> Result<Vec<JobSpec>, WorkloadError> {
    let ctx = ScenarioContext::new(n)
        .with_mode(ArrivalMode::Dynamic)
        .with_seed(seed);
    Ok(scenario_builtins().generate(name, &ctx)?.jobs)
}

/// Run the named scheduler from `registry` over one workload.
///
/// `policy_seed` feeds the stochastic schedulers (LLM sampling noise,
/// random policy, solver restarts); deterministic baselines ignore it.
/// Fails only on an unknown name; a simulation failure panics, as a
/// registered policy that cannot finish a workload is a harness bug.
pub fn run_with_registry(
    registry: &PolicyRegistry,
    scheduler: &str,
    jobs: &[JobSpec],
    cluster: ClusterConfig,
    policy_seed: u64,
    solver: &SolverConfig,
) -> Result<RunResult, RegistryError> {
    let ctx = PolicyContext::new(jobs, cluster)
        .with_seed(policy_seed)
        .with_solver(*solver);
    let mut policy = registry.build(scheduler, &ctx)?;
    let display = registry
        .display_name(scheduler)
        .expect("build succeeded, so the name resolves")
        .to_string();
    let outcome = Simulation::new(cluster)
        .jobs(jobs)
        .run(policy.as_mut())
        .unwrap_or_else(|e| {
            panic!(
                "simulation failed under {}: {e} (jobs={})",
                policy.name(),
                jobs.len()
            )
        });
    Ok(RunResult {
        scheduler: display,
        scenario: String::new(),
        report: MetricsReport::compute(&outcome.records, cluster),
        stats: outcome.stats,
        overhead: policy.overhead_report(),
    })
}

/// [`run_with_registry`] against the shared builtin registry.
pub fn run_named(
    scheduler: &str,
    jobs: &[JobSpec],
    cluster: ClusterConfig,
    policy_seed: u64,
    solver: &SolverConfig,
) -> Result<RunResult, RegistryError> {
    run_with_registry(builtins(), scheduler, jobs, cluster, policy_seed, solver)
}

/// A cell of the experiment matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Registry name of the scheduler to run.
    pub scheduler: String,
    /// Free-form workload label propagated into [`RunResult::scenario`]
    /// (and from there into the per-cell JSON artifacts).
    pub scenario: String,
    /// The workload.
    pub jobs: Vec<JobSpec>,
    /// Machine configuration.
    pub cluster: ClusterConfig,
    /// Policy seed.
    pub policy_seed: u64,
    /// Solver budget for solver-backed cells.
    pub solver: SolverConfig,
}

impl MatrixCell {
    /// Build a cell by **scenario name**: jobs come from the shared
    /// scenario registry (dynamic arrivals, seeded with `workload_seed`),
    /// and the cell label is `"<scenario>/<n>"`. Accepts any registered
    /// name or an `swf:<path>` trace reference.
    pub fn from_scenario(
        scheduler: &str,
        scenario: &str,
        n: usize,
        workload_seed: u64,
        cluster: ClusterConfig,
        policy_seed: u64,
        solver: SolverConfig,
    ) -> Result<MatrixCell, WorkloadError> {
        Ok(MatrixCell {
            scheduler: scheduler.to_string(),
            scenario: format!("{scenario}/{n}"),
            jobs: scenario_jobs_named(scenario, n, workload_seed)?,
            cluster,
            policy_seed,
            solver,
        })
    }
}

/// Run many cells in parallel on the thread pool, preserving input
/// order. Cells resolve against the shared builtin registry.
pub fn run_matrix(cells: Vec<MatrixCell>, pool: &ThreadPool) -> Vec<RunResult> {
    pool.par_map(cells, |cell| {
        let mut result = run_with_registry(
            builtins(),
            &cell.scheduler,
            &cell.jobs,
            cell.cluster,
            cell.policy_seed,
            &cell.solver,
        )
        .unwrap_or_else(|e| panic!("matrix cell failed: {e}"));
        result.scenario = cell.scenario;
        result
    })
}

/// Normalize a set of results against the named baseline (FCFS in every
/// paper figure), returning `(scheduler, normalized)` rows in input order.
pub fn normalize_table(results: &[RunResult], baseline: &str) -> Vec<(String, NormalizedReport)> {
    let base = results
        .iter()
        .find(|r| r.scheduler == baseline)
        .unwrap_or_else(|| panic!("baseline `{baseline}` missing from results"))
        .report;
    results
        .iter()
        .map(|r| (r.scheduler.clone(), normalize_against(&r.report, &base)))
        .collect()
}

/// Derive the per-cell policy seed for run `rep` of the named scheduler
/// from a root seed — stable across machines and runs.
pub fn policy_seed_named(root: u64, scheduler: &str, rep: u64) -> u64 {
    SeedTree::new(root).derive(scheduler, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_metrics::Metric;
    use rsched_registry::names;
    use rsched_sim::{Action, SchedulingPolicy, SystemView};
    use rsched_workloads::names as scenario_names;

    fn jobs_for(scenario: &str, n: usize, seed: u64) -> Vec<JobSpec> {
        scenario_jobs_named(scenario, n, seed).expect("builtin scenario")
    }

    fn quick_solver() -> SolverConfig {
        SolverConfig {
            sa_iterations_per_task: 40,
            sa_iteration_cap: 800,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn every_builtin_name_completes_a_small_scenario() {
        let jobs = jobs_for(scenario_names::HETEROGENEOUS_MIX, 10, 1);
        for name in names::ALL_BUILTIN {
            let r = run_named(
                name,
                &jobs,
                ClusterConfig::paper_default(),
                7,
                &quick_solver(),
            )
            .expect("builtin");
            assert!(r.report.makespan_secs > 0.0, "{name}");
            assert_eq!(
                r.overhead.is_some(),
                names::LLM_PAIR.contains(&name),
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_scheduler_name_errors_without_panicking() {
        let jobs = jobs_for(scenario_names::RESOURCE_SPARSE, 8, 1);
        let err = run_named(
            "pbs-pro",
            &jobs,
            ClusterConfig::paper_default(),
            1,
            &quick_solver(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn custom_registry_flows_through_the_harness() {
        struct NarrowestFirst;
        impl SchedulingPolicy for NarrowestFirst {
            fn name(&self) -> &str {
                // Deliberately differs from the registry name: results must
                // be labeled by the name the cell was addressed with.
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
        let jobs = jobs_for(scenario_names::HETEROGENEOUS_MIX, 10, 2);
        let r = run_with_registry(
            &registry,
            "narrowest-first",
            &jobs,
            ClusterConfig::paper_default(),
            1,
            &quick_solver(),
        )
        .expect("registered");
        assert_eq!(r.scheduler, "narrowest-first");
        assert!(r.overhead.is_none());
    }

    #[test]
    fn matrix_runs_in_parallel_and_preserves_order() {
        let pool = ThreadPool::new(4);
        let jobs = jobs_for(scenario_names::RESOURCE_SPARSE, 10, 2);
        let cells: Vec<MatrixCell> = names::PAPER_SET
            .into_iter()
            .map(|name| MatrixCell {
                scheduler: name.to_string(),
                scenario: "resource-sparse".to_string(),
                jobs: jobs.clone(),
                cluster: ClusterConfig::paper_default(),
                policy_seed: 3,
                solver: quick_solver(),
            })
            .collect();
        let results = run_matrix(cells, &pool);
        let names_out: Vec<&str> = results.iter().map(|r| r.scheduler.as_str()).collect();
        assert_eq!(
            names_out,
            vec!["FCFS", "SJF", "OR-Tools", "Claude-3.7", "O4-Mini"]
        );
        assert!(results.iter().all(|r| r.scenario == "resource-sparse"));
    }

    #[test]
    fn normalization_against_fcfs() {
        let jobs = jobs_for(scenario_names::HOMOGENEOUS_SHORT, 10, 3);
        let results: Vec<RunResult> = [names::FCFS, names::SJF]
            .into_iter()
            .map(|name| {
                run_named(
                    name,
                    &jobs,
                    ClusterConfig::paper_default(),
                    1,
                    &quick_solver(),
                )
                .expect("builtin")
            })
            .collect();
        let table = normalize_table(&results, "FCFS");
        let (name, fcfs_row) = &table[0];
        assert_eq!(name, "FCFS");
        for (_, v) in fcfs_row.defined() {
            assert!((v - 1.0).abs() < 1e-9, "baseline must normalize to 1.0");
        }
        // Makespan ratio for SJF is defined (FCFS makespan > 0).
        assert!(table[1].1.get(Metric::Makespan).is_some());
    }

    #[test]
    fn policy_seeds_are_stable_and_distinct() {
        let a = policy_seed_named(2025, names::CLAUDE37, 0);
        assert_ne!(a, policy_seed_named(2025, names::CLAUDE37, 1));
        assert_ne!(a, policy_seed_named(2025, names::O4_MINI, 0));
    }

    #[test]
    #[should_panic(expected = "baseline `FCFS` missing")]
    fn missing_baseline_panics() {
        let jobs = jobs_for(scenario_names::RESOURCE_SPARSE, 8, 1);
        let results = vec![run_named(
            names::SJF,
            &jobs,
            ClusterConfig::paper_default(),
            1,
            &quick_solver(),
        )
        .expect("builtin")];
        let _ = normalize_table(&results, "FCFS");
    }
}
