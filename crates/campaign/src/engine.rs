//! The campaign engine: expand the spec into its grid and hand the cells
//! to [`run_cells`]'s runner — the one runner, which a figure grid goes
//! through too. It serves cells from their records, generates each
//! distinct workload of the misses once (a campaign refuses its grid there
//! if one does not fit the machine), executes the misses on the thread pool,
//! and merges **in grid order regardless of completion order** — so a
//! campaign's output is a pure function of its spec, not of thread
//! scheduling.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_cpsolver::SolverConfig;
use rsched_metrics::MetricsReport;
use rsched_parallel::ThreadPool;
use rsched_registry::{PolicyContext, PolicyRegistry};
use rsched_sim::{validate_workload, OverheadReport, SimStats, Simulation};
use rsched_simkit::stats::quantile;
use rsched_workloads::{ArrivalMode, ScenarioContext, ScenarioRegistry, Workload};

use crate::cache::{io_err, read_record, write_record};
use crate::cell::{derived_policy_seed, CellResult, CellSpec};
use crate::error::CampaignError;
use crate::spec::CampaignSpec;
use crate::summary::CampaignSummary;

/// A configured campaign, ready to run.
///
/// Both registries default to the builtins; third-party policies and
/// scenarios flow in through [`Campaign::policies`] /
/// [`Campaign::scenarios`] with zero engine changes. Output lands under
/// `results/campaigns/<name>/` unless [`Campaign::out_root`] redirects
/// it (tests use temp dirs).
pub struct Campaign {
    spec: CampaignSpec,
    out_dir: PathBuf,
    policies: Arc<PolicyRegistry>,
    scenarios: Arc<ScenarioRegistry>,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Every cell result, in grid order (scenarios × jobs × policies ×
    /// seeds, exclusions skipped).
    pub results: Vec<CellResult>,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells freshly executed.
    pub ran: usize,
    /// The Pareto analysis of the grid.
    pub summary: CampaignSummary,
    /// Where `summary.json`, `fronts.csv`, and `cells/` were written.
    pub out_dir: PathBuf,
}

impl Campaign {
    /// A campaign over `spec` with builtin registries, writing under
    /// `results/campaigns/<name>/`.
    pub fn new(spec: CampaignSpec) -> Self {
        let out_dir = Path::new("results/campaigns").join(&spec.name);
        Campaign {
            spec,
            out_dir,
            policies: Arc::new(PolicyRegistry::with_builtins()),
            scenarios: Arc::new(ScenarioRegistry::with_builtins()),
        }
    }

    /// Redirect output to `<root>/<name>/` instead of
    /// `results/campaigns/<name>/`.
    pub fn out_root(mut self, root: impl AsRef<Path>) -> Self {
        self.out_dir = root.as_ref().join(&self.spec.name);
        self
    }

    /// Resolve policies against a custom registry.
    pub fn policies(mut self, registry: Arc<PolicyRegistry>) -> Self {
        self.policies = registry;
        self
    }

    /// Resolve scenarios against a custom registry.
    pub fn scenarios(mut self, registry: Arc<ScenarioRegistry>) -> Self {
        self.scenarios = registry;
        self
    }

    /// The full grid in grid order: scenarios × jobs × policies × seeds,
    /// minus exclusions. A seed is each cell's workload seed, and each
    /// policy's seed is derived from it per policy.
    pub fn grid(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for scenario in &self.spec.scenarios {
            for &jobs in &self.spec.jobs {
                for policy in &self.spec.policies {
                    if self.spec.is_excluded(policy, jobs) {
                        continue;
                    }
                    for &seed in &self.spec.seeds {
                        cells.push(CellSpec {
                            policy: policy.clone(),
                            scenario: scenario.clone(),
                            jobs,
                            workload_seed: seed,
                            policy_seed: derived_policy_seed(policy, seed),
                        });
                    }
                }
            }
        }
        cells
    }

    /// Run the campaign.
    ///
    /// Validates the spec, runs the grid through [`run_cells`]'s runner
    /// with `<out>/cells/` as its records — refused, before any cell runs,
    /// if a workload of a cell without a record does not fit the machine —
    /// writes `summary.json` and `fronts.csv`, and returns the outcome
    /// merged in grid order.
    ///
    /// A cell that fails is not cached: every other cell still runs and
    /// is cached, and the error of the first failed cell in grid order is
    /// returned.
    pub fn run(&self, pool: &ThreadPool) -> Result<CampaignOutcome, CampaignError> {
        self.spec.validate(&self.policies, &self.scenarios)?;
        let CellRuns { records, cached } = run_grid(
            &self.policies,
            &self.scenarios,
            self.grid(),
            self.spec.cluster(),
            Some(&self.spec.machine()),
            self.spec.solver,
            self.spec.walltime_skew,
            &self.out_dir.join("cells"),
            pool,
        )?;
        let ran = records.len() - cached;
        let results: Vec<CellResult> = records
            .into_iter()
            .map(|(cell, run)| CellResult::new(cell, &run))
            .collect();

        let summary = CampaignSummary::compute(&self.spec, &results);
        std::fs::create_dir_all(&self.out_dir).map_err(|e| io_err(&self.out_dir, e))?;
        for (file, content) in [
            ("summary.json", summary.to_json()),
            ("fronts.csv", summary.fronts_csv()),
        ] {
            let path = self.out_dir.join(file);
            std::fs::write(&path, content).map_err(|e| io_err(&path, e))?;
        }
        Ok(CampaignOutcome {
            cached,
            ran,
            results,
            summary,
            out_dir: self.out_dir.clone(),
        })
    }
}

/// What [`run_cells`] returns.
#[derive(Debug, Clone)]
pub struct CellRuns {
    /// Each cell beside its run, in the order the cells were given.
    pub records: Vec<(CellSpec, PolicyRun)>,
    /// How many of them were served from their records.
    pub cached: usize,
}

/// The one runner: run `cells` on `cluster`, each cell recorded under
/// `cells_dir`.
///
/// Probes each cell's record on this thread, generates each distinct
/// `(scenario, jobs, seed)` workload of the misses once, on this thread,
/// runs every miss on `pool` against its workload (its worker runs the
/// cell, then writes its record), and returns every cell beside its run
/// in input order. Campaigns and figure grids both run through it. A cell
/// that fails — its workload included — is not recorded: every other cell
/// still runs and is recorded, and the error of the first failed cell in
/// input order is returned.
#[allow(clippy::too_many_arguments)]
pub fn run_cells(
    policies: &PolicyRegistry,
    scenarios: &ScenarioRegistry,
    cells: Vec<CellSpec>,
    cluster: ClusterConfig,
    solver: SolverConfig,
    walltime_skew: f64,
    cells_dir: &Path,
    pool: &ThreadPool,
) -> Result<CellRuns, CampaignError> {
    run_grid(
        policies,
        scenarios,
        cells,
        cluster,
        None,
        solver,
        walltime_skew,
        cells_dir,
        pool,
    )
}

/// [`run_cells`], and with `refuse_as` set, a campaign's: a miss's workload
/// that cannot be generated or cannot run on `cluster` then refuses the
/// whole grid before any cell runs, one line per such workload naming the
/// machine as `refuse_as` and the generator's error or
/// [`validate_workload`]'s first offender.
#[allow(clippy::too_many_arguments)]
fn run_grid(
    policies: &PolicyRegistry,
    scenarios: &ScenarioRegistry,
    cells: Vec<CellSpec>,
    cluster: ClusterConfig,
    refuse_as: Option<&str>,
    solver: SolverConfig,
    walltime_skew: f64,
    cells_dir: &Path,
    pool: &ThreadPool,
) -> Result<CellRuns, CampaignError> {
    let mut hits = Vec::with_capacity(cells.len());
    let mut misses = Vec::new();
    for cell in cells {
        let hash = cell.content_hash(&solver, cluster, walltime_skew);
        match read_record(cells_dir, &cell, hash) {
            Some(run) => hits.push(Some((cell, run))),
            None => {
                hits.push(None);
                misses.push((cell, hash));
            }
        }
    }
    let cached = hits.len() - misses.len();

    // Each distinct workload of the misses, generated once, in the order
    // the misses first name it.
    let mut workloads: Vec<Result<Workload, String>> = Vec::new();
    let mut refused = Vec::new();
    let mut first_seen = BTreeMap::new();
    let slots: Vec<usize> = misses
        .iter()
        .map(|(cell, _)| {
            let key = (cell.scenario.as_str(), cell.jobs, cell.workload_seed);
            *first_seen.entry(key).or_insert_with(|| {
                let ctx = scenario_context(cell, cluster, walltime_skew);
                let workload = scenarios
                    .generate(&cell.scenario, &ctx)
                    .map_err(|e| e.to_string());
                if let Some(name) = refuse_as {
                    let reason = match &workload {
                        Ok(w) => validate_workload(cluster, &w.jobs)
                            .err()
                            .map(|e| e.to_string()),
                        Err(e) => Some(e.clone()),
                    };
                    if let Some(reason) = reason {
                        let (scenario, jobs, seed) = key;
                        refused.push(format!("{scenario}/{jobs} seed={seed} on {name}: {reason}"));
                    }
                }
                workloads.push(workload);
                workloads.len() - 1
            })
        })
        .collect();
    if !refused.is_empty() {
        return Err(CampaignError::Validation(refused.join("\n")));
    }
    let tasks: Vec<_> = misses
        .into_iter()
        .zip(slots)
        .map(|((cell, hash), slot)| (cell, hash, slot))
        .collect();

    // Each task hands its cell back beside its run, so the coordinating
    // thread frees what it allocated.
    let mut fresh = pool
        .par_map(tasks, |(cell, hash, slot)| {
            let run = workloads[slot]
                .as_ref()
                .map_err(String::clone)
                .and_then(|w| {
                    let seed = cell.policy_seed;
                    run_policy(policies, &cell.policy, &w.jobs, cluster, seed, solver)
                        .map_err(|e| e.to_string())
                })
                .map_err(|reason| CampaignError::Cell {
                    label: cell.label(),
                    reason,
                })?;
            write_record(cells_dir, &cell, &run, hash)?;
            Ok((cell, run))
        })
        .into_iter();
    #[expect(
        clippy::expect_used,
        reason = "par_map returns one result per task, and there is one task per miss"
    )]
    let records = hits
        .into_iter()
        .map(|hit| hit.map_or_else(|| fresh.next().expect("one run per miss"), Ok))
        .collect::<Result<_, CampaignError>>()?;
    Ok(CellRuns { records, cached })
}

/// What one run of a policy produced — the run a cell's record keeps: the
/// §3.2 report, the simulator's counters and, for an agent, its overhead
/// (paper §3.7).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun {
    /// The registry display name the policy was built under — the label of
    /// the run even when the policy's own `name()` differs.
    pub policy: String,
    /// The eight §3.2 metrics.
    pub report: MetricsReport,
    /// Simulator counters.
    pub stats: SimStats,
    /// The agent's overhead; `None` for the heuristics and the solver.
    pub overhead: Option<OverheadSummary>,
}

/// An agent's overhead as a record keeps it, summarised once from the
/// run's [`OverheadReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadSummary {
    /// Oracle calls made.
    pub call_count: usize,
    /// Total elapsed scheduling time, seconds.
    pub total_elapsed_secs: f64,
    /// Mean, p50, p95 and max of the accepted placements' latencies,
    /// seconds; `None` for an empty sample.
    pub latency_s: Option<[f64; 4]>,
}

impl OverheadSummary {
    fn of(report: &OverheadReport) -> Self {
        let latencies = &report.placement_latencies;
        let latency_s = match (quantile(latencies, 0.5), quantile(latencies, 0.95)) {
            (Some(p50), Some(p95)) => {
                let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
                let max = latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Some([mean, p50, p95, max])
            }
            _ => None,
        };
        OverheadSummary {
            call_count: report.call_count,
            total_elapsed_secs: report.total_elapsed_secs,
            latency_s,
        }
    }
}

/// Build `policy` from `policies` by registry name, run it over `jobs` on
/// `cluster`, and score the schedule — what [`run_cells`] does with each
/// cell once it has the cell's workload.
///
/// `policy_seed` feeds the stochastic policies (LLM sampling noise, the
/// random policy, solver restarts); deterministic ones ignore it. Fails on
/// an unknown name ([`rsched_registry::RegistryError`]) or a run the
/// simulator refuses or cannot finish ([`rsched_sim::SimError`]).
pub fn run_policy(
    policies: &PolicyRegistry,
    policy: &str,
    jobs: &[JobSpec],
    cluster: ClusterConfig,
    policy_seed: u64,
    solver: SolverConfig,
) -> Result<PolicyRun, Box<dyn Error + Send + Sync>> {
    let ctx = PolicyContext::new(jobs, cluster)
        .with_seed(policy_seed)
        .with_solver(solver);
    let mut built = policies.build(policy, &ctx)?;
    let outcome = Simulation::new(cluster).jobs(jobs).run(built.as_mut())?;
    #[expect(
        clippy::expect_used,
        reason = "`build` resolved the same name on the line above"
    )]
    let display = policies
        .display_name(policy)
        .expect("build succeeded, so the name resolves");
    Ok(PolicyRun {
        policy: display.to_string(),
        report: MetricsReport::compute(&outcome.records, cluster),
        stats: outcome.stats,
        overhead: built.overhead_report().as_ref().map(OverheadSummary::of),
    })
}

/// The scenario context a cell's workload is generated under.
fn scenario_context(
    cell: &CellSpec,
    cluster: ClusterConfig,
    walltime_skew: f64,
) -> ScenarioContext {
    ScenarioContext::new(cell.jobs)
        .with_mode(ArrivalMode::Dynamic)
        .with_seed(cell.workload_seed)
        .with_cluster(cluster)
        .with_walltime_skew(walltime_skew)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "engine-test"
policies = ["FCFS", "SJF"]
scenarios = ["heterogeneous_mix"]
jobs = [8, 10]
seeds = [1, 2]
exclude = ["SJF/10"]
"#,
        )
        .expect("parses")
    }

    #[test]
    fn grid_order_is_scenario_jobs_policy_seed_minus_exclusions() {
        let campaign = Campaign::new(small_spec());
        let labels: Vec<String> = campaign.grid().iter().map(CellSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "FCFS × heterogeneous_mix/8 seed=1",
                "FCFS × heterogeneous_mix/8 seed=2",
                "SJF × heterogeneous_mix/8 seed=1",
                "SJF × heterogeneous_mix/8 seed=2",
                "FCFS × heterogeneous_mix/10 seed=1",
                "FCFS × heterogeneous_mix/10 seed=2",
            ]
        );
    }

    #[test]
    fn runs_merge_in_grid_order_and_cache_warms() {
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(small_spec()).out_root(&root);
        let pool = ThreadPool::new(2);

        let outcome = campaign.run(&pool).expect("runs");
        assert_eq!(outcome.results.len(), 6);
        assert_eq!((outcome.cached, outcome.ran), (0, 6));
        let labels: Vec<String> = outcome.results.iter().map(|r| r.cell.label()).collect();
        assert_eq!(
            labels,
            campaign
                .grid()
                .iter()
                .map(CellSpec::label)
                .collect::<Vec<_>>()
        );
        assert!(outcome.out_dir.join("summary.json").is_file());
        assert!(outcome.out_dir.join("fronts.csv").is_file());

        let rerun = campaign.run(&pool).expect("reruns");
        assert_eq!((rerun.cached, rerun.ran), (6, 0));
        assert_eq!(rerun.results, outcome.results, "cache is transparent");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn validation_failure_runs_nothing() {
        let mut spec = small_spec();
        spec.policies.push("Slurm".to_string());
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_invalid_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(spec).out_root(&root);
        let pool = ThreadPool::new(1);
        let err = campaign.run(&pool).expect_err("invalid");
        assert!(err.to_string().contains("Slurm"));
        assert!(!root.exists(), "no artifacts for invalid specs");
    }

    #[test]
    fn the_first_failed_cell_is_the_error_and_only_the_others_are_cached() {
        use rsched_sim::{Action, SchedulingPolicy, SystemView};
        // A policy that never starts a job leaves the simulator stuck.
        struct Idle;
        impl SchedulingPolicy for Idle {
            fn name(&self) -> &str {
                "Idle"
            }
            fn decide(&mut self, _: &SystemView<'_>) -> Action {
                Action::Delay
            }
        }
        let mut policies = PolicyRegistry::with_builtins();
        policies
            .register("idle", |_| Box::new(Idle))
            .expect("fresh name");
        let spec = CampaignSpec::parse(
            r#"
name = "engine-failed-cell"
policies = ["FCFS", "idle"]
scenarios = ["heterogeneous_mix"]
jobs = [8]
seeds = [1, 2]
"#,
        )
        .expect("parses");
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_failed_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(spec)
            .out_root(&root)
            .policies(Arc::new(policies));
        let err = campaign.run(&ThreadPool::new(2)).expect_err("idle fails");
        match err {
            CampaignError::Cell { label, reason } => {
                assert_eq!(
                    label, "idle × heterogeneous_mix/8 seed=1",
                    "first in grid order"
                );
                assert!(reason.contains("stuck"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        let cached: Vec<String> = std::fs::read_dir(root.join("engine-failed-cell/cells"))
            .expect("the cells that ran are cached")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(cached.len(), 2, "{cached:?}");
        assert!(cached.iter().all(|f| f.starts_with("FCFS__")));
        assert!(!root.join("engine-failed-cell/summary.json").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_workload_too_big_for_the_machine_refuses_the_spec_before_anything_runs() {
        // No `mixed_256` node holds a Polaris job's 512 GB; a
        // 500 GB machine holds none at all.
        for (cluster, machine) in [
            ("preset = \"mixed_256\"", "preset mixed_256"),
            ("nodes = 256\nmemory_gb = 500", "256 nodes × 500 GB"),
        ] {
            let spec = CampaignSpec::parse(&format!(
                r#"
name = "engine-refused"
policies = ["FCFS", "SJF"]
scenarios = ["polaris", "heterogeneous_mix"]
jobs = [8]
seeds = [1, 2]

[cluster]
{cluster}
"#
            ))
            .expect("parses");
            let root = std::env::temp_dir().join(format!(
                "rsched_campaign_engine_refused_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let err = Campaign::new(spec)
                .out_root(&root)
                .run(&ThreadPool::new(2))
                .expect_err("refused");
            let CampaignError::Validation(message) = &err else {
                panic!("{err:?}");
            };
            let lines: Vec<&str> = message.lines().collect();
            assert_eq!(
                lines.len(),
                2,
                "one line per workload, not per cell: {message}"
            );
            for (line, seed) in lines.iter().zip(["seed=1", "seed=2"]) {
                assert!(
                    line.starts_with(&format!("polaris/8 {seed} on {machine}: job ")),
                    "{line}"
                );
                assert!(line.ends_with("exceeding machine capacity"), "{line}");
            }
            assert!(!root.exists(), "nothing ran, nothing was written");
        }
    }

    /// A warm run generates no workload, and a cold one each distinct
    /// `(scenario, jobs, seed)` once, however many cells share it.
    #[test]
    fn each_missing_workload_is_generated_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let generated = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&generated);
        let mut scenarios = ScenarioRegistry::with_builtins();
        scenarios
            .register("counted", move |ctx| {
                counter.fetch_add(1, Ordering::Relaxed);
                let mut workload = ScenarioRegistry::with_builtins()
                    .generate("heterogeneous_mix", ctx)
                    .expect("builtin");
                workload.scenario = "counted".to_string();
                workload
            })
            .expect("fresh name");
        let mut spec = small_spec();
        spec.name = "engine-generated-once".to_string();
        spec.scenarios = vec!["counted".to_string()];
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_once_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(spec)
            .out_root(&root)
            .scenarios(Arc::new(scenarios));
        let pool = ThreadPool::new(2);

        let cold = campaign.run(&pool).expect("runs");
        assert_eq!((cold.cached, cold.ran), (0, 6));
        // Jobs 8 and 10 × seeds 1 and 2.
        assert_eq!(generated.swap(0, Ordering::Relaxed), 4);

        let warm = campaign.run(&pool).expect("reruns");
        assert_eq!((warm.cached, warm.ran), (6, 0));
        assert_eq!(generated.load(Ordering::Relaxed), 0);
        assert_eq!(warm.results, cold.results);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_overhead_summary_is_mean_p50_p95_and_max() {
        let summary = |placement_latencies: Vec<f64>| {
            OverheadSummary::of(&OverheadReport {
                total_elapsed_secs: 1500.0,
                call_count: 61,
                placement_latencies,
            })
        };
        let full = summary(vec![30.0, 10.0, 20.0]);
        assert_eq!(full.latency_s, Some([20.0, 20.0, 29.0, 30.0]));
        assert_eq!((full.call_count, full.total_elapsed_secs), (61, 1500.0));
        assert_eq!(summary(vec![]).latency_s, None);
    }

    #[test]
    fn a_cell_runs_the_same_on_every_run() {
        let cell = CellSpec {
            policy: "Random".to_string(),
            scenario: "long_tail".to_string(),
            jobs: 12,
            workload_seed: 5,
            policy_seed: 9,
        };
        let run = |dir: &str| {
            let dir =
                std::env::temp_dir().join(format!("rsched_campaign_{dir}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let runs = run_cells(
                &PolicyRegistry::with_builtins(),
                &ScenarioRegistry::with_builtins(),
                vec![cell.clone()],
                ClusterConfig::paper_default(),
                SolverConfig::default(),
                1.0,
                &dir,
                &ThreadPool::new(1),
            )
            .expect("runs");
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(runs.cached, 0, "a fresh directory");
            runs.records
        };
        let (a, b) = (run("same_a"), run("same_b"));
        assert_eq!(a, b);
        assert_eq!(a[0].0, cell, "the cell comes back as it went in");
        assert_eq!(a[0].1.stats.placements, 12);
    }

    #[test]
    fn mixed_class_skewed_campaign_runs_the_backfill_family() {
        // The hetero_grid shape in miniature: the four backfill policies
        // on the classed machine with over-requested walltimes, including
        // a scenario whose wide classless jobs must span node classes.
        let spec = CampaignSpec::parse(
            r#"
name = "mixed-smoke"
policies = ["EASY", "EASY-SJBF", "Conservative", "Conservative-SJBF"]
scenarios = ["heterogeneous_mix", "gpu_skewed_hetmix"]
jobs = [16]
seeds = [2025]
walltime_skew = 1.5

[cluster]
preset = "mixed_256"
"#,
        )
        .expect("parses");
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_mixed_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(spec).out_root(&root);
        let pool = ThreadPool::new(2);
        let outcome = campaign.run(&pool).expect("runs");
        assert_eq!(outcome.results.len(), 8);
        assert!(outcome
            .results
            .iter()
            .all(|r| r.placements == 16 && r.metrics[0] > 0.0));
        let rerun = campaign.run(&pool).expect("reruns");
        assert_eq!((rerun.cached, rerun.ran), (8, 0), "classed cells cache");
        assert_eq!(rerun.results, outcome.results);
        let _ = std::fs::remove_dir_all(&root);
    }
}
