//! The campaign engine: expand the spec into its grid, serve cells from
//! the content-addressed cache, execute the misses on the thread
//! pool, and merge **in grid order regardless of completion order** — so
//! a campaign's output is a pure function of its spec, not of thread
//! scheduling.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_cpsolver::SolverConfig;
use rsched_metrics::MetricsReport;
use rsched_parallel::ThreadPool;
use rsched_registry::{PolicyContext, PolicyRegistry};
use rsched_sim::{OverheadReport, SimStats, Simulation};
use rsched_workloads::{ArrivalMode, ScenarioContext, ScenarioRegistry};

use crate::cache::{read_cell, write_cell};
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
    /// Validates the spec, probes the cache on this thread, runs every
    /// miss on `pool` (each worker runs its cell and writes the cell's
    /// cache file), writes `summary.json` and `fronts.csv`, and returns
    /// the outcome merged in grid order.
    ///
    /// A cell that fails is not cached: every other cell still runs and
    /// is cached, and the error of the first failed cell in grid order is
    /// returned.
    pub fn run(&self, pool: &ThreadPool) -> Result<CampaignOutcome, CampaignError> {
        self.spec.validate(&self.policies, &self.scenarios)?;
        let cells_dir = self.out_dir.join("cells");
        let solver = self.spec.solver;
        let cluster = self.spec.cluster();
        let skew = self.spec.walltime_skew;

        let mut hits: Vec<Option<CellResult>> = Vec::new();
        let mut misses = Vec::new();
        for cell in self.grid() {
            let hash = cell.content_hash(&solver, cluster, skew);
            let hit = read_cell(&cells_dir, &cell, hash);
            if hit.is_none() {
                // Each task carries its machine and solver budget, as
                // `figures::run_cells`'s do, so the task box the worker
                // frees stays out of the size classes its runs grow into.
                misses.push((cell, hash, cluster, solver));
            }
            hits.push(hit);
        }
        let ran = misses.len();
        let cached = hits.len() - ran;

        let policies = Arc::clone(&self.policies);
        let scenarios = Arc::clone(&self.scenarios);
        let mut fresh = pool
            .par_map(misses, move |(cell, hash, cluster, solver)| {
                let (cell, run) = run_cell(&policies, &scenarios, cell, solver, cluster, skew)?;
                let result = CellResult::new(
                    cell,
                    &run.report,
                    run.stats.placements as u64,
                    run.stats.epochs as u64,
                );
                write_cell(&cells_dir, &result, hash)?;
                Ok(result)
            })
            .into_iter();
        let results = hits
            .into_iter()
            .map(|hit| match hit {
                Some(result) => Ok(result),
                None => fresh.next().expect("one run per miss"),
            })
            .collect::<Result<Vec<CellResult>, CampaignError>>()?;

        let summary = CampaignSummary::compute(&self.spec, &results);
        std::fs::create_dir_all(&self.out_dir).map_err(|e| CampaignError::Io {
            path: self.out_dir.display().to_string(),
            message: e.to_string(),
        })?;
        for (file, content) in [
            ("summary.json", summary.to_json()),
            ("fronts.csv", summary.fronts_csv()),
        ] {
            let path = self.out_dir.join(file);
            std::fs::write(&path, content).map_err(|e| CampaignError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
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

/// What one run of a policy produced: the §3.2 report, the simulator's
/// counters and, for an agent, its overhead (paper §3.7).
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// The registry display name the policy was built under — the label of
    /// the run even when the policy's own `name()` differs.
    pub policy: String,
    /// The eight §3.2 metrics.
    pub report: MetricsReport,
    /// Simulator counters.
    pub stats: SimStats,
    /// The agent's overhead; `None` for the heuristics and the solver.
    pub overhead: Option<OverheadReport>,
}

/// Build `policy` from `policies` by registry name, run it over `jobs` on
/// `cluster`, and score the schedule — what [`run_cell`] does once it has
/// the cell's workload.
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
    Ok(PolicyRun {
        policy: policies
            .display_name(policy)
            .expect("build succeeded, so the name resolves")
            .to_string(),
        report: MetricsReport::compute(&outcome.records, cluster),
        stats: outcome.stats,
        overhead: built.overhead_report(),
    })
}

/// Execute one cell — the one way a campaign cell or a figure cell is
/// run: generate the workload by scenario name, and run the policy on it
/// with [`run_policy`].
///
/// The cell is taken by value and handed back beside its run, so a
/// worker neither copies nor frees what the coordinating thread allocated.
/// A scenario or policy that does not resolve, or a run that fails, is a
/// [`CampaignError::Cell`] naming the cell.
pub fn run_cell(
    policies: &PolicyRegistry,
    scenarios: &ScenarioRegistry,
    cell: CellSpec,
    solver: SolverConfig,
    cluster: ClusterConfig,
    walltime_skew: f64,
) -> Result<(CellSpec, PolicyRun), CampaignError> {
    let ctx = ScenarioContext::new(cell.jobs)
        .with_mode(ArrivalMode::Dynamic)
        .with_seed(cell.workload_seed)
        .with_cluster(cluster)
        .with_walltime_skew(walltime_skew);
    let run = scenarios
        .generate(&cell.scenario, &ctx)
        .map_err(Into::into)
        .and_then(|workload| {
            run_policy(
                policies,
                &cell.policy,
                &workload.jobs,
                cluster,
                cell.policy_seed,
                solver,
            )
        });
    match run {
        Ok(run) => Ok((cell, run)),
        Err(e) => Err(CampaignError::Cell {
            label: cell.label(),
            reason: e.to_string(),
        }),
    }
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
        // No `mixed_256` node holds a Polaris job's 512 GB.
        let spec = CampaignSpec::parse(
            r#"
name = "engine-failed-cell"
policies = ["FCFS"]
scenarios = ["polaris", "heterogeneous_mix"]
jobs = [8]
seeds = [1, 2]

[cluster]
preset = "mixed_256"
"#,
        )
        .expect("parses");
        let root = std::env::temp_dir().join(format!(
            "rsched_campaign_engine_failed_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let campaign = Campaign::new(spec).out_root(&root);
        let err = campaign
            .run(&ThreadPool::new(2))
            .expect_err("polaris fails");
        match err {
            CampaignError::Cell { label, reason } => {
                assert_eq!(label, "FCFS × polaris/8 seed=1", "first in grid order");
                assert!(reason.contains("exceeding machine capacity"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        let mut cached: Vec<String> = std::fs::read_dir(root.join("engine-failed-cell/cells"))
            .expect("the cells that ran are cached")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        cached.sort();
        assert_eq!(cached.len(), 2, "{cached:?}");
        assert!(cached.iter().all(|f| f.contains("heterogeneous_mix")));
        assert!(!root.join("engine-failed-cell/summary.json").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let policies = PolicyRegistry::with_builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        let cell = CellSpec {
            policy: "Random".to_string(),
            scenario: "long_tail".to_string(),
            jobs: 12,
            workload_seed: 5,
            policy_seed: 9,
        };
        let solver = SolverConfig::default();
        let cluster = ClusterConfig::paper_default();
        let (cell, a) = run_cell(&policies, &scenarios, cell, solver, cluster, 1.0).expect("runs");
        let (back, b) =
            run_cell(&policies, &scenarios, cell.clone(), solver, cluster, 1.0).expect("runs");
        assert_eq!(back, cell, "the cell comes back as it went in");
        assert_eq!((a.report, a.stats), (b.report, b.stats));
        assert_eq!(a.stats.placements, 12);
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
