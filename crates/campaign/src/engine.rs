//! The campaign engine: expand the spec into its grid, serve cells from
//! the content-addressed cache, execute the misses on the thread
//! pool, and merge **in grid order regardless of completion order** — so
//! a campaign's output is a pure function of its spec, not of thread
//! scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;

use rsched_metrics::MetricsReport;
use rsched_parallel::ThreadPool;
use rsched_registry::{PolicyContext, PolicyRegistry};
use rsched_sim::Simulation;
use rsched_workloads::{ArrivalMode, ScenarioContext, ScenarioRegistry};

use crate::cache::{read_cell, write_cell};
use crate::cell::{CellResult, CellSpec};
use crate::error::CampaignError;
use crate::observer::{CampaignObserver, NullObserver};
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

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The output directory (`<root>/<name>`).
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// The full grid in grid order: scenarios × jobs × policies × seeds,
    /// minus exclusions.
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
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Run the campaign without progress reporting.
    pub fn run(&self, pool: &ThreadPool) -> Result<CampaignOutcome, CampaignError> {
        self.run_observed(pool, &mut NullObserver)
    }

    /// Run the campaign, streaming progress to `observer`.
    ///
    /// Validates the spec, probes the cache, executes every miss on
    /// `pool`, persists fresh cells, writes `summary.json` and
    /// `fronts.csv`, and returns the merged outcome. A policy or
    /// simulation panic in a worker is re-raised here, mirroring
    /// [`ThreadPool::par_map`].
    pub fn run_observed(
        &self,
        pool: &ThreadPool,
        observer: &mut dyn CampaignObserver,
    ) -> Result<CampaignOutcome, CampaignError> {
        self.spec.validate(&self.policies, &self.scenarios)?;
        let grid = self.grid();
        let cells_dir = self.out_dir.join("cells");
        let solver = self.spec.solver;
        let cluster = self.spec.cluster();
        let skew = self.spec.walltime_skew;

        // Probe the cache in grid order.
        let mut slots: Vec<Option<CellResult>> = Vec::with_capacity(grid.len());
        let mut misses: Vec<(usize, CellSpec, u64)> = Vec::new();
        for (index, cell) in grid.iter().enumerate() {
            let hash = cell.content_hash(&solver, cluster, skew);
            match read_cell(&cells_dir, cell, hash) {
                Some(result) => slots.push(Some(result)),
                None => {
                    slots.push(None);
                    misses.push((index, cell.clone(), hash));
                }
            }
        }
        let total = grid.len();
        let cached = total - misses.len();
        observer.on_start(total, cached);
        for slot in slots.iter().flatten() {
            observer.on_cell_cached(&slot.cell, slot);
        }

        // Execute the misses concurrently; settle results as they stream
        // back. The channel carries the grid index so merge order is
        // independent of completion order.
        type TaskOutcome = (usize, u64, std::thread::Result<CellResult>);
        let (tx, rx) = mpsc::channel::<TaskOutcome>();
        for (index, cell, hash) in misses {
            let tx = tx.clone();
            let policies = Arc::clone(&self.policies);
            let scenarios = Arc::clone(&self.scenarios);
            pool.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_cell(&policies, &scenarios, cell, solver, cluster, skew)
                }));
                // The receiver bails on the first panic; later sends then
                // fail, which is expected and ignorable.
                let _ = tx.send((index, hash, result));
            });
        }
        drop(tx);
        let mut done = cached;
        for (index, hash, result) in rx {
            match result {
                Ok(result) => {
                    write_cell(&cells_dir, &result, hash)?;
                    done += 1;
                    observer.on_cell_complete(&result.cell, &result, done, total);
                    slots[index] = Some(result);
                }
                Err(payload) => resume_unwind(payload),
            }
        }
        let results: Vec<CellResult> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} never delivered a result")))
            .collect();

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
        observer.on_complete(&results);
        Ok(CampaignOutcome {
            cached,
            ran: total - cached,
            results,
            summary,
            out_dir: self.out_dir.clone(),
        })
    }
}

/// Execute one cell: generate the workload by scenario name, build the
/// policy by registry name, simulate, and canonicalize the metrics.
///
/// The cell is taken by value and handed back inside the result, so a
/// worker neither copies nor frees what the coordinating thread allocated.
///
/// # Panics
/// On simulation failure — spec validation already proved the names
/// resolve, so a policy that cannot finish a workload is a harness bug,
/// exactly as in `rsched_experiments::runner`.
pub fn run_cell(
    policies: &PolicyRegistry,
    scenarios: &ScenarioRegistry,
    cell: CellSpec,
    solver: rsched_cpsolver::SolverConfig,
    cluster: rsched_cluster::ClusterConfig,
    walltime_skew: f64,
) -> CellResult {
    let ctx = ScenarioContext::new(cell.jobs)
        .with_mode(ArrivalMode::Dynamic)
        .with_seed(cell.workload_seed())
        .with_cluster(cluster)
        .with_walltime_skew(walltime_skew);
    let workload = scenarios
        .generate(&cell.scenario, &ctx)
        .unwrap_or_else(|e| panic!("scenario `{}`: {e}", cell.scenario));
    let pctx = PolicyContext::new(&workload.jobs, cluster)
        .with_seed(cell.policy_seed())
        .with_solver(solver);
    let mut policy = policies
        .build(&cell.policy, &pctx)
        .unwrap_or_else(|e| panic!("policy `{}`: {e}", cell.policy));
    let outcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .run(policy.as_mut())
        .unwrap_or_else(|e| panic!("cell {} failed: {e}", cell.label()));
    let report = MetricsReport::compute(&outcome.records, cluster);
    CellResult::new(
        cell,
        &report,
        outcome.stats.placements as u64,
        outcome.stats.epochs as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingCampaignObserver;

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

        let mut cold = CountingCampaignObserver::new();
        let outcome = campaign.run_observed(&pool, &mut cold).expect("runs");
        assert_eq!(outcome.results.len(), 6);
        assert_eq!((outcome.cached, outcome.ran), (0, 6));
        assert_eq!((cold.cached, cold.ran, cold.completions), (0, 6, 1));
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

        let mut warm = CountingCampaignObserver::new();
        let rerun = campaign.run_observed(&pool, &mut warm).expect("reruns");
        assert_eq!((rerun.cached, rerun.ran), (6, 0));
        assert_eq!((warm.cached, warm.ran), (6, 0));
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
        let mut obs = CountingCampaignObserver::new();
        let err = campaign.run_observed(&pool, &mut obs).expect_err("invalid");
        assert!(err.to_string().contains("Slurm"));
        assert_eq!(obs.starts, 0, "no callback before validation");
        assert!(!root.exists(), "no artifacts for invalid specs");
    }

    #[test]
    fn run_cell_is_deterministic() {
        let policies = PolicyRegistry::with_builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        let cell = CellSpec {
            policy: "Random".to_string(),
            scenario: "long_tail".to_string(),
            jobs: 12,
            seed: 5,
        };
        let solver = rsched_cpsolver::SolverConfig::default();
        let cluster = rsched_cluster::ClusterConfig::paper_default();
        let a = run_cell(&policies, &scenarios, cell.clone(), solver, cluster, 1.0);
        let b = run_cell(&policies, &scenarios, cell, solver, cluster, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.placements, 12);
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
