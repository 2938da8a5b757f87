//! # rsched-registry
//!
//! An **open, string-keyed registry of scheduling policies** — the seam
//! through which every scheduler (builtin baselines, the two LLM agent
//! personas, and third-party policies registered from outside the
//! workspace) plugs into the same validated decision loop.
//!
//! The paper's evaluation rests on driving many heterogeneous policies
//! through one simulator; the registry makes that set *extensible*: a new
//! backend or ablation arm is one [`PolicyRegistry::register`] call, no
//! enum variant or `match` arm required.
//!
//! ```
//! use rsched_cluster::ClusterConfig;
//! use rsched_registry::{names, PolicyContext, PolicyRegistry};
//! use rsched_sim::Simulation;
//! use rsched_workloads::{scenario_builtins, ScenarioContext};
//!
//! let workload = scenario_builtins()
//!     .generate("heterogeneous_mix", &ScenarioContext::new(10).with_seed(42))
//!     .expect("builtin scenario");
//! let cluster = ClusterConfig::paper_default();
//! let registry = PolicyRegistry::with_builtins();
//!
//! let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(42);
//! let mut policy = registry.build(names::CLAUDE37, &ctx).expect("builtin");
//! let outcome = Simulation::new(cluster)
//!     .jobs(&workload.jobs)
//!     .run(policy.as_mut())
//!     .expect("completes");
//! assert_eq!(outcome.records.len(), 10);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_core::LlmSchedulingPolicy;
use rsched_cpsolver::SolverConfig;
use rsched_schedulers::{
    ConservativeBackfill, EasyBackfill, Fcfs, OrToolsPolicy, RandomPolicy, Sjf,
};
use rsched_sim::SchedulingPolicy;

/// Canonical registry names of the builtin policies, as they appear in the
/// paper's tables. Lookup is case-insensitive, so `"fcfs"` also resolves.
pub mod names {
    /// First-come-first-served (the normalization baseline).
    pub const FCFS: &str = "FCFS";
    /// Shortest job first.
    pub const SJF: &str = "SJF";
    /// The optimization baseline (OR-Tools substitute).
    pub const OR_TOOLS: &str = "OR-Tools";
    /// Simulated Claude 3.7 ReAct agent.
    pub const CLAUDE37: &str = "Claude-3.7";
    /// Simulated O4-Mini ReAct agent.
    pub const O4_MINI: &str = "O4-Mini";
    /// FCFS + EASY backfilling (ablation).
    pub const EASY: &str = "EASY";
    /// Random eligible pick (ablation floor).
    pub const RANDOM: &str = "Random";
    /// EASY with shortest-walltime-first backfill candidate ordering.
    pub const EASY_SJBF: &str = "EASY-SJBF";
    /// FCFS + conservative backfilling (a reservation per waiting job).
    pub const CONSERVATIVE: &str = "Conservative";
    /// Conservative backfilling, shortest startable candidate first.
    pub(crate) const CONSERVATIVE_SJBF: &str = "Conservative-SJBF";

    /// The paper's five compared schedulers, in figure order.
    pub const PAPER_SET: [&str; 5] = [FCFS, SJF, OR_TOOLS, CLAUDE37, O4_MINI];
    /// The two LLM agents (overhead figures).
    pub const LLM_PAIR: [&str; 2] = [CLAUDE37, O4_MINI];
    /// Every builtin policy, paper set first.
    pub const ALL_BUILTIN: [&str; 10] = [
        FCFS,
        SJF,
        OR_TOOLS,
        CLAUDE37,
        O4_MINI,
        EASY,
        RANDOM,
        EASY_SJBF,
        CONSERVATIVE,
        CONSERVATIVE_SJBF,
    ];
}

/// Everything a policy factory may need to instantiate a policy for one
/// run: the workload (offline planners like OR-Tools precompute from it),
/// the machine, the per-cell stochastic seed, and the solver budget.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The workload the policy will schedule.
    pub jobs: &'a [JobSpec],
    /// The machine configuration.
    pub cluster: ClusterConfig,
    /// Seed for stochastic policies (LLM sampling noise, random picks,
    /// solver restarts); deterministic policies ignore it.
    pub seed: u64,
    /// Budget for solver-backed policies. Factories that take a seed
    /// should prefer [`PolicyContext::seed`] over `solver.seed`.
    pub solver: SolverConfig,
}

impl<'a> PolicyContext<'a> {
    /// A context with seed 0 and the default solver budget.
    pub fn new(jobs: &'a [JobSpec], cluster: ClusterConfig) -> Self {
        PolicyContext {
            jobs,
            cluster,
            seed: 0,
            solver: SolverConfig::default(),
        }
    }

    /// Set the stochastic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the solver budget.
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }
}

/// A policy constructor: called once per run with the run's context.
pub(crate) type PolicyFactory =
    Box<dyn Fn(&PolicyContext<'_>) -> Box<dyn SchedulingPolicy> + Send + Sync>;

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `register` was called with a name (case-insensitively) already
    /// taken.
    Duplicate(String),
    /// `build` was called with a name no factory is registered under.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, sorted.
        known: Vec<String>,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => {
                write!(f, "policy `{name}` is already registered")
            }
            RegistryError::Unknown { name, known } => write!(
                f,
                "no policy registered under `{name}` (known: {})",
                known.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

struct Entry {
    display: String,
    factory: PolicyFactory,
}

/// A string-keyed, case-insensitive map from policy names to factories.
///
/// [`PolicyRegistry::with_builtins`] ships the ten builtin policies the
/// experiments compare; third parties extend the set with
/// [`PolicyRegistry::register`] — no workspace code changes needed.
#[derive(Default)]
pub struct PolicyRegistry {
    entries: BTreeMap<String, Entry>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PolicyRegistry::default()
    }

    /// A registry pre-populated with the ten builtin policies (see
    /// [`names`]).
    pub fn with_builtins() -> Self {
        let mut registry = PolicyRegistry::new();
        registry.register_builtins();
        registry
    }

    fn register_builtins(&mut self) {
        let ok = [
            self.register(names::FCFS, |_| Box::new(Fcfs::default())),
            self.register(names::SJF, |_| Box::new(Sjf::default())),
            self.register(names::EASY, |_| Box::new(EasyBackfill::new())),
            self.register(names::EASY_SJBF, |_| Box::new(EasyBackfill::sjbf())),
            self.register(names::CONSERVATIVE, |_| {
                Box::new(ConservativeBackfill::new())
            }),
            self.register(names::CONSERVATIVE_SJBF, |_| {
                Box::new(ConservativeBackfill::sjbf())
            }),
            self.register(names::RANDOM, |ctx| Box::new(RandomPolicy::new(ctx.seed))),
            self.register(names::OR_TOOLS, |ctx| {
                let config = SolverConfig {
                    seed: ctx.seed,
                    ..ctx.solver
                };
                Box::new(OrToolsPolicy::with_config(ctx.jobs, config))
            }),
            self.register(names::CLAUDE37, |ctx| {
                Box::new(LlmSchedulingPolicy::claude37(ctx.seed))
            }),
            self.register(names::O4_MINI, |ctx| {
                Box::new(LlmSchedulingPolicy::o4mini(ctx.seed))
            }),
        ];
        debug_assert!(ok.iter().all(|r| r.is_ok()), "builtin names collide");
    }

    /// Register `factory` under `name`. Names are matched
    /// case-insensitively but reported in the case given here. Fails if the
    /// name is already taken (registries are append-only; shadowing a
    /// policy silently would corrupt experiment provenance).
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F) -> Result<(), RegistryError>
    where
        F: Fn(&PolicyContext<'_>) -> Box<dyn SchedulingPolicy> + Send + Sync + 'static,
    {
        let display = name.into();
        let key = display.to_lowercase();
        if self.entries.contains_key(&key) {
            return Err(RegistryError::Duplicate(display));
        }
        self.entries.insert(
            key,
            Entry {
                display,
                factory: Box::new(factory),
            },
        );
        Ok(())
    }

    /// Instantiate the policy registered under `name` (case-insensitive)
    /// for the given run context.
    pub fn build(
        &self,
        name: &str,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn SchedulingPolicy>, RegistryError> {
        match self.entries.get(&name.to_lowercase()) {
            Some(entry) => Ok((entry.factory)(ctx)),
            None => Err(RegistryError::Unknown {
                name: name.to_string(),
                known: self.names().into_iter().map(str::to_string).collect(),
            }),
        }
    }

    /// `true` if a factory is registered under `name` (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(&name.to_lowercase())
    }

    /// The canonical display name `name` resolves to (the case it was
    /// registered with), if registered.
    pub fn display_name(&self, name: &str) -> Option<&str> {
        self.entries
            .get(&name.to_lowercase())
            .map(|e| e.display.as_str())
    }

    /// Display names of every registered policy, sorted by key.
    pub fn names(&self) -> Vec<&str> {
        self.entries.values().map(|e| e.display.as_str()).collect()
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The shared builtin registry — built once, reused by every harness call
/// (factories are `Send + Sync`, so this is safe to consult from the
/// experiment thread pool).
pub fn builtins() -> &'static PolicyRegistry {
    static BUILTINS: OnceLock<PolicyRegistry> = OnceLock::new();
    BUILTINS.get_or_init(PolicyRegistry::with_builtins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_sim::{run_simulation, Action, SimOptions, SystemView};
    use rsched_workloads::{scenario_builtins, ScenarioContext};

    fn ctx_jobs() -> Vec<JobSpec> {
        scenario_builtins()
            .generate("heterogeneous_mix", &ScenarioContext::new(8).with_seed(5))
            .expect("builtin scenario")
            .jobs
    }

    #[test]
    fn builtins_cover_all_builtin_names() {
        let registry = PolicyRegistry::with_builtins();
        assert_eq!(registry.len(), names::ALL_BUILTIN.len());
        for name in names::ALL_BUILTIN {
            assert!(registry.contains(name), "{name}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_preserves_display_name() {
        let registry = PolicyRegistry::with_builtins();
        assert!(registry.contains("fcfs"));
        assert!(registry.contains("or-tools"));
        let jobs = ctx_jobs();
        let ctx = PolicyContext::new(&jobs, ClusterConfig::paper_default());
        let policy = registry.build("CLAUDE-3.7", &ctx).expect("resolves");
        assert_eq!(policy.name(), "Claude-3.7");
        assert!(registry.names().contains(&"Claude-3.7"));
    }

    #[test]
    fn unknown_name_lists_known_policies() {
        let registry = PolicyRegistry::with_builtins();
        let jobs = ctx_jobs();
        let ctx = PolicyContext::new(&jobs, ClusterConfig::paper_default());
        let err = match registry.build("slurm", &ctx) {
            Ok(_) => panic!("`slurm` should be unknown"),
            Err(e) => e,
        };
        match &err {
            RegistryError::Unknown { name, known } => {
                assert_eq!(name, "slurm");
                assert_eq!(known.len(), 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("FCFS"));
    }

    #[test]
    fn duplicate_registration_is_rejected_case_insensitively() {
        let mut registry = PolicyRegistry::with_builtins();
        let err = registry
            .register("fcfs", |_| Box::new(Fcfs::default()))
            .unwrap_err();
        assert_eq!(err, RegistryError::Duplicate("fcfs".to_string()));
        // A genuinely new name is accepted.
        registry
            .register("my-policy", |_| Box::new(Fcfs::default()))
            .expect("fresh name");
        assert_eq!(registry.len(), 11);
    }

    #[test]
    fn every_builtin_builds_and_schedules() {
        let registry = PolicyRegistry::with_builtins();
        let jobs = ctx_jobs();
        let cluster = ClusterConfig::paper_default();
        let ctx = PolicyContext::new(&jobs, cluster).with_seed(7);
        for name in names::ALL_BUILTIN {
            let mut policy = registry.build(name, &ctx).expect("builtin");
            let outcome = run_simulation(cluster, &jobs, policy.as_mut(), &SimOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(outcome.records.len(), jobs.len(), "{name}");
            // Only the LLM agents expose an overhead ledger.
            let is_llm = names::LLM_PAIR.contains(&name);
            assert_eq!(policy.overhead_report().is_some(), is_llm, "{name}");
        }
    }

    #[test]
    fn third_party_registration_without_workspace_changes() {
        struct WidestFirst;
        impl SchedulingPolicy for WidestFirst {
            fn name(&self) -> &str {
                "widest-first"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                if view.all_jobs_started() {
                    return Action::Stop;
                }
                match view.eligible_now().max_by_key(|j| j.nodes) {
                    Some(j) => Action::StartJob(j.id),
                    None => Action::Delay,
                }
            }
        }
        let mut registry = PolicyRegistry::with_builtins();
        registry
            .register("widest-first", |_| Box::new(WidestFirst))
            .expect("fresh name");
        let jobs = ctx_jobs();
        let cluster = ClusterConfig::paper_default();
        let ctx = PolicyContext::new(&jobs, cluster);
        let mut policy = registry.build("widest-first", &ctx).expect("registered");
        let outcome = run_simulation(cluster, &jobs, policy.as_mut(), &SimOptions::default())
            .expect("completes");
        assert_eq!(outcome.policy_name, "widest-first");
        assert_eq!(outcome.records.len(), jobs.len());
    }

    #[test]
    fn shared_builtin_registry_is_reused() {
        let a: *const PolicyRegistry = builtins();
        let b: *const PolicyRegistry = builtins();
        assert_eq!(a, b);
        assert_eq!(builtins().len(), 10);
    }
}
