//! Persona ablation: how the agent's objective-weight emphasis moves the
//! normalized metric profile (DESIGN.md §5).
//!
//! The two paper personas differ mainly in fairness-vs-throughput emphasis;
//! this sweep makes that axis explicit by running single-objective and
//! blended personas over the same Heterogeneous Mix workload. It answers
//! the interpretability question behind the paper's Figure 3 discussion:
//! *which* emphasis produces which profile.

use std::path::Path;

use rsched_campaign::{run_cells, CampaignError, CellSpec};
use rsched_cluster::ClusterConfig;
use rsched_core::LlmSchedulingPolicy;
use rsched_llm::persona::{ObjectiveWeights, Persona};
use rsched_llm::SimulatedLlm;
use rsched_parallel::ThreadPool;
use rsched_registry::{names, PolicyRegistry};
use rsched_schedulers::Fcfs;
use rsched_simkit::rng::SeedTree;
use rsched_workloads::{names as scenario_names, scenario_builtins};

use crate::figures::NormalizedFigure;
use crate::options::ExperimentOptions;

/// The swept weight profiles.
pub(crate) fn weight_profiles() -> Vec<(&'static str, ObjectiveWeights)> {
    vec![
        (
            "fairness-only",
            ObjectiveWeights {
                fairness: 1.0,
                throughput: 0.0,
                packing: 0.0,
                makespan: 0.0,
            },
        ),
        (
            "throughput-only",
            ObjectiveWeights {
                fairness: 0.0,
                throughput: 1.0,
                packing: 0.0,
                makespan: 0.0,
            },
        ),
        (
            "packing-only",
            ObjectiveWeights {
                fairness: 0.0,
                throughput: 0.0,
                packing: 1.0,
                makespan: 0.0,
            },
        ),
        (
            "makespan-only",
            ObjectiveWeights {
                fairness: 0.0,
                throughput: 0.0,
                packing: 0.0,
                makespan: 1.0,
            },
        ),
        ("balanced", ObjectiveWeights::balanced()),
        ("claude37-weights", Persona::claude37().weights),
        ("o4mini-weights", Persona::o4mini().weights),
    ]
}

/// FCFS beside one registry entry per weight profile: a simulated agent
/// whose persona (temperature 0) carries the profile's weights.
fn persona_registry() -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    registry
        .register(names::FCFS, |_| Box::new(Fcfs::default()))
        .expect("an empty registry takes any name");
    for (name, weights) in weight_profiles() {
        registry
            .register(name, move |ctx| {
                let model = SimulatedLlm::new(Persona::custom(name, weights), ctx.seed);
                Box::new(LlmSchedulingPolicy::new(Box::new(model)))
            })
            .expect("profile names are distinct from each other and FCFS");
    }
    registry
}

/// The ablation grid: FCFS and every profile over one workload, all
/// under one policy seed.
pub fn cells(opts: &ExperimentOptions) -> Vec<CellSpec> {
    let tree = SeedTree::new(opts.seed).subtree("ablation", 0);
    let policy_seed = tree.derive("policy", 0);
    let workload_seed = tree.derive("workload", 0);
    let profiles = weight_profiles().into_iter().map(|(name, _)| name);
    std::iter::once(names::FCFS)
        .chain(profiles)
        .map(|policy| CellSpec {
            policy: policy.to_string(),
            scenario: scenario_names::HETEROGENEOUS_MIX.to_string(),
            jobs: opts.scaled(60),
            workload_seed,
            policy_seed,
        })
        .collect()
}

/// Run the ablation sweep: FCFS and every profile over one workload.
pub fn run(
    opts: &ExperimentOptions,
    cells_dir: &Path,
    pool: &ThreadPool,
) -> Result<NormalizedFigure, CampaignError> {
    let runs = run_cells(
        &persona_registry(),
        scenario_builtins(),
        cells(opts),
        ClusterConfig::paper_default(),
        opts.solver,
        1.0,
        cells_dir,
        pool,
    )?;
    Ok(NormalizedFigure::new(
        format!(
            "Persona ablation — objective-weight sweep, Heterogeneous Mix, {} jobs \
             (normalized vs FCFS)",
            opts.scaled(60)
        ),
        None,
        "persona",
        vec![String::new()],
        runs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::TempCells;
    use rsched_cpsolver::SolverConfig;
    use rsched_metrics::{Metric, NormalizedReport};

    #[test]
    fn single_objective_personas_move_the_profile_as_expected() {
        let pool = ThreadPool::new(4);
        let opts = ExperimentOptions {
            seed: 8,
            quick: true,
            solver: SolverConfig::default(),
        };
        let out = run(&opts, &TempCells::new("ablation_1").0, &pool).expect("runs");
        assert_eq!(out.groups[0].1.len(), 1 + weight_profiles().len());

        let throughput_only = out.row("", "throughput-only").expect("present");
        let makespan_only = out.row("", "makespan-only").expect("present");
        // A throughput-obsessed persona must cut average wait at least as
        // hard as a makespan-obsessed one (which front-loads long jobs).
        let wait = |r: &NormalizedReport| r.get(Metric::AvgWait).unwrap_or(1.0);
        assert!(
            wait(throughput_only) <= wait(makespan_only) + 1e-9,
            "throughput-only {} vs makespan-only {}",
            wait(throughput_only),
            wait(makespan_only)
        );
        // The fairness-only persona should not trail throughput-only on
        // user fairness.
        let fairness_only = out.row("", "fairness-only").expect("present");
        let uf = |r: &NormalizedReport| r.get(Metric::UserFairness).unwrap_or(0.0);
        assert!(uf(fairness_only) + 1e-9 >= uf(throughput_only));
    }
}
