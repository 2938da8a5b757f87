//! The service driver's correctness contract: the same job stream pushed
//! through the virtual-time simulator and through a `ManualClock`-ticked
//! [`rsched_service::replay`] produces **bit-identical** outcomes —
//! decision sequences, job records, aggregate stats and end time — for
//! every builtin policy, across scenarios and seeds.
//!
//! This is the load-bearing test behind the daemon refactor: it proves the
//! ingest/admission/tick front-end is a pure re-driving of the shared
//! `KernelState`, not a second scheduler.

use rsched_cluster::ClusterConfig;
use rsched_cpsolver::SolverConfig;
use rsched_registry::{names, PolicyContext, PolicyRegistry};
use rsched_service::replay;
use rsched_service::{CountingServiceObserver, ServiceObserver};
use rsched_sim::{SimOptions, SimOutcome, Simulation, TelemetrySink};
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

/// Keep the OR-Tools planner quick: these grids run it dozens of times.
fn quick_solver() -> SolverConfig {
    SolverConfig {
        sa_iterations_per_task: 40,
        sa_iteration_cap: 800,
        ..SolverConfig::default()
    }
}

fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}: policy name");
    assert_eq!(
        a.decisions.len(),
        a.stats.queries,
        "{label}: logged queries"
    );
    assert_eq!(a.decisions, b.decisions, "{label}: decision log");
    assert_eq!(a.records, b.records, "{label}: job records");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
}

/// All builtin policies × 2 scenarios × 2 seeds: virtual-time simulation
/// and service-driver replay agree bit for bit.
#[test]
fn service_replay_matches_virtual_time_simulation() {
    let scenarios = ["heterogeneous_mix", "adversarial"];
    let cluster = ClusterConfig::paper_default();
    let registry = PolicyRegistry::with_builtins();
    for scenario in scenarios {
        for seed in 1u64..=2 {
            let jobs = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(12)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(seed),
                )
                .expect("builtin scenario")
                .jobs;
            let ctx = PolicyContext::new(&jobs, cluster)
                .with_seed(seed)
                .with_solver(quick_solver());
            for name in names::ALL_BUILTIN {
                let label = format!("{name} on {scenario}/seed {seed}");
                let options = SimOptions::default();
                let mut sim_policy = registry.build(name, &ctx).expect("builtin");
                let svc_policy = registry.build(name, &ctx).expect("builtin");
                let sim = Simulation::new(cluster)
                    .jobs(&jobs)
                    .options(options)
                    .record_decisions()
                    .run(sim_policy.as_mut())
                    .unwrap_or_else(|e| panic!("{label} (simulator): {e}"));
                let off = TelemetrySink::disabled();
                let svc = replay(cluster, &jobs, svc_policy, &options, &mut [], &off)
                    .unwrap_or_else(|e| panic!("{label} (service replay): {e}"));
                assert_outcomes_identical(&sim, &svc, &label);
            }
        }
    }
}

/// Replay streams every admission, decision, and completion to service
/// observers, and the counts reconcile with the outcome.
#[test]
fn replay_streams_observers_consistently() {
    let cluster = ClusterConfig::paper_default();
    let jobs = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(16)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(7),
        )
        .expect("builtin scenario")
        .jobs;
    let ctx = PolicyContext::new(&jobs, cluster).with_seed(7);
    let policy = PolicyRegistry::with_builtins()
        .build(names::FCFS, &ctx)
        .expect("builtin");
    let mut counter = CountingServiceObserver::default();
    let mut observers: Vec<&mut dyn ServiceObserver> = vec![&mut counter];
    let out = replay(
        cluster,
        &jobs,
        policy,
        &SimOptions::default(),
        &mut observers,
        &TelemetrySink::disabled(),
    )
    .expect("replay runs");
    assert_eq!(counter.admits, jobs.len(), "every job admitted");
    assert_eq!(counter.rejects, 0, "permissive admission rejects nothing");
    assert_eq!(
        counter.completions,
        out.records.len(),
        "completions streamed"
    );
    assert_eq!(
        out.decisions.len(),
        out.stats.queries,
        "a replay keeps its log"
    );
    assert_eq!(counter.decisions, out.decisions.len(), "decisions streamed");
    assert!(counter.ticks > 0, "ticks observed");
}
