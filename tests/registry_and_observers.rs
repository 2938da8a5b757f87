//! The tentpole API's contracts, tested from outside the workspace:
//!
//! * registry-constructed policies are **bit-identical** to directly
//!   constructed ones (property test over all builtin names and many
//!   seeds);
//! * the `SimOutcome` a run returns is its record: decisions in
//!   nondecreasing `SimTime`, one per query, the accepted placements among
//!   them the ones the stats count — and a run that fails returns none;
//! * the decision log is kept only when the run asks for it, and asking
//!   changes nothing else the run returns;
//! * a custom third-party policy registers by name and runs through
//!   `Simulation` — no workspace code touched.

use proptest::prelude::*;

use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::registry::names;
use reasoned_scheduler::sim::SimError;

fn quick_solver() -> SolverConfig {
    SolverConfig {
        sa_iterations_per_task: 40,
        sa_iteration_cap: 800,
        ..SolverConfig::default()
    }
}

/// Construct the policy the old hardcoded way — the reference the registry
/// must reproduce exactly.
fn direct_policy(name: &str, jobs: &[JobSpec], seed: u64) -> Box<dyn SchedulingPolicy> {
    match name {
        "FCFS" => Box::new(Fcfs::default()),
        "SJF" => Box::new(Sjf::default()),
        "EASY" => Box::new(EasyBackfill::new()),
        "EASY-SJBF" => Box::new(EasyBackfill::sjbf()),
        "Conservative" => Box::new(ConservativeBackfill::new()),
        "Conservative-SJBF" => Box::new(ConservativeBackfill::sjbf()),
        "Random" => Box::new(RandomPolicy::new(seed)),
        "OR-Tools" => Box::new(OrToolsPolicy::with_config(
            jobs,
            SolverConfig {
                seed,
                ..quick_solver()
            },
        )),
        "Claude-3.7" => Box::new(LlmSchedulingPolicy::claude37(seed)),
        "O4-Mini" => Box::new(LlmSchedulingPolicy::o4mini(seed)),
        other => panic!("not a builtin: {other}"),
    }
}

fn outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}");
    assert_eq!(a.records, b.records, "{label}");
    assert_eq!(a.decisions.len(), a.stats.queries, "{label}");
    assert_eq!(a.decisions, b.decisions, "{label}");
    assert_eq!(a.stats, b.stats, "{label}");
    assert_eq!(a.end_time, b.end_time, "{label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For every builtin name, the registry factory and direct construction
    /// schedule bit-identically across seeds, scenario draws, and sizes.
    #[test]
    fn registry_policies_match_direct_construction(
        seed in 0u64..10_000,
        workload_seed in 0u64..10_000,
        n in 8usize..14,
        scenario_idx in 0usize..3,
    ) {
        let scenario = [
            "heterogeneous_mix",
            "resource_sparse",
            "long_job_dominant",
        ][scenario_idx];
        let cluster = ClusterConfig::paper_default();
        let jobs = scenario_builtins()
            .generate(
                scenario,
                &ScenarioContext::new(n)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(workload_seed),
            )
            .expect("builtin scenario")
            .jobs;
        let registry = PolicyRegistry::with_builtins();
        let ctx = PolicyContext::new(&jobs, cluster)
            .with_seed(seed)
            .with_solver(quick_solver());

        for name in names::ALL_BUILTIN {
            let mut from_registry = registry.build(name, &ctx).expect("builtin");
            let mut from_direct = direct_policy(name, &jobs, seed);
            let a = Simulation::new(cluster)
                .jobs(&jobs)
                .record_decisions()
                .run(from_registry.as_mut())
                .unwrap_or_else(|e| panic!("{name} (registry): {e}"));
            let b = Simulation::new(cluster)
                .jobs(&jobs)
                .record_decisions()
                .run(from_direct.as_mut())
                .unwrap_or_else(|e| panic!("{name} (direct): {e}"));
            outcomes_identical(&a, &b, name);
        }
    }
}

/// Decisions in time order, one per query, and the accepted placements
/// among them exactly the ones `stats` counts.
fn assert_outcome_is_the_record_of_the_run(outcome: &SimOutcome) {
    for pair in outcome.decisions.windows(2) {
        assert!(
            pair[0].time <= pair[1].time,
            "decision log went backwards: {} then {}",
            pair[0].time,
            pair[1].time
        );
    }
    assert_eq!(outcome.decisions.len(), outcome.stats.queries);
    let placed = outcome
        .decisions
        .iter()
        .filter(|d| d.accepted() && d.action.is_placement());
    assert_eq!(placed.count(), outcome.stats.placements);
}

#[test]
fn decision_log_is_ordered_and_agrees_with_the_stats() {
    let cluster = ClusterConfig::paper_default();
    let workload = scenario_builtins()
        .generate(
            "adversarial",
            &ScenarioContext::new(15)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(21),
        )
        .expect("builtin scenario");
    let mut agent = LlmSchedulingPolicy::claude37(21);

    let outcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .record_decisions()
        .run(&mut agent)
        .expect("completes");

    assert_outcome_is_the_record_of_the_run(&outcome);
    // The agent's own log is the same run seen from the policy's side: one
    // record per query, carrying the action and the verdict the kernel's
    // record of that query carries.
    assert_eq!(agent.calls().len(), outcome.decisions.len());
    for (call, decision) in agent.calls().iter().zip(&outcome.decisions) {
        assert_eq!(call.time_secs, decision.time.as_secs());
        assert_eq!(call.action, Some(decision.action));
        assert_eq!(call.accepted, Some(decision.accepted()));
    }
}

/// A run that does not ask for the decision log allocates none, and one
/// that asks returns the same records, stats, epochs and end time — for
/// every kind of builtin policy, on a flat and on a classed machine.
#[test]
fn a_run_keeps_its_decision_log_only_when_asked() {
    let fixtures = [
        (ClusterConfig::paper_default(), "heterogeneous_mix"),
        (ClusterConfig::mixed_256(), "gpu_skewed_hetmix"),
    ];
    let registry = PolicyRegistry::with_builtins();
    for (cluster, scenario) in fixtures {
        let jobs = scenario_builtins()
            .generate(
                scenario,
                &ScenarioContext::new(60)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(11),
            )
            .expect("builtin scenario")
            .jobs;
        let ctx = PolicyContext::new(&jobs, cluster)
            .with_seed(11)
            .with_solver(quick_solver());
        for name in [
            names::FCFS,
            names::SJF,
            names::EASY,
            names::CONSERVATIVE,
            names::RANDOM,
            names::OR_TOOLS,
        ] {
            let label = format!("{name} on {scenario}");
            let run = |logged: bool| {
                let mut policy = registry.build(name, &ctx).expect("builtin");
                let sim = Simulation::new(cluster).jobs(&jobs);
                let sim = if logged { sim.record_decisions() } else { sim };
                sim.run(policy.as_mut())
                    .unwrap_or_else(|e| panic!("{label}: {e}"))
            };
            let (bare, logged) = (run(false), run(true));
            assert!(bare.decisions.is_empty(), "{label}");
            assert_eq!(bare.decisions.capacity(), 0, "{label}: nothing reserved");
            assert_eq!(logged.decisions.len(), logged.stats.queries, "{label}");
            assert!(!logged.decisions.is_empty(), "{label}");
            assert_eq!(bare.records, logged.records, "{label}: records");
            assert_eq!(bare.stats, logged.stats, "{label}: stats");
            assert_eq!(bare.epochs, logged.epochs, "{label}: epochs");
            assert_eq!(bare.end_time, logged.end_time, "{label}: end time");
        }
    }
}

#[test]
fn failed_runs_return_no_outcome() {
    struct DelayForever;
    impl SchedulingPolicy for DelayForever {
        fn name(&self) -> &str {
            "delay-forever"
        }
        fn decide(&mut self, _view: &SystemView<'_>) -> Action {
            Action::Delay
        }
    }
    let cluster = ClusterConfig::paper_default();
    let workload = scenario_builtins()
        .generate(
            "homogeneous_short",
            &ScenarioContext::new(4)
                .with_mode(ArrivalMode::Static)
                .with_seed(2),
        )
        .expect("builtin scenario");
    let err = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .run(&mut DelayForever);
    assert!(matches!(err, Err(SimError::Stuck { waiting: 4, .. })));
}

#[test]
fn third_party_policy_runs_by_name_through_simulation() {
    /// A policy no workspace crate knows about: most-memory-first.
    struct MemoryHog;
    impl SchedulingPolicy for MemoryHog {
        fn name(&self) -> &str {
            "memory-hog-first"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            if view.all_jobs_started() {
                return Action::Stop;
            }
            match view.eligible_now().max_by_key(|j| j.memory_gb) {
                Some(j) => Action::StartJob(j.id),
                None => Action::Delay,
            }
        }
    }

    let mut registry = PolicyRegistry::with_builtins();
    registry
        .register("memory-hog-first", |_| Box::new(MemoryHog))
        .expect("fresh name");

    let cluster = ClusterConfig::paper_default();
    let workload = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(12)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(5),
        )
        .expect("builtin scenario");
    let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(5);
    let mut policy = registry
        .build("Memory-Hog-First", &ctx) // case-insensitive lookup
        .expect("registered");

    let outcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .record_decisions()
        .run(policy.as_mut())
        .expect("completes");

    assert_eq!(outcome.policy_name, "memory-hog-first");
    assert_eq!(outcome.records.len(), workload.len());
    assert_outcome_is_the_record_of_the_run(&outcome);
    // Plain algorithmic policy: no overhead ledger.
    assert!(policy.overhead_report().is_none());
}
