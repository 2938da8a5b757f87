//! Facade-drift guard: construct (or otherwise exercise) every item the
//! `reasoned_scheduler::prelude` re-exports, so a renamed or dropped
//! export breaks CI here instead of breaking downstream users.

use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::prelude::*;

#[test]
fn cluster_types_construct() {
    let config = ClusterConfig::paper_default();
    assert!(config.nodes > 0 && config.memory_gb > 0);

    let spec = JobSpec::new(
        7,
        1,
        SimTime::from_secs(0),
        SimDuration::from_secs(120),
        2,
        8,
    );
    assert_eq!(spec.id, JobId(7));
    assert_eq!(spec.user, UserId(1));

    let record = JobRecord::new(spec, SimTime::from_secs(30));
    assert_eq!(record.start, SimTime::from_secs(30));
}

#[test]
fn simkit_types_construct() {
    let t = SimTime::from_secs(5);
    let d = SimDuration::from_secs(3);
    assert_eq!(t + d, SimTime::from_secs(8));
}

#[test]
fn workload_types_construct() {
    // The scenario registry surface is reachable through the prelude.
    let registry: &ScenarioRegistry = scenario_builtins();
    let ctx = ScenarioContext::new(4)
        .with_mode(ArrivalMode::Static)
        .with_seed(1);
    let workload: Workload = registry
        .generate("heterogeneous_mix", &ctx)
        .expect("builtin scenario");
    assert_eq!(workload.jobs.len(), 4);
    assert!(registry.len() >= 12);
    // Failures surface as the shared error type.
    let err: WorkloadError = registry.generate("no-such-scenario", &ctx).unwrap_err();
    assert!(err.to_string().contains("no scenario registered"));
}

#[test]
fn llm_types_construct() {
    let mut llm: SimulatedLlm = SimulatedLlm::claude37(11);
    // `LanguageModel` is the prelude's trait handle to any backend.
    let named: &mut dyn LanguageModel = &mut llm;
    assert!(!named.model_name().is_empty());
}

#[test]
fn agent_types_construct() {
    let agent = LlmSchedulingPolicy::new(Box::new(SimulatedLlm::o4mini(3)));
    assert!(!agent.name().is_empty());
    let policy = LlmSchedulingPolicy::claude37(3);
    let log: &[CallRecord] = policy.calls();
    assert!(log.is_empty());
}

#[test]
fn scheduler_policies_construct() {
    let workload = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(3)
                .with_mode(ArrivalMode::Static)
                .with_seed(2),
        )
        .expect("builtin scenario");
    let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(Fcfs::default()),
        Box::new(Sjf::default()),
        Box::new(EasyBackfill::new()),
        Box::new(RandomPolicy::new(2)),
        Box::new(OrToolsPolicy::with_config(
            &workload.jobs,
            SolverConfig::default(),
        )),
    ];
    assert_eq!(policies.len(), 5);
}

#[test]
fn sim_types_construct_and_run() {
    let action = Action::Delay;
    assert!(!action.to_string().is_empty());

    let config = ClusterConfig::paper_default();
    let view = SystemView {
        now: SimTime::from_secs(0),
        config,
        free_nodes: config.nodes,
        free_memory_gb: config.memory_gb,
        free_by_class: [0; reasoned_scheduler::cluster::MAX_CLASSES],
        waiting: Waiting::default(),
        running: Default::default(),
        completed: 0,
        pending_arrivals: 0,
        total_jobs: 0,
        telemetry: None,
        queue: None,
    };
    assert_eq!(view.free_nodes, config.nodes);
    assert_eq!(view.completed, 0);

    let summary = RunningSummary {
        id: JobId(1),
        user: UserId(0),
        nodes: 1,
        memory_gb: 1,
        start: SimTime::from_secs(0),
        submit: SimTime::from_secs(0),
        expected_end: SimTime::from_secs(60),
        class: None,
    };
    assert_eq!(summary.id, JobId(1));

    let workload = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(3)
                .with_mode(ArrivalMode::Static)
                .with_seed(4),
        )
        .expect("builtin scenario");
    let outcome = run_simulation(
        config,
        &workload.jobs,
        &mut Fcfs::default(),
        &SimOptions::default(),
    )
    .expect("tiny workload completes");
    assert_eq!(outcome.records.len(), 3);
}

#[test]
fn registry_and_builder_types_construct_and_run() {
    // Every piece of the registry + builder surface is reachable
    // through the prelude.
    let workload = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(3)
                .with_mode(ArrivalMode::Static)
                .with_seed(8),
        )
        .expect("builtin scenario");
    let cluster = ClusterConfig::paper_default();

    let mut registry = PolicyRegistry::with_builtins();
    assert!(registry.contains("FCFS"));
    registry
        .register("always-fcfs", |_| Box::new(Fcfs::default()))
        .expect("fresh name");

    let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(8);
    let mut policy = registry.build("always-fcfs", &ctx).expect("registered");

    let outcome: SimOutcome = Simulation::new(cluster)
        .jobs(&workload.jobs)
        .options(SimOptions::default())
        .run(policy.as_mut())
        .expect("tiny workload completes");
    assert_eq!(outcome.records.len(), 3);
    assert_eq!(outcome.decisions.len(), outcome.stats.queries);
    let first: &DecisionRecord = &outcome.decisions[0];
    assert!(first.accepted());
}

#[test]
fn pareto_types_construct() {
    // Minimization staircase: both points non-dominated.
    let points = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
    assert_eq!(pareto_front(&points), vec![0, 1]);
    assert_eq!(pareto_ranks(&points), vec![0, 0]);
    assert!(!dominates(&points[0], &points[1]));
    assert!(hypervolume(&points, &[3.0, 3.0]) > 0.0);
    let space = ObjectiveSpace::paper_default();
    assert_eq!(space.len(), 4);
}

#[test]
fn campaign_types_construct_and_run() {
    let spec: CampaignSpec = CampaignSpec::parse(
        r#"
name = "prelude-smoke"
policies = ["FCFS", "SJF"]
scenarios = ["resource_sparse"]
jobs = [6]
seeds = [3]
"#,
    )
    .expect("valid spec");
    let out = std::env::temp_dir().join(format!("rsched_prelude_campaign_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let campaign = Campaign::new(spec).out_root(&out);
    let pool = reasoned_scheduler::parallel::ThreadPool::new(1);
    let outcome = campaign.run(&pool).expect("runs");
    let results: &[CellResult] = &outcome.results;
    assert_eq!(results.len(), 2);
    let cell: &CellSpec = &results[0].cell;
    assert_eq!(cell.policy, "FCFS");
    let summary: &CampaignSummary = &outcome.summary;
    assert!(!summary.fronts[0].front().is_empty());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn metric_types_construct() {
    let workload = scenario_builtins()
        .generate(
            "heterogeneous_mix",
            &ScenarioContext::new(3)
                .with_mode(ArrivalMode::Static)
                .with_seed(6),
        )
        .expect("builtin scenario");
    let config = ClusterConfig::paper_default();
    let outcome = run_simulation(
        config,
        &workload.jobs,
        &mut Fcfs::default(),
        &SimOptions::default(),
    )
    .expect("completes");
    let report = MetricsReport::compute(&outcome.records, config);
    assert!(report.makespan_secs > 0.0);
    // Every metric enum variant answers its accessor on a real report.
    for metric in Metric::all() {
        assert!(report.get(metric).is_finite());
    }
}
