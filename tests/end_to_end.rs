//! Cross-crate integration tests: every scheduler against every scenario,
//! feasibility of every produced schedule, and end-to-end determinism.

use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::workloads::names as scenario_names;
use reasoned_scheduler::workloads::polaris::polaris_workload;

/// Generate a named scenario through the shared registry (dynamic
/// arrivals) — the same path the experiment harness uses.
fn named_workload(scenario: &str, n: usize, seed: u64) -> Workload {
    scenario_builtins()
        .generate(
            scenario,
            &ScenarioContext::new(n)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(seed),
        )
        .unwrap_or_else(|e| panic!("{e}"))
}

fn quick_solver() -> SolverConfig {
    SolverConfig {
        sa_iterations_per_task: 40,
        sa_iteration_cap: 800,
        ..SolverConfig::default()
    }
}

/// Resolve a scheduler by (case-insensitive) registry name and drive it
/// through the `Simulation` builder — the same path the harness uses.
fn run_kind(name: &str, jobs: &[JobSpec], cluster: ClusterConfig, seed: u64) -> SimOutcome {
    let ctx = PolicyContext::new(jobs, cluster)
        .with_seed(seed)
        .with_solver(quick_solver());
    let mut policy = PolicyRegistry::with_builtins()
        .build(name, &ctx)
        .unwrap_or_else(|e| panic!("{e}"));
    Simulation::new(cluster)
        .jobs(jobs)
        .run(policy.as_mut())
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
}

/// Capacity must hold at every start instant of the realized schedule.
fn assert_schedule_feasible(outcome: &SimOutcome, cluster: ClusterConfig) {
    for probe in &outcome.records {
        let t = probe.start;
        let nodes: u64 = outcome
            .records
            .iter()
            .filter(|r| r.start <= t && t < r.end)
            .map(|r| r.spec.nodes as u64)
            .sum();
        let mem: u64 = outcome
            .records
            .iter()
            .filter(|r| r.start <= t && t < r.end)
            .map(|r| r.spec.memory_gb)
            .sum();
        assert!(
            nodes <= cluster.nodes as u64,
            "{}: node capacity violated at {t}",
            outcome.policy_name
        );
        assert!(
            mem <= cluster.memory_gb,
            "{}: memory capacity violated at {t}",
            outcome.policy_name
        );
    }
}

#[test]
fn every_scheduler_completes_every_scenario() {
    // Every synthetic scenario — the paper's seven plus the five extended
    // ones (all calibrated to the paper machine; the Polaris substrate runs
    // on its own cluster in `polaris_pipeline_end_to_end`).
    let cluster = ClusterConfig::paper_default();
    for scenario in scenario_names::LEGACY_SEVEN
        .into_iter()
        .chain(scenario_names::EXTENDED_FIVE)
    {
        let workload = named_workload(scenario, 12, 42);
        for name in [
            "fcfs",
            "sjf",
            "easy",
            "random",
            "or-tools",
            "claude-3.7",
            "o4-mini",
        ] {
            let outcome = run_kind(name, &workload.jobs, cluster, 42);
            assert_eq!(
                outcome.records.len(),
                workload.len(),
                "{name} on {scenario}"
            );
            assert_schedule_feasible(&outcome, cluster);
            // Every job starts at or after its submission.
            for r in &outcome.records {
                assert!(r.start >= r.spec.submit);
            }
        }
    }
}

#[test]
fn static_workloads_complete_too() {
    let cluster = ClusterConfig::paper_default();
    let workload = scenario_builtins()
        .generate(
            scenario_names::HETEROGENEOUS_MIX,
            &ScenarioContext::new(15)
                .with_mode(ArrivalMode::Static)
                .with_seed(5),
        )
        .expect("builtin scenario");
    for name in ["fcfs", "sjf", "or-tools", "claude-3.7"] {
        let outcome = run_kind(name, &workload.jobs, cluster, 5);
        assert_eq!(outcome.records.len(), 15, "{name}");
        assert_schedule_feasible(&outcome, cluster);
    }
}

#[test]
fn end_to_end_runs_are_deterministic() {
    let cluster = ClusterConfig::paper_default();
    let workload = named_workload(scenario_names::BURSTY_IDLE, 14, 9);
    for name in [
        "fcfs",
        "sjf",
        "easy",
        "random",
        "or-tools",
        "claude-3.7",
        "o4-mini",
    ] {
        let a = run_kind(name, &workload.jobs, cluster, 9);
        let b = run_kind(name, &workload.jobs, cluster, 9);
        assert_eq!(a.records, b.records, "{name} not deterministic");
        assert_eq!(a.stats, b.stats, "{name} stats drift");
    }
}

#[test]
fn metrics_are_consistent_with_simulator_integrals() {
    // The closed-form utilization (Σ n·d / C·makespan) must agree with the
    // simulator's live step-function integral.
    let cluster = ClusterConfig::paper_default();
    let workload = named_workload(scenario_names::HIGH_PARALLELISM, 12, 3);
    let outcome = run_kind("fcfs", &workload.jobs, cluster, 3);
    let report = MetricsReport::compute(&outcome.records, cluster);

    let first_submit = outcome
        .records
        .iter()
        .map(|r| r.spec.submit)
        .min()
        .expect("non-empty");
    let makespan = outcome.makespan_end().since(first_submit).as_secs_f64();
    let util_from_integral = outcome.node_seconds / (cluster.nodes as f64 * makespan);
    assert!(
        (report.node_utilization - util_from_integral).abs() < 1e-6,
        "closed form {} vs integral {}",
        report.node_utilization,
        util_from_integral
    );
}

#[test]
fn polaris_pipeline_end_to_end() {
    let cluster = ClusterConfig::polaris();
    let jobs = polaris_workload(30, 77);
    assert_eq!(jobs.len(), 30);
    for name in ["fcfs", "claude-3.7"] {
        let outcome = run_kind(name, &jobs, cluster, 77);
        assert_eq!(outcome.records.len(), 30, "{name}");
        assert_schedule_feasible(&outcome, cluster);
    }
}

#[test]
fn llm_agent_records_full_interpretability_artifacts() {
    let cluster = ClusterConfig::paper_default();
    let workload = named_workload(scenario_names::ADVERSARIAL, 10, 21);
    let mut policy = LlmSchedulingPolicy::claude37(21);
    let outcome = run_simulation(cluster, &workload.jobs, &mut policy, &SimOptions::default())
        .expect("completes");
    // One log record per LLM call; every placement is explained.
    let report = policy.overhead_report().expect("agents report overhead");
    assert_eq!(policy.calls().len(), report.call_count);
    assert!(report.call_count >= outcome.stats.placements);
    let rendered = policy.render_trace();
    assert_eq!(rendered.matches("# Thought").count(), report.call_count);
    assert!(rendered.contains("StartJob(job_id="));
    // The scratchpad retains the whole history.
    assert!(policy.scratchpad().len() >= 2 * outcome.stats.placements);
}

#[test]
fn llm_wait_improvement_holds_on_long_job_dominant() {
    // The paper's headline Long-Job-Dominant claim, end to end: LLM agents
    // dramatically reduce average wait versus FCFS.
    let cluster = ClusterConfig::paper_default();
    let workload = named_workload(scenario_names::LONG_JOB_DOMINANT, 20, 13);
    let fcfs = run_kind("fcfs", &workload.jobs, cluster, 13);
    let claude = run_kind("claude-3.7", &workload.jobs, cluster, 13);
    let wait = |o: &SimOutcome| MetricsReport::compute(&o.records, cluster).avg_wait_secs;
    assert!(
        wait(&claude) < 0.7 * wait(&fcfs),
        "Claude wait {} should be well below FCFS {}",
        wait(&claude),
        wait(&fcfs)
    );
}

/// A simulated model the test can still read once the agent owns it.
#[derive(Clone)]
struct SharedModel(std::rc::Rc<std::cell::RefCell<SimulatedLlm>>);

impl LanguageModel for SharedModel {
    fn model_name(&self) -> &str {
        "shared"
    }

    fn complete(
        &mut self,
        prompt: &str,
    ) -> Result<reasoned_scheduler::llm::Completion, reasoned_scheduler::llm::LlmError> {
        self.0.borrow_mut().complete(prompt)
    }
}

/// Work, not seconds. Every prompt carries the whole decision history
/// again, and the simulated model reads line by line only what it has not
/// read before: the head sections, the newest history lines, the objectives
/// tail. The counts are exact, so they are pinned as counts.
#[test]
fn simulated_model_reads_a_fraction_of_the_prompt_bytes_it_is_handed() {
    let cluster = ClusterConfig::paper_default();
    let claude = || {
        let model = SharedModel(std::rc::Rc::new(SimulatedLlm::claude37(7).into()));
        let policy = LlmSchedulingPolicy::new(Box::new(model.clone()));
        (model, policy)
    };
    // Bytes received and bytes read over one run of `jobs`, after a reset.
    let run = |(model, policy): &mut (SharedModel, LlmSchedulingPolicy), jobs: &[JobSpec]| {
        let before = model.0.borrow().prompt_bytes();
        policy.reset();
        let outcome =
            run_simulation(cluster, jobs, policy, &SimOptions::default()).expect("completes");
        assert_eq!(outcome.records.len(), jobs.len());
        let after = model.0.borrow().prompt_bytes();
        (after.0 - before.0, after.1 - before.1)
    };
    let long = named_workload(scenario_names::HETEROGENEOUS_MIX, 500, 7).jobs;
    let mut agent = claude();
    let (received, read) = run(&mut agent, &long);
    assert!(received > 50_000_000, "received {received}");
    assert!(
        read * 100 <= received * 15,
        "read {read} of {received} bytes"
    );
    assert_eq!(run(&mut claude(), &long), (received, read), "exact counts");

    // The same model behind the same agent on a new run: `reset` empties
    // the scratchpad, so the histories that follow match nothing the model
    // remembers. That costs what it costs a model that remembers nothing,
    // and a constant — not a search per remembered block.
    let next = named_workload(scenario_names::BURSTY_IDLE, 100, 8).jobs;
    let (received_next, read_next) = run(&mut agent, &next);
    let (received_fresh, read_fresh) = run(&mut claude(), &next);
    // (The used model's sampler is further along, so the two runs differ
    // by a few words: 2 132 276 and 2 132 059 bytes received.)
    assert!(received_next > 2_000_000 && received_next.abs_diff(received_fresh) < 20_000);
    assert!(
        read_next <= read_fresh + 16_384,
        "{read_next} vs {read_fresh}"
    );
    assert!(read_fresh * 100 <= received_fresh * 40, "read {read_fresh}");
}
