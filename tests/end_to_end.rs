//! Cross-crate integration tests: every scheduler against every scenario,
//! feasibility of every produced schedule, and end-to-end determinism.

use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::simkit::rng::SeedTree;
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

/// The OR-Tools baseline on the 21 cells it runs in the paper grid at
/// seed 7 (the paper's seven scenarios × 20, 30 and 40 jobs, dynamic
/// arrivals, the paper machine, the default solver budget), built by
/// registry name with the campaign's policy seed. One FNV-1a hash over
/// every record's start pins the schedules: the grid's own schedule hash
/// does not cover the solver's cells, and a change to the annealer that
/// keeps a feasible plan but picks another one moves this first.
#[test]
fn the_or_tools_schedules_of_the_paper_grid_are_pinned() {
    use std::fmt::Write as _;
    let cluster = ClusterConfig::paper_default();
    let policies = PolicyRegistry::with_builtins();
    let mut starts = String::new();
    for scenario in scenario_names::LEGACY_SEVEN {
        for jobs in [20, 30, 40] {
            let cell = CellSpec {
                policy: "or-tools".to_string(),
                scenario: scenario.to_string(),
                jobs,
                workload_seed: 7,
                // The campaign's derivation (`Campaign::grid`).
                policy_seed: SeedTree::new(7).derive("or-tools", 0),
            };
            let workload = scenario_builtins()
                .generate(
                    scenario,
                    &ScenarioContext::new(jobs)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(cell.workload_seed)
                        .with_cluster(cluster),
                )
                .unwrap_or_else(|e| panic!("{e}"));
            let ctx = PolicyContext::new(&workload.jobs, cluster)
                .with_seed(cell.policy_seed)
                .with_solver(SolverConfig::default());
            let mut policy = policies
                .build(&cell.policy, &ctx)
                .unwrap_or_else(|e| panic!("{e}"));
            let outcome = Simulation::new(cluster)
                .jobs(&workload.jobs)
                .run(policy.as_mut())
                .unwrap_or_else(|e| panic!("{scenario}/{jobs}: {e}"));
            assert_eq!(outcome.records.len(), jobs, "{scenario}/{jobs}");
            for r in &outcome.records {
                let _ = write!(starts, "{}@{};", r.spec.id, r.start.as_millis());
            }
            starts.push('|');
        }
    }
    let fnv = starts
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        fnv, 7_323_820_500_526_429_882,
        "the 21 seed-7 OR-Tools schedules"
    );
}

/// Every figure grid's coordinates at the default options, listed without
/// running anything: 98 cells (Figures 3 and 4 have 30 each, Figure 7 has
/// 25, Figure 8 has 5 and the ablation 8), and one FNV-1a hash over each
/// cell's `(policy, scenario, jobs, workload_seed, policy_seed)`. A drift in
/// any figure's seed derivation moves the hash here, before the full
/// `all_figures` artifacts would show it.
#[test]
fn the_figure_grids_are_pinned() {
    use reasoned_scheduler::campaign::cell::fnv1a64;
    use reasoned_scheduler::experiments::figures::{ablation, fig3, fig4, fig7, fig8};
    use reasoned_scheduler::experiments::ExperimentOptions;

    let grids: [fn(&ExperimentOptions) -> Vec<CellSpec>; 5] = [
        fig3::cells,
        fig4::cells,
        fig7::cells,
        fig8::cells,
        ablation::cells,
    ];
    let opts = ExperimentOptions::default();
    let cells: Vec<CellSpec> = grids.iter().flat_map(|grid| grid(&opts)).collect();
    let coordinates: String = cells
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}|{}\n",
                c.policy, c.scenario, c.jobs, c.workload_seed, c.policy_seed
            )
        })
        .collect();
    assert_eq!(cells.len(), 98);
    assert_eq!(
        fnv1a64(coordinates.as_bytes()),
        11_102_353_358_683_809_865,
        "the figure grids' coordinates"
    );
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
    let last_end = outcome
        .records
        .iter()
        .map(|r| r.end)
        .max()
        .expect("non-empty");
    let makespan = last_end.since(first_submit).as_secs_f64();
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

    fn complete_prompt(
        &mut self,
        prompt: &reasoned_scheduler::llm::backend::Prompt<'_>,
    ) -> Result<reasoned_scheduler::llm::Completion, reasoned_scheduler::llm::LlmError> {
        self.0.borrow_mut().complete_prompt(prompt)
    }
}

/// Work, not seconds. Every prompt carries the whole decision history
/// again, lent by the scratchpad under its stream key, and the simulated
/// model reads line by line only what it has not read before: the head
/// sections, the history lines pushed since its last call, the objectives
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
    assert_eq!((received, read), (57_930_905, 2_630_851), "exact counts");
    assert!(
        read * 100 <= received * 5,
        "read {read} of {received} bytes"
    );
    assert_eq!(run(&mut claude(), &long), (received, read), "exact counts");

    // The same model behind the same agent on a new run: `reset` clears
    // the scratchpad, which starts a new stream, so nothing the model has
    // read is taken for what follows. That costs what it costs a model
    // that has read nothing. (The used model's sampler is further along,
    // so the two runs differ by a few words.)
    let next = named_workload(scenario_names::BURSTY_IDLE, 100, 8).jobs;
    let (received_next, read_next) = run(&mut agent, &next);
    let (received_fresh, read_fresh) = run(&mut claude(), &next);
    assert_eq!((received_next, read_next), (2_132_276, 369_026));
    assert_eq!((received_fresh, read_fresh), (2_132_059, 369_010));
}

/// The agent on the classed `mixed_256` machine, where a waiting job's
/// prompt line carries its request but a running job's carries the
/// capacity its hosting classes were debited, and where the model's
/// availability arithmetic over the flat totals can propose a start no class
/// can host — the invalid actions the kernel refuses. The refusals, the
/// prompt bytes and the schedule are pinned exactly: a change to the
/// prompt's bytes or to what the model makes of them shows here first.
#[test]
fn the_agent_on_a_classed_machine_is_pinned() {
    use std::fmt::Write as _;
    let cluster = ClusterConfig::mixed_256();
    let jobs = named_workload(scenario_names::GPU_SKEWED_HETMIX, 200, 7).jobs;
    let model = SharedModel(std::rc::Rc::new(SimulatedLlm::claude37(7).into()));
    let mut policy = LlmSchedulingPolicy::new(Box::new(model.clone()));
    let outcome =
        run_simulation(cluster, &jobs, &mut policy, &SimOptions::default()).expect("completes");
    assert_eq!(outcome.records.len(), jobs.len());
    let mut schedule = String::new();
    for r in &outcome.records {
        let _ = write!(
            schedule,
            "{}@{}-{};",
            r.spec.id,
            r.start.as_millis(),
            r.end.as_millis()
        );
    }
    let stats = outcome.stats;
    let counts = (policy.calls().len(), stats.placements, stats.rejections);
    let fnv = schedule
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(counts, (1371, 200, 1170), "calls, placements, refusals");
    let bytes = model.0.borrow().prompt_bytes();
    assert_eq!(bytes, (337_355_843, 7_363_848), "bytes received, read");
    let end = outcome.end_time.as_millis();
    assert_eq!(
        (fnv, end),
        (993_955_105_344_767_428, 26_436_002),
        "schedule"
    );
}

/// A persona's fields are public and `Persona::custom` takes any weights:
/// a NaN weight or temperature ranks the scores it touches last instead of
/// panicking the sort, and every action the model takes still goes through
/// the kernel's validation.
#[test]
fn a_nan_weight_or_temperature_completes_the_run() {
    use reasoned_scheduler::llm::persona::{ObjectiveWeights, Persona};
    let cluster = ClusterConfig::paper_default();
    let jobs = named_workload(scenario_names::HETEROGENEOUS_MIX, 20, 7).jobs;
    let weights = ObjectiveWeights {
        fairness: f64::NAN,
        ..ObjectiveWeights::balanced()
    };
    let mut hot = Persona::claude37();
    hot.temperature = f64::NAN;
    for persona in [Persona::custom("nan-fairness", weights), hot] {
        let mut policy = LlmSchedulingPolicy::new(Box::new(SimulatedLlm::new(persona, 7)));
        let outcome =
            run_simulation(cluster, &jobs, &mut policy, &SimOptions::default()).expect("completes");
        assert_eq!(outcome.records.len(), jobs.len());
        assert_schedule_feasible(&outcome, cluster);
        assert!(policy.calls().iter().all(|call| call.accepted.is_some()));
        assert_eq!(policy.calls().len(), outcome.stats.queries);
    }
}
