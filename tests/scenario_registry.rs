//! The workload-side tentpole's contracts, tested from outside the
//! workspace:
//!
//! * every builtin scenario resolves by name through the
//!   `ScenarioRegistry`, case- and separator-insensitively;
//! * an SWF fixture trace runs end to end through `run_named`/`run_matrix`
//!   and lands in a per-cell JSON artifact;
//! * third-party scenarios register by name and flow through the
//!   experiments harness — no workspace code touched.

use std::path::Path;

use reasoned_scheduler::cluster::ClusterConfig;
use reasoned_scheduler::cpsolver::SolverConfig;
use reasoned_scheduler::experiments::artifact::{cells_to_json, write_cells_json};
use reasoned_scheduler::experiments::{run_matrix, run_named, scenario_jobs_named, MatrixCell};
use reasoned_scheduler::parallel::ThreadPool;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::workloads::names as scenario_names;

/// The bundled SWF fixture, resolved relative to this crate so the test is
/// cwd-independent.
fn fixture_path() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/sample.swf")
        .to_string_lossy()
        .into_owned()
}

fn quick_solver() -> SolverConfig {
    SolverConfig {
        sa_iterations_per_task: 40,
        sa_iteration_cap: 800,
        ..SolverConfig::default()
    }
}

#[test]
fn registry_names_cover_legacy_and_extended_scenarios() {
    for name in scenario_names::ALL_BUILTIN {
        assert!(scenario_builtins().contains(name), "{name}");
    }
    // Case- and separator-insensitive resolution.
    let a = scenario_builtins()
        .generate("Long-Job-Dominant", &ScenarioContext::new(10).with_seed(4))
        .expect("resolves");
    let b = scenario_builtins()
        .generate(
            scenario_names::LONG_JOB_DOMINANT,
            &ScenarioContext::new(10).with_seed(4),
        )
        .expect("resolves");
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn swf_trace_runs_end_to_end_through_run_named() {
    let scenario = format!("swf:{}", fixture_path());
    // The fixture has 26 lines; one failed + one cancelled are dropped.
    let jobs = scenario_jobs_named(&scenario, 0, 0).expect("fixture parses");
    assert_eq!(jobs.len(), 24);
    assert!(jobs.iter().all(|j| j.nodes <= 128));
    // The per-node demand fields ride along: job 25 requests 8 processors
    // on 4 allocated nodes with 2 GB per processor.
    let packed = jobs
        .iter()
        .find(|j| j.per_node.cpus == 2 && j.per_node.memory_gb == 2)
        .expect("per-node demand mapped from the trace");
    assert_eq!(packed.nodes, 4);

    let result = run_named(
        "fcfs",
        &jobs,
        ClusterConfig::paper_default(),
        1,
        &quick_solver(),
    )
    .expect("builtin policy");
    assert_eq!(result.scheduler, "FCFS");
    assert!(result.report.makespan_secs > 0.0);
}

#[test]
fn swf_trace_sweeps_through_run_matrix_into_cell_artifacts() {
    let scenario = format!("swf:{}", fixture_path());
    let pool = ThreadPool::new(2);
    let cells: Vec<MatrixCell> = ["FCFS", "SJF", "Claude-3.7"]
        .into_iter()
        .map(|scheduler| {
            MatrixCell::from_scenario(
                scheduler,
                &scenario,
                12,
                0,
                ClusterConfig::paper_default(),
                5,
                quick_solver(),
            )
            .expect("fixture parses")
        })
        .collect();
    assert!(cells.iter().all(|c| c.jobs.len() == 12));
    let results = run_matrix(cells, &pool);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(r.scenario.starts_with("swf:"), "{}", r.scenario);
        assert!(r.scenario.ends_with("/12"), "{}", r.scenario);
        assert!(r.report.makespan_secs > 0.0, "{}", r.scheduler);
    }
    assert!(results[2].overhead.is_some(), "LLM cell tracks overhead");

    // The sweep lands in a per-cell JSON artifact, scenario label intact.
    let json = cells_to_json("swf_smoke", &results);
    assert_eq!(json.matches("\"figure\":\"swf_smoke\"").count(), 3);
    assert!(json.contains("sample.swf"));

    let dir = std::env::temp_dir().join("rsched_swf_artifact_test");
    let path = write_cells_json(&dir, "swf_smoke", &results).expect("writable");
    let on_disk = std::fs::read_to_string(&path).expect("written");
    assert_eq!(on_disk, json);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn third_party_scenario_flows_through_the_harness() {
    // Registering a scenario is user code — no workspace changes — and the
    // result drives the same run path as the builtins.
    let mut registry = ScenarioRegistry::with_builtins();
    registry
        .register("two-tier", |ctx| {
            let base = scenario_builtins()
                .generate(
                    "resource_sparse",
                    &ScenarioContext::new(ctx.n)
                        .with_mode(ctx.mode)
                        .with_seed(ctx.seed),
                )
                .expect("builtin");
            Workload {
                scenario: "two-tier".to_string(),
                ..base
            }
        })
        .expect("fresh name");
    let workload = registry
        .generate("two-tier", &ScenarioContext::new(8).with_seed(3))
        .expect("registered");
    assert_eq!(workload.scenario, "two-tier");
    let result = run_named(
        "sjf",
        &workload.jobs,
        ClusterConfig::paper_default(),
        3,
        &quick_solver(),
    )
    .expect("builtin policy");
    assert_eq!(result.scheduler, "SJF");
}

#[test]
fn extended_scenarios_produce_valid_schedulable_workloads() {
    let cluster = ClusterConfig::paper_default();
    for name in scenario_names::EXTENDED_FIVE {
        let workload = scenario_builtins()
            .generate(name, &ScenarioContext::new(20).with_seed(11))
            .expect("builtin scenario");
        workload
            .validate(cluster)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let result = run_named("fcfs", &workload.jobs, cluster, 11, &quick_solver())
            .expect("builtin policy");
        assert!(result.report.makespan_secs > 0.0, "{name}");
    }
}

/// An archive row whose memory field cannot be multiplied by its
/// processor count ingests with the product saturated, and it is the
/// simulator that then refuses the job as larger than the machine.
#[test]
fn swf_row_with_an_unrepresentable_memory_field_is_refused_as_infeasible() {
    use reasoned_scheduler::sim::{validate_workload, SimError};
    use reasoned_scheduler::workloads::swf::parse_trace;

    let line = "1 0 12 1820 8 1650.5 9223372036854775807 8 3600 -1 1 11 2 3 1 1 -1 -1\n";
    let jobs = parse_trace(line).expect("parses").to_jobs(0);
    let refused = validate_workload(ClusterConfig::polaris(), &jobs);
    assert_eq!(
        refused,
        Err(SimError::InfeasibleJob {
            id: jobs[0].id,
            nodes: 8,
            memory_gb: u64::MAX.div_ceil(1024 * 1024),
        })
    );
}

/// ... and a row recording more processors than a `u32` holds ingests as
/// the widest job there is — not as the job its low 32 bits spell
/// (4294967297 used to become 1 node, which Polaris would have run).
#[test]
fn swf_row_with_an_unrepresentable_processor_count_is_refused_as_infeasible() {
    use reasoned_scheduler::sim::{validate_workload, SimError};
    use reasoned_scheduler::workloads::swf::parse_trace;

    let line = "1 0 12 1820 4294967297 1650.5 -1 4294967297 3600 -1 1 11 2 3 1 1 -1 -1\n";
    let jobs = parse_trace(line).expect("parses").to_jobs(0);
    let refused = validate_workload(ClusterConfig::polaris(), &jobs);
    assert_eq!(
        refused,
        Err(SimError::InfeasibleJob {
            id: jobs[0].id,
            nodes: u32::MAX,
            memory_gb: u64::from(u32::MAX) * 2,
        })
    );
}
