//! A Figure 4-style scalability sweep through the public API: the
//! Heterogeneous Mix at growing queue sizes, FCFS vs the LLM agent,
//! showing how the performance gap opens with problem complexity.
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```
//!
//! Pass a job count (and optionally a scenario name) to switch to the
//! **archive-scale path** instead: the zero-copy kernel replays the
//! generated trace under the fast baselines at 10k–100k jobs — the scale
//! of a full SWF archive, three orders of magnitude past the paper's
//! 75-job ceiling:
//!
//! ```text
//! cargo run --release --example scalability_sweep -- 100000            # heavy-tail 100k
//! cargo run --release --example scalability_sweep -- 50000 diurnal_wave
//! ```

use reasoned_scheduler::metrics::TextTable;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::registry::names;

/// The archive-scale path: one `<scenario>_<n>` workload (default
/// `long_tail`, the heavy-tail distribution), the algorithmic baselines
/// only (an LLM round-trip per decision would dominate at this scale),
/// wall-clock and throughput reported alongside the schedule metrics.
fn run_scale_path(n: usize, scenario: &str) {
    let cluster = ClusterConfig::polaris();
    let workload = scenario_builtins()
        .generate(
            scenario,
            &ScenarioContext::new(n)
                .with_mode(ArrivalMode::Static)
                .with_seed(7),
        )
        .unwrap_or_else(|e| panic!("scenario `{scenario}`: {e}"));
    println!(
        "replaying {scenario}_{n} on {} nodes / {} GB (zero-copy kernel)\n",
        cluster.nodes, cluster.memory_gb
    );
    let mut table = TextTable::new([
        "scheduler",
        "jobs",
        "wall_s",
        "jobs_per_s",
        "queries",
        "makespan_s",
        "node_util",
    ]);
    let policies: [(&str, Box<dyn SchedulingPolicy>); 2] = [
        ("FCFS", Box::new(Fcfs::default())),
        ("SJF", Box::new(Sjf::default())),
    ];
    for (label, mut policy) in policies {
        let started = std::time::Instant::now();
        let outcome = Simulation::new(cluster)
            .jobs(&workload.jobs)
            .run(policy.as_mut())
            .expect("completes");
        let wall = started.elapsed().as_secs_f64();
        let report = MetricsReport::compute(&outcome.records, cluster);
        table.push_row([
            label.to_string(),
            outcome.records.len().to_string(),
            format!("{wall:.2}"),
            format!("{:.0}", outcome.records.len() as f64 / wall),
            outcome.stats.queries.to_string(),
            format!("{:.0}", report.makespan_secs),
            format!("{:.3}", report.node_utilization),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The paper's runs top out at 75 jobs; the borrowed-view kernel replays\n\
         a {n}-job archive per policy in the wall times above."
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(first) = args.next() {
        let Ok(n) = first.parse::<usize>() else {
            eprintln!("usage: scalability_sweep [<job_count> [<scenario>]]");
            eprintln!("  no args           — the Figure 4-style 10..60-job sweep");
            eprintln!("  100000            — archive-scale heavy-tail replay");
            eprintln!("  50000 diurnal_wave — archive-scale replay of a named scenario");
            std::process::exit(2);
        };
        let scenario = args.next().unwrap_or_else(|| "long_tail".to_string());
        run_scale_path(n, &scenario);
        return;
    }

    let cluster = ClusterConfig::paper_default();
    let registry = PolicyRegistry::with_builtins();

    let mut table = TextTable::new(["jobs", "scheduler", "makespan_s", "avg_wait_s", "node_util"]);

    for &n in &[10usize, 20, 40, 60] {
        let workload = scenario_builtins()
            .generate(
                "heterogeneous_mix",
                &ScenarioContext::new(n)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(31),
            )
            .expect("builtin scenario");
        let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(31);
        for name in [names::FCFS, names::CLAUDE37] {
            let mut policy = registry.build(name, &ctx).expect("builtin policy");
            let outcome = Simulation::new(cluster)
                .jobs(&workload.jobs)
                .run(policy.as_mut())
                .expect("completes");
            let report = MetricsReport::compute(&outcome.records, cluster);
            table.push_row([
                n.to_string(),
                outcome.policy_name.clone(),
                format!("{:.0}", report.makespan_secs),
                format!("{:.0}", report.avg_wait_secs),
                format!("{:.3}", report.node_utilization),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Small queues are indistinguishable; as contention grows the agent's packing\n\
         cuts makespan and wait."
    );
}
