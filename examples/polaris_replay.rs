//! The §5 real-trace pipeline end to end: synthesize a raw Polaris-style
//! job log as SWF rows (with failures, unsorted, absolute timestamps), run
//! them through the SWF conversion — the paper's preprocessing: filter,
//! sort, normalize, factorize, derive memory — and replay the jobs under
//! FCFS and the LLM agent on the 560-node machine. A real archive log
//! replays through the `swf:<path>` scenario name instead (see the
//! `swf_replay` example).
//!
//! ```text
//! cargo run --release --example polaris_replay
//! ```

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::registry::names;
use reasoned_scheduler::workloads::polaris;
use reasoned_scheduler::workloads::swf::jobs_from_rows;

fn main() {
    // 1. A raw log, as exported: includes failed jobs (SWF status 0) and
    //    unsorted submissions.
    let raw = polaris::synthesize_raw_trace(100, 2024);
    let failed = raw.iter().filter(|r| !r.is_usable()).count();
    println!(
        "raw log: {} rows ({} failed jobs will be dropped)",
        raw.len(),
        failed
    );

    // 2. The paper's preprocessing pipeline: the SWF conversion.
    let jobs = jobs_from_rows(raw, 100);
    println!(
        "preprocessed: {} jobs, users factorized to {} ids, memory = nodes × {} GB\n",
        jobs.len(),
        jobs.iter().map(|j| j.user.0).max().unwrap_or(0) + 1,
        polaris::POLARIS_GB_PER_NODE
    );

    // 3. Replay on the Polaris partition, policies by registry name.
    let cluster = ClusterConfig::polaris();
    let registry = PolicyRegistry::with_builtins();
    let ctx = PolicyContext::new(&jobs, cluster).with_seed(2024);
    for name in [names::FCFS, names::CLAUDE37] {
        let mut policy = registry.build(name, &ctx).expect("builtin policy");
        let outcome = Simulation::new(cluster)
            .jobs(&jobs)
            .run(policy.as_mut())
            .expect("trace completes");
        let report = MetricsReport::compute(&outcome.records, cluster);
        println!("=== {} ===\n{report}\n", outcome.policy_name);
    }
}
