//! The **scale path**, end to end: synthesize a Polaris-sized SWF archive
//! on disk, stream it back through [`SwfReader`] (constant-memory,
//! line-at-a-time parse — the eager `SwfTrace::parse` is a `collect()`
//! over the same iterator), and replay it under FCFS with timings for
//! each stage.
//!
//! ```text
//! cargo run --release --example streaming_replay            # 100k jobs
//! cargo run --release --example streaming_replay -- 1000000 # the 1M tier
//! ```
//!
//! The replay runs on the 560-node / 280 TB Polaris machine the synthetic
//! stream is calibrated against (offered load ≈ 1.15× capacity, so queues
//! form and the scheduler has real decisions to make). The differential
//! harness in `tests/scale_equivalence.rs` pins this exact pipeline
//! bit-identical to the eager reference path.

use std::time::Instant;

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::workloads::swf::SwfReader;
use reasoned_scheduler::workloads::synth::polaris_synth_text;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|arg| arg.parse().expect("job count must be an integer"))
        .unwrap_or(100_000);
    let seed = 2025;

    // Stage 1: synthesize the archive and put it on disk, like a download
    // from the Parallel Workloads Archive would be.
    let started = Instant::now();
    let path = std::env::temp_dir().join(format!("streaming_replay_{}.swf", std::process::id()));
    std::fs::write(&path, polaris_synth_text(n, seed)).expect("archive written");
    let bytes = std::fs::metadata(&path).expect("archive exists").len();
    println!(
        "synthesized {} ({} rows, {:.1} MB) in {:.2?}",
        path.display(),
        n,
        bytes as f64 / 1e6,
        started.elapsed()
    );

    // Stage 2: stream it back. `SwfReader` holds one line at a time — the
    // archive never sits in memory as text.
    let started = Instant::now();
    let reader = SwfReader::open(path.to_str().expect("utf-8 temp path")).expect("archive opens");
    let jobs = reader.into_jobs(0).expect("archive streams");
    println!(
        "streamed {} usable jobs into JobSpecs in {:.2?}",
        jobs.len(),
        started.elapsed()
    );

    // Stage 3: the FCFS replay on the Polaris machine.
    let cluster = ClusterConfig::polaris();
    let registry = PolicyRegistry::with_builtins();
    let mut policy = registry
        .build("FCFS", &PolicyContext::new(&jobs, cluster).with_seed(seed))
        .expect("builtin policy");
    let started = Instant::now();
    let outcome = Simulation::new(cluster)
        .jobs(&jobs)
        .run(policy.as_mut())
        .expect("replay completes");
    let elapsed = started.elapsed();
    let report = MetricsReport::compute(&outcome.records, cluster);
    println!(
        "replayed {} jobs under FCFS in {:.2?} ({:.0} jobs/s)",
        outcome.records.len(),
        elapsed,
        outcome.records.len() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "makespan {:.0} s, avg wait {:.0} s, node utilization {:.3}",
        report.makespan_secs, report.avg_wait_secs, report.node_utilization
    );

    let _ = std::fs::remove_file(&path);
}
