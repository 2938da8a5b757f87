//! The Polaris real-trace substrate (paper §5).
//!
//! The paper evaluates on 100 jobs from the Polaris supercomputer's public
//! November-2024 job-history log (560 nodes, 512 GB each). That production
//! log is not redistributable, so this module provides:
//!
//! 1. [`synthesize_raw_trace`] — a generator calibrated to the published
//!    description: heavy-tailed node counts, log-normal durations, bursty
//!    submissions, a skewed user population, and ~12 % failed jobs
//!    (status 0), emitted as raw SWF rows in *unsorted* order, as a
//!    mid-stream sample would be, each recording 512 GB of memory per node.
//! 2. [`polaris_workload`] — those rows through the SWF conversion
//!    ([`jobs_from_rows`]), which is the paper's preprocessing pipeline:
//!    drop failed jobs, sort by submission, normalize timestamps to the
//!    earliest submission, factorize user/group labels to anonymous ids,
//!    keep node counts as-is and derive memory as 512 GB × nodes.
//!
//! For archive-scale (1M-row) streams in SWF form — calibrated to the
//! same machine but carrying archive noise for the streaming parser —
//! see [`crate::synth`] and the `polaris_synth:<n>` scenario name.

use rsched_cluster::{ClusterConfig, JobSpec};

use crate::swf::{jobs_from_rows, SwfJob};
use rsched_simkit::dist::{Categorical, Clamped, LogNormal, Sample, Uniform};
use rsched_simkit::rng::{Rng, RngExt, SeedTree};

/// GB of memory per Polaris node.
pub const POLARIS_GB_PER_NODE: u64 = 512;
/// Polaris compute node count.
pub(crate) const POLARIS_NODES: u32 = 560;
/// Unix timestamp of 2024-11-01 00:00:00 UTC — the synthetic log's origin.
const NOVEMBER_2024_EPOCH: i64 = 1_730_419_200;
/// Users in the synthetic log's population, Zipf-weighted.
const USERS: usize = 15;
/// Groups in the synthetic log's population, drawn uniformly.
const GROUPS: usize = 5;

/// Synthesize a raw Polaris-like log with about `n` usable (non-failed)
/// jobs, as SWF rows: job number `i`, unix submit times, user and group
/// as population indices. Rows are emitted in a scrambled order, as a
/// mid-stream sample of a production log would be.
pub fn synthesize_raw_trace(n: usize, seed: u64) -> Vec<SwfJob> {
    let tree = SeedTree::new(seed).subtree("polaris", 0);
    let mut rng = tree.rng("jobs", 0);

    // ~12 % failures → oversample so that `n` completed jobs survive.
    let total = (n as f64 / 0.85).ceil() as usize + 5;

    let user_weights = Categorical::new(
        &(1..=USERS)
            .map(|r| 1.0 / (r as f64).powf(1.3))
            .collect::<Vec<_>>(),
    );

    // Node counts: heavy-tailed, mostly small, occasionally near-machine.
    let node_classes: [(u32, u32); 8] = [
        (1, 1),
        (2, 2),
        (4, 8),
        (10, 24),
        (25, 64),
        (65, 128),
        (129, 256),
        (257, 512),
    ];
    let node_weights = Categorical::new(&[0.28, 0.18, 0.16, 0.13, 0.11, 0.08, 0.04, 0.02]);

    // Durations: log-normal, median 1 h, long tail to half a day. Together
    // with the submission rate below this puts offered load slightly above
    // machine capacity over the sampled window, so queueing — and therefore
    // scheduler differentiation — occurs, as in the paper's segment.
    let duration = Clamped::new(LogNormal::from_median(3600.0, 1.1), 300.0, 43_200.0);

    // Submissions: Poisson over roughly half a day.
    let gap = rsched_simkit::dist::Exponential::with_mean(300.0);

    let mut submit = NOVEMBER_2024_EPOCH;
    let mut rows: Vec<SwfJob> = (0..total)
        .map(|i| {
            submit += gap.sample(&mut rng) as i64;
            let class = node_classes[node_weights.sample_index(&mut rng)];
            let nodes = rng.gen_range_inclusive(class.0 as u64, class.1 as u64) as i64;
            let runtime = duration.sample(&mut rng) as i64;
            // Requested walltime: padded runtime, rounded up to 30 min.
            let padded = (runtime as f64 * Uniform::new(1.1, 2.5).sample(&mut rng)) as u64;
            let walltime = padded.div_ceil(1800) * 1800;
            let queue_delay = (Uniform::new(0.0, 3600.0).sample(&mut rng)) as i64;
            let failed = rng.gen_bool(0.12);
            SwfJob {
                job_id: i as i64,
                submit_secs: submit,
                wait_secs: queue_delay,
                run_secs: runtime.max(60),
                allocated_procs: nodes,
                avg_cpu_secs: -1.0,
                used_memory_kb: (POLARIS_GB_PER_NODE * 1024 * 1024) as i64,
                requested_procs: nodes,
                requested_secs: walltime.max(1800) as i64,
                requested_memory_kb: -1,
                status: if failed { 0 } else { 1 },
                user: user_weights.sample_index(&mut rng) as i64,
                group: rng.gen_index(GROUPS) as i64,
                executable: -1,
                queue: -1,
                partition: -1,
                preceding_job: -1,
                think_secs: -1,
            }
        })
        .collect();

    // Mid-stream sample: scramble row order.
    rng.shuffle(&mut rows);
    rows
}

/// The full §5 pipeline: synthesize a raw log and convert it, returning
/// `n` simulator-ready jobs (all feasible on the Polaris configuration).
pub fn polaris_workload(n: usize, seed: u64) -> Vec<JobSpec> {
    // `jobs_from_rows` reads a limit of 0 as "every row".
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs_from_rows(synthesize_raw_trace(n, seed), n);
    debug_assert!(jobs
        .iter()
        .all(|j| j.nodes <= ClusterConfig::polaris().nodes
            && j.memory_gb <= ClusterConfig::polaris().memory_gb));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::{SimDuration, SimTime};

    #[test]
    fn synthesized_log_has_failures_and_scramble() {
        let raw = synthesize_raw_trace(100, 3);
        assert!(raw.len() >= 100);
        let failed = raw.iter().filter(|r| !r.is_usable()).count();
        assert!(failed > 0, "some failures present");
        let sorted = {
            let mut s: Vec<i64> = raw.iter().map(|r| r.submit_secs).collect();
            s.sort_unstable();
            s
        };
        let actual: Vec<i64> = raw.iter().map(|r| r.submit_secs).collect();
        assert_ne!(sorted, actual, "raw log should be unsorted (mid-stream)");
    }

    #[test]
    fn workload_drops_failed_sorts_and_derives_memory() {
        let jobs = polaris_workload(100, 3);
        assert_eq!(jobs.len(), 100);
        assert_eq!(jobs[0].submit, SimTime::ZERO, "normalized to origin");
        for pair in jobs.windows(2) {
            assert!(pair[0].submit <= pair[1].submit, "sorted by submission");
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i, "re-identified sequentially");
            assert_eq!(j.memory_gb, j.nodes as u64 * POLARIS_GB_PER_NODE);
            assert_eq!(j.per_node.memory_gb, POLARIS_GB_PER_NODE);
            assert!(j.duration >= SimDuration::from_secs(1));
            assert!(j.walltime >= j.duration);
        }
        assert!(polaris_workload(0, 3).is_empty());
    }

    #[test]
    fn all_jobs_fit_polaris() {
        let jobs = polaris_workload(100, 7);
        let config = ClusterConfig::polaris();
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= config.nodes);
            assert!(j.memory_gb <= config.memory_gb);
        }
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(polaris_workload(50, 42), polaris_workload(50, 42));
        assert_ne!(polaris_workload(50, 42), polaris_workload(50, 43));
    }

    #[test]
    fn node_distribution_is_heavy_tailed() {
        let jobs = polaris_workload(300, 5);
        let small = jobs.iter().filter(|j| j.nodes <= 8).count();
        let big = jobs.iter().filter(|j| j.nodes >= 129).count();
        assert!(small > jobs.len() / 3, "mostly small jobs");
        assert!(big > 0, "large jobs occur");
    }
}
