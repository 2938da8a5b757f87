//! The Polaris real-trace substrate (paper §5).
//!
//! The paper evaluates on 100 jobs from the Polaris supercomputer's public
//! November-2024 job-history log (560 nodes, 512 GB each). That production
//! log is not redistributable, so this module provides:
//!
//! 1. [`synthesize_raw_trace`] — a generator calibrated to the published
//!    description: heavy-tailed node counts, log-normal durations, bursty
//!    submissions, a skewed user population, and ~12 % failed jobs
//!    (`EXIT_STATUS = -1`), emitted *unsorted* as a mid-stream sample would
//!    be.
//! 2. [`preprocess`] — the paper's exact preprocessing pipeline: drop
//!    failed jobs, sort by submission, normalize timestamps to the earliest
//!    submission, factorize user/group labels to anonymous ids, keep node
//!    counts as-is and derive memory as 512 GB × nodes.
//! 3. CSV round-trip ([`raw_to_csv`] / [`raw_from_csv`]) so a real exported
//!    log with the same columns can be dropped in unchanged.
//!
//! For archive-scale (1M-row) streams in SWF form — calibrated to the
//! same machine but carrying archive noise for the streaming parser —
//! see [`crate::synth`] and the `polaris_synth:<n>` scenario name.

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_simkit::csv::{self, Table};

use crate::error::WorkloadError;
use crate::trace::Factorizer;
use rsched_simkit::dist::{Categorical, Clamped, LogNormal, Sample, Uniform};
use rsched_simkit::rng::{Rng, RngExt, SeedTree};
use rsched_simkit::{SimDuration, SimTime};

/// GB of memory per Polaris node.
pub const POLARIS_GB_PER_NODE: u64 = 512;
/// Polaris compute node count.
pub const POLARIS_NODES: u32 = 560;
/// Unix timestamp of 2024-11-01 00:00:00 UTC — the synthetic log's origin.
pub const NOVEMBER_2024_EPOCH: i64 = 1_730_419_200;

/// One row of a raw (pre-preprocessing) Polaris-style job log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolarisRawJob {
    /// Opaque job name from the log.
    pub job_name: String,
    /// Raw user login.
    pub user: String,
    /// Raw group name.
    pub group: String,
    /// Submission timestamp (unix seconds).
    pub queued_ts: i64,
    /// Start timestamp (unix seconds).
    pub start_ts: i64,
    /// End timestamp (unix seconds).
    pub end_ts: i64,
    /// Nodes used.
    pub nodes: u32,
    /// Requested walltime, seconds.
    pub walltime_secs: u64,
    /// Exit status; `-1` marks a failed job (dropped by preprocessing).
    pub exit_status: i32,
}

impl PolarisRawJob {
    /// Actual runtime in seconds, saturating: the timestamps are log
    /// input and may lie a whole `i64` apart.
    pub fn runtime_secs(&self) -> i64 {
        self.end_ts.saturating_sub(self.start_ts)
    }
}

/// Synthesize a raw Polaris-like log with about `n` usable (non-failed)
/// jobs. Rows are emitted in a scrambled order, as a mid-stream sample of a
/// production log would be.
pub fn synthesize_raw_trace(n: usize, seed: u64) -> Vec<PolarisRawJob> {
    let tree = SeedTree::new(seed).subtree("polaris", 0);
    let mut rng = tree.rng("jobs", 0);

    // ~12 % failures → oversample so that `n` completed jobs survive.
    let total = (n as f64 / 0.85).ceil() as usize + 5;

    let user_pool: Vec<String> = (0..15).map(|i| format!("plrs_user{i:02}")).collect();
    let group_pool: Vec<String> = (0..5).map(|i| format!("alloc_{i}")).collect();
    let user_weights = Categorical::new(
        &(1..=user_pool.len())
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
    let mut rows: Vec<PolarisRawJob> = (0..total)
        .map(|i| {
            submit += gap.sample(&mut rng) as i64;
            let class = node_classes[node_weights.sample_index(&mut rng)];
            let nodes = rng.gen_range_inclusive(class.0 as u64, class.1 as u64) as u32;
            let runtime = duration.sample(&mut rng) as i64;
            // Requested walltime: padded runtime, rounded up to 30 min.
            let padded = (runtime as f64 * Uniform::new(1.1, 2.5).sample(&mut rng)) as u64;
            let walltime = padded.div_ceil(1800) * 1800;
            let queue_delay = (Uniform::new(0.0, 3600.0).sample(&mut rng)) as i64;
            let start = submit + queue_delay;
            let failed = rng.gen_bool(0.12);
            PolarisRawJob {
                job_name: format!("plrs_job_{i:05}"),
                user: user_pool[user_weights.sample_index(&mut rng)].clone(),
                group: group_pool[rng.gen_index(group_pool.len())].clone(),
                queued_ts: submit,
                start_ts: start,
                end_ts: start + runtime.max(60),
                nodes,
                walltime_secs: walltime.max(1800),
                exit_status: if failed { -1 } else { 0 },
            }
        })
        .collect();

    // Mid-stream sample: scramble row order.
    rng.shuffle(&mut rows);
    rows
}

/// The paper's preprocessing pipeline (§5). Returns at most `limit`
/// [`JobSpec`]s ready for the simulator.
pub fn preprocess(raw: &[PolarisRawJob], limit: usize) -> Vec<JobSpec> {
    // 1. Filter failed jobs.
    let mut ok: Vec<&PolarisRawJob> = raw.iter().filter(|r| r.exit_status != -1).collect();
    // 2. Sort by submission time.
    ok.sort_by_key(|r| (r.queued_ts, r.job_name.clone()));
    // 3. Contiguous segment of completed jobs.
    ok.truncate(limit);
    if ok.is_empty() {
        return Vec::new();
    }
    // 4. Normalize timestamps to the earliest submission.
    let origin = ok[0].queued_ts;
    // 5. Factorize users and groups in first-appearance order.
    let mut users = Factorizer::new();
    let mut groups = Factorizer::new();
    ok.iter()
        .enumerate()
        .map(|(i, r)| {
            let user = users.id(&r.user);
            let group = groups.id(&r.group);
            JobSpec::new(
                i as u32,
                user,
                SimTime::from_secs(r.queued_ts.saturating_sub(origin).max(0) as u64),
                SimDuration::from_secs(r.runtime_secs().max(1) as u64),
                r.nodes,
                r.nodes as u64 * POLARIS_GB_PER_NODE,
            )
            .with_group(group)
            .with_walltime(SimDuration::from_secs(r.walltime_secs))
        })
        .collect()
}

/// The canonical column set of a raw Polaris log export.
const RAW_HEADER: [&str; 9] = [
    "JOB_NAME",
    "USER",
    "GROUP",
    "QUEUED_TIMESTAMP",
    "START_TIMESTAMP",
    "END_TIMESTAMP",
    "NODES_USED",
    "WALLTIME_SECONDS",
    "EXIT_STATUS",
];

/// Serialize a raw log to CSV.
pub fn raw_to_csv(rows: &[PolarisRawJob]) -> String {
    let mut out: Vec<Vec<String>> = Vec::with_capacity(rows.len() + 1);
    out.push(RAW_HEADER.iter().map(|s| s.to_string()).collect());
    for r in rows {
        out.push(vec![
            r.job_name.clone(),
            r.user.clone(),
            r.group.clone(),
            r.queued_ts.to_string(),
            r.start_ts.to_string(),
            r.end_ts.to_string(),
            r.nodes.to_string(),
            r.walltime_secs.to_string(),
            r.exit_status.to_string(),
        ]);
    }
    csv::write_rows(out)
}

/// Parse a raw log from CSV (column names as in [`raw_to_csv`]).
pub fn raw_from_csv(text: &str) -> Result<Vec<PolarisRawJob>, WorkloadError> {
    let table = Table::parse(text).map_err(|e| WorkloadError::Parse {
        location: "csv".to_string(),
        message: e.to_string(),
    })?;
    for col in RAW_HEADER {
        if table.column(col).is_none() {
            return Err(WorkloadError::Parse {
                location: "header".to_string(),
                message: format!("missing column `{col}`"),
            });
        }
    }
    (0..table.rows.len())
        .map(|row| {
            let get = |name: &str| table.get(row, name).expect("validated column");
            let int = |name: &str| -> Result<i64, WorkloadError> {
                get(name).parse::<i64>().map_err(|e| WorkloadError::Parse {
                    location: format!("row {row}, column {name}"),
                    message: e.to_string(),
                })
            };
            Ok(PolarisRawJob {
                job_name: get("JOB_NAME").to_string(),
                user: get("USER").to_string(),
                group: get("GROUP").to_string(),
                queued_ts: int("QUEUED_TIMESTAMP")?,
                start_ts: int("START_TIMESTAMP")?,
                end_ts: int("END_TIMESTAMP")?,
                nodes: int("NODES_USED")? as u32,
                walltime_secs: int("WALLTIME_SECONDS")? as u64,
                exit_status: int("EXIT_STATUS")? as i32,
            })
        })
        .collect()
}

/// The full §5 pipeline: synthesize a raw log, preprocess it, return `n`
/// simulator-ready jobs (all feasible on the Polaris configuration).
pub fn polaris_workload(n: usize, seed: u64) -> Vec<JobSpec> {
    let raw = synthesize_raw_trace(n, seed);
    let jobs = preprocess(&raw, n);
    debug_assert!(jobs
        .iter()
        .all(|j| j.nodes <= ClusterConfig::polaris().nodes
            && j.memory_gb <= ClusterConfig::polaris().memory_gb));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_log_has_failures_and_scramble() {
        let raw = synthesize_raw_trace(100, 3);
        assert!(raw.len() >= 100);
        let failed = raw.iter().filter(|r| r.exit_status == -1).count();
        assert!(failed > 0, "some failures present");
        let sorted = {
            let mut s: Vec<i64> = raw.iter().map(|r| r.queued_ts).collect();
            s.sort_unstable();
            s
        };
        let actual: Vec<i64> = raw.iter().map(|r| r.queued_ts).collect();
        assert_ne!(sorted, actual, "raw log should be unsorted (mid-stream)");
    }

    #[test]
    fn preprocess_drops_failed_and_sorts() {
        let raw = synthesize_raw_trace(100, 3);
        let jobs = preprocess(&raw, 100);
        assert_eq!(jobs.len(), 100);
        assert_eq!(jobs[0].submit, SimTime::ZERO, "normalized to origin");
        for pair in jobs.windows(2) {
            assert!(pair[0].submit <= pair[1].submit, "sorted by submission");
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i, "re-identified sequentially");
            assert_eq!(j.memory_gb, j.nodes as u64 * POLARIS_GB_PER_NODE);
            assert!(j.duration >= SimDuration::from_secs(1));
        }
    }

    #[test]
    fn queued_timestamps_a_whole_i64_apart_saturate() {
        let mut raw = synthesize_raw_trace(2, 3);
        raw.retain(|r| r.exit_status != -1);
        raw[0].queued_ts = i64::MIN;
        raw[1].queued_ts = 1;
        let jobs = preprocess(&raw[..2], 2);
        assert_eq!(jobs[0].submit, SimTime::ZERO);
        assert_eq!(jobs[1].submit, SimTime::from_secs(i64::MAX as u64));
    }

    /// ... and so do a start and an end: a row ending at `i64::MAX` that
    /// started at `-1` ran for the longest time there is, not for the
    /// negative one the wrapped difference is.
    #[test]
    fn start_and_end_timestamps_a_whole_i64_apart_saturate() {
        let mut raw = synthesize_raw_trace(1, 3);
        raw.retain(|r| r.exit_status != -1);
        raw[0].start_ts = -1;
        raw[0].end_ts = i64::MAX;
        assert_eq!(raw[0].runtime_secs(), i64::MAX);
        let jobs = preprocess(&raw[..1], 1);
        assert_eq!(jobs[0].duration, SimDuration::MAX);
    }

    #[test]
    fn preprocess_factorizes_users_in_first_appearance_order() {
        let mut raw = synthesize_raw_trace(50, 9);
        raw.sort_by_key(|r| r.queued_ts);
        let jobs = preprocess(&raw, 50);
        // First job's user must be id 0, and ids must be dense.
        assert_eq!(jobs[0].user.0, 0);
        let mut ids: Vec<u32> = jobs.iter().map(|j| j.user.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn preprocess_respects_limit_and_empty() {
        let raw = synthesize_raw_trace(50, 1);
        assert_eq!(preprocess(&raw, 10).len(), 10);
        assert!(preprocess(&[], 10).is_empty());
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
    fn raw_csv_roundtrip() {
        let raw = synthesize_raw_trace(20, 11);
        let text = raw_to_csv(&raw);
        let back = raw_from_csv(&text).expect("parse");
        assert_eq!(back, raw);
    }

    #[test]
    fn raw_csv_missing_column() {
        assert!(raw_from_csv("JOB_NAME,USER\nx,y\n")
            .unwrap_err()
            .to_string()
            .contains("missing column"));
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
