//! Closed-form objective computations (paper §3.2).

use rsched_cluster::{ClusterConfig, JobRecord};
use rsched_simkit::stats::KahanSum;
use rsched_simkit::SimDuration;

/// Makespan: elapsed time from the earliest job submission to the
/// completion of the last job (`max_j (x_j + d_j) − min_j s_j`).
pub fn makespan(records: &[JobRecord]) -> SimDuration {
    let first_submit = records.iter().map(|r| r.spec.submit).min();
    let last_end = records.iter().map(|r| r.end).max();
    let (Some(first_submit), Some(last_end)) = (first_submit, last_end) else {
        return SimDuration::ZERO;
    };
    last_end.since(first_submit)
}

/// Mean queued wait time in seconds (`w_j = x_j − s_j`).
pub(crate) fn average_wait_secs(records: &[JobRecord]) -> f64 {
    mean(records.iter().map(|r| r.wait().as_secs_f64()))
}

/// Mean turnaround time in seconds (`x_j + d_j − s_j`).
pub(crate) fn average_turnaround_secs(records: &[JobRecord]) -> f64 {
    mean(records.iter().map(|r| r.turnaround().as_secs_f64()))
}

/// Throughput: jobs completed per second of active schedule
/// (`n / (last completion − first start)`).
pub(crate) fn throughput_jobs_per_sec(records: &[JobRecord]) -> f64 {
    let first_start = records.iter().map(|r| r.start).min();
    let last_end = records.iter().map(|r| r.end).max();
    let (Some(first_start), Some(last_end)) = (first_start, last_end) else {
        return 0.0;
    };
    let span = last_end.since(first_start).as_secs_f64();
    if span <= 0.0 {
        0.0
    } else {
        records.len() as f64 / span
    }
}

/// Node utilization: `Σ n_j·d_j / (C · makespan)`, in `[0, 1]` for feasible
/// schedules.
pub fn node_utilization(records: &[JobRecord], config: ClusterConfig) -> f64 {
    utilization(
        records.iter().map(|r| r.spec.node_seconds()),
        config.nodes as f64,
        records,
    )
}

/// Memory utilization: `Σ m_j·d_j / (M · makespan)`, in `[0, 1]` for
/// feasible schedules.
pub fn memory_utilization(records: &[JobRecord], config: ClusterConfig) -> f64 {
    utilization(
        records.iter().map(|r| r.spec.memory_gb_seconds()),
        config.memory_gb as f64,
        records,
    )
}

fn utilization(work: impl Iterator<Item = f64>, capacity: f64, records: &[JobRecord]) -> f64 {
    let span = makespan(records).as_secs_f64();
    if span <= 0.0 || capacity <= 0.0 {
        return 0.0;
    }
    let total: KahanSum = work.collect();
    total.total() / (capacity * span)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut count = 0usize;
    let mut sum = KahanSum::new();
    for v in values {
        sum.add(v);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum.total() / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::JobSpec;
    use rsched_simkit::SimTime;

    fn record(
        id: u32,
        user: u32,
        submit_s: u64,
        start_s: u64,
        dur_s: u64,
        nodes: u32,
        mem: u64,
    ) -> JobRecord {
        JobRecord::new(
            JobSpec::new(
                id,
                user,
                SimTime::from_secs(submit_s),
                SimDuration::from_secs(dur_s),
                nodes,
                mem,
            ),
            SimTime::from_secs(start_s),
        )
    }

    fn config() -> ClusterConfig {
        ClusterConfig::new(8, 64)
    }

    #[test]
    fn empty_records_are_all_zero() {
        assert_eq!(makespan(&[]), SimDuration::ZERO);
        assert_eq!(average_wait_secs(&[]), 0.0);
        assert_eq!(average_turnaround_secs(&[]), 0.0);
        assert_eq!(throughput_jobs_per_sec(&[]), 0.0);
        assert_eq!(node_utilization(&[], config()), 0.0);
    }

    #[test]
    fn makespan_spans_submit_to_last_end() {
        let records = vec![
            record(1, 0, 10, 20, 30, 1, 1), // ends at 50
            record(2, 0, 0, 60, 40, 1, 1),  // ends at 100
        ];
        // earliest submit 0, last end 100.
        assert_eq!(makespan(&records), SimDuration::from_secs(100));
    }

    #[test]
    fn wait_and_turnaround_means() {
        let records = vec![
            record(1, 0, 0, 10, 20, 1, 1), // wait 10, turnaround 30
            record(2, 0, 0, 30, 20, 1, 1), // wait 30, turnaround 50
        ];
        assert!((average_wait_secs(&records) - 20.0).abs() < 1e-12);
        assert!((average_turnaround_secs(&records) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_uses_first_start_to_last_end() {
        let records = vec![
            record(1, 0, 0, 10, 20, 1, 1), // start 10, end 30
            record(2, 0, 0, 20, 90, 1, 1), // start 20, end 110
        ];
        // 2 jobs over [10, 110] = 100 s → 0.02 jobs/s.
        assert!((throughput_jobs_per_sec(&records) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn utilization_full_machine_is_one() {
        // One job using the whole machine for the whole makespan.
        let records = vec![record(1, 0, 0, 0, 100, 8, 64)];
        assert!((node_utilization(&records, config()) - 1.0).abs() < 1e-12);
        assert!((memory_utilization(&records, config()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_half_machine() {
        let records = vec![record(1, 0, 0, 0, 100, 4, 16)];
        assert!((node_utilization(&records, config()) - 0.5).abs() < 1e-12);
        assert!((memory_utilization(&records, config()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_accounts_for_idle_time() {
        // Job runs 50 s on the full machine, but makespan is 100 s because
        // it started 50 s after submission.
        let records = vec![record(1, 0, 0, 50, 50, 8, 64)];
        assert!((node_utilization(&records, config()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_span_guard() {
        // Single zero-wait instantaneous-ish job: span == duration.
        let records = vec![record(1, 0, 5, 5, 10, 1, 1)];
        assert!(node_utilization(&records, config()) > 0.0);
        assert!(throughput_jobs_per_sec(&records) > 0.0);
    }
}
