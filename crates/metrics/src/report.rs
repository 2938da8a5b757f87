//! The eight-metric report computed for every run.

use std::fmt;

use rsched_cluster::{ClusterConfig, JobRecord};

use crate::fairness::{user_fairness, wait_fairness};
use crate::objectives::{
    average_turnaround_secs, average_wait_secs, makespan, memory_utilization, node_utilization,
    throughput_jobs_per_sec,
};

/// One of the paper's evaluation metrics, in the order of Figure 7's
/// panels. The variants are declared in [`Metric::all`]'s order, so
/// `metric as usize` is a metric's index there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Total schedule length (lower is better).
    Makespan,
    /// Mean queued wait (lower is better).
    AvgWait,
    /// Mean turnaround (lower is better).
    AvgTurnaround,
    /// Jobs per unit time (higher is better).
    Throughput,
    /// Node occupancy fraction (higher is better).
    NodeUtilization,
    /// Memory occupancy fraction (higher is better).
    MemoryUtilization,
    /// Jain's index over per-job waits (higher is better).
    WaitFairness,
    /// Jain's index over per-user mean waits (higher is better).
    UserFairness,
}

impl Metric {
    /// All metrics in presentation order.
    pub fn all() -> [Metric; 8] {
        [
            Metric::Makespan,
            Metric::AvgWait,
            Metric::AvgTurnaround,
            Metric::Throughput,
            Metric::NodeUtilization,
            Metric::MemoryUtilization,
            Metric::WaitFairness,
            Metric::UserFairness,
        ]
    }

    /// `true` if larger values are better ("positive metrics" in the
    /// paper's Figure 3 caption).
    pub fn higher_is_better(&self) -> bool {
        matches!(
            self,
            Metric::Throughput
                | Metric::NodeUtilization
                | Metric::MemoryUtilization
                | Metric::WaitFairness
                | Metric::UserFairness
        )
    }

    /// Stable machine-readable key (lower-case, `_`-separated) — the
    /// spelling used in JSON artifacts, CSV headers, and campaign specs.
    pub fn key(&self) -> &'static str {
        match self {
            Metric::Makespan => "makespan",
            Metric::AvgWait => "avg_wait",
            Metric::AvgTurnaround => "avg_turnaround",
            Metric::Throughput => "throughput",
            Metric::NodeUtilization => "node_util",
            Metric::MemoryUtilization => "mem_util",
            Metric::WaitFairness => "wait_fairness",
            Metric::UserFairness => "user_fairness",
        }
    }

    /// Resolve a [`key`](Metric::key) back to its metric. Matching is
    /// case-insensitive and accepts `-` for `_`, plus the long
    /// `node_utilization`/`memory_utilization` spellings.
    pub fn from_key(key: &str) -> Option<Metric> {
        let canon = key.trim().to_ascii_lowercase().replace('-', "_");
        match canon.as_str() {
            "makespan" => Some(Metric::Makespan),
            "avg_wait" => Some(Metric::AvgWait),
            "avg_turnaround" => Some(Metric::AvgTurnaround),
            "throughput" => Some(Metric::Throughput),
            "node_util" | "node_utilization" => Some(Metric::NodeUtilization),
            "mem_util" | "memory_utilization" => Some(Metric::MemoryUtilization),
            "wait_fairness" => Some(Metric::WaitFairness),
            "user_fairness" => Some(Metric::UserFairness),
            _ => None,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Makespan => "Makespan",
            Metric::AvgWait => "Avg Wait",
            Metric::AvgTurnaround => "Avg Turnaround",
            Metric::Throughput => "Throughput",
            Metric::NodeUtilization => "Node Util",
            Metric::MemoryUtilization => "Mem Util",
            Metric::WaitFairness => "Wait Fairness",
            Metric::UserFairness => "User Fairness",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The eight §3.2 objectives evaluated on one completed schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Makespan in seconds.
    pub makespan_secs: f64,
    /// Mean wait in seconds.
    pub avg_wait_secs: f64,
    /// Mean turnaround in seconds.
    pub avg_turnaround_secs: f64,
    /// Jobs per second.
    pub throughput: f64,
    /// Node occupancy in `[0, 1]`.
    pub node_utilization: f64,
    /// Memory occupancy in `[0, 1]`.
    pub memory_utilization: f64,
    /// Jain's index over per-job waits.
    pub wait_fairness: f64,
    /// Jain's index over per-user mean waits.
    pub user_fairness: f64,
}

impl MetricsReport {
    /// Compute every metric from completed records.
    pub fn compute(records: &[JobRecord], config: ClusterConfig) -> Self {
        MetricsReport {
            makespan_secs: makespan(records).as_secs_f64(),
            avg_wait_secs: average_wait_secs(records),
            avg_turnaround_secs: average_turnaround_secs(records),
            throughput: throughput_jobs_per_sec(records),
            node_utilization: node_utilization(records, config),
            memory_utilization: memory_utilization(records, config),
            wait_fairness: wait_fairness(records),
            user_fairness: user_fairness(records),
        }
    }

    /// Value of one metric.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Makespan => self.makespan_secs,
            Metric::AvgWait => self.avg_wait_secs,
            Metric::AvgTurnaround => self.avg_turnaround_secs,
            Metric::Throughput => self.throughput,
            Metric::NodeUtilization => self.node_utilization,
            Metric::MemoryUtilization => self.memory_utilization,
            Metric::WaitFairness => self.wait_fairness,
            Metric::UserFairness => self.user_fairness,
        }
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "makespan      : {:>12.1} s", self.makespan_secs)?;
        writeln!(f, "avg wait      : {:>12.1} s", self.avg_wait_secs)?;
        writeln!(f, "avg turnaround: {:>12.1} s", self.avg_turnaround_secs)?;
        writeln!(f, "throughput    : {:>12.5} jobs/s", self.throughput)?;
        writeln!(f, "node util     : {:>12.3}", self.node_utilization)?;
        writeln!(f, "memory util   : {:>12.3}", self.memory_utilization)?;
        writeln!(f, "wait fairness : {:>12.3}", self.wait_fairness)?;
        write!(f, "user fairness : {:>12.3}", self.user_fairness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::JobSpec;
    use rsched_simkit::{SimDuration, SimTime};

    fn simple_records() -> Vec<JobRecord> {
        vec![
            JobRecord::new(
                JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(100), 4, 32),
                SimTime::ZERO,
            ),
            JobRecord::new(
                JobSpec::new(2, 1, SimTime::ZERO, SimDuration::from_secs(100), 4, 32),
                SimTime::from_secs(100),
            ),
        ]
    }

    #[test]
    fn compute_populates_all_metrics() {
        let r = MetricsReport::compute(&simple_records(), ClusterConfig::new(8, 64));
        assert!((r.makespan_secs - 200.0).abs() < 1e-9);
        assert!((r.avg_wait_secs - 50.0).abs() < 1e-9);
        assert!((r.avg_turnaround_secs - 150.0).abs() < 1e-9);
        assert!((r.throughput - 0.01).abs() < 1e-12);
        assert!((r.node_utilization - 0.5).abs() < 1e-9);
        assert!((r.memory_utilization - 0.5).abs() < 1e-9);
        // waits are 0 and 100 → Jain = (100)²/(2·10000) = 0.5
        assert!((r.wait_fairness - 0.5).abs() < 1e-9);
        assert!((r.user_fairness - 0.5).abs() < 1e-9);
    }

    #[test]
    fn get_matches_fields_for_every_metric() {
        let r = MetricsReport::compute(&simple_records(), ClusterConfig::new(8, 64));
        for m in Metric::all() {
            let v = r.get(m);
            assert!(v.is_finite());
        }
        assert_eq!(r.get(Metric::Makespan), r.makespan_secs);
        assert_eq!(r.get(Metric::UserFairness), r.user_fairness);
    }

    #[test]
    fn a_metric_as_usize_is_its_index_in_all() {
        for (index, m) in Metric::all().into_iter().enumerate() {
            assert_eq!(m as usize, index, "{m:?}");
        }
    }

    #[test]
    fn polarity_classification() {
        assert!(!Metric::Makespan.higher_is_better());
        assert!(!Metric::AvgWait.higher_is_better());
        assert!(!Metric::AvgTurnaround.higher_is_better());
        assert!(Metric::Throughput.higher_is_better());
        assert!(Metric::NodeUtilization.higher_is_better());
        assert!(Metric::WaitFairness.higher_is_better());
    }

    #[test]
    fn keys_round_trip_for_every_metric() {
        for m in Metric::all() {
            assert_eq!(Metric::from_key(m.key()), Some(m), "{m:?}");
            // Keys match the historical artifact spelling.
            assert_eq!(m.key(), m.name().replace(' ', "_").to_lowercase());
            // Hyphens and case are forgiven.
            assert_eq!(
                Metric::from_key(&m.key().to_uppercase().replace('_', "-")),
                Some(m)
            );
        }
        assert_eq!(
            Metric::from_key("node_utilization"),
            Some(Metric::NodeUtilization)
        );
        assert_eq!(Metric::from_key("power_draw"), None);
    }

    #[test]
    fn display_contains_every_metric() {
        let r = MetricsReport::compute(&simple_records(), ClusterConfig::new(8, 64));
        let text = r.to_string();
        for label in [
            "makespan",
            "avg wait",
            "avg turnaround",
            "throughput",
            "node util",
            "memory util",
            "wait fairness",
            "user fairness",
        ] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
    }
}
