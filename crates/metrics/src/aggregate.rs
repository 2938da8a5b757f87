//! Multi-run aggregation for the robustness study (paper §4, Figure 7).
//!
//! Figure 7 box-plots each normalized metric over five independent runs per
//! scheduler; [`MetricDistributions`] collects those samples and exposes the
//! box-plot statistics.

use rsched_simkit::stats::{BoxplotStats, RunningStats};

use crate::normalize::NormalizedReport;
use crate::report::Metric;

/// Per-metric sample collections across repeated runs.
#[derive(Debug, Clone, Default)]
pub struct MetricDistributions {
    samples: [Vec<f64>; 8],
}

impl MetricDistributions {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one run's normalized report; omitted metrics are skipped.
    pub fn push_normalized(&mut self, report: &NormalizedReport) {
        for (i, metric) in Metric::all().into_iter().enumerate() {
            if let Some(v) = report.get(metric) {
                self.samples[i].push(v);
            }
        }
    }

    /// Samples recorded for one metric.
    pub fn samples(&self, metric: Metric) -> &[f64] {
        // `Metric` declares its variants in `Metric::all`'s order.
        &self.samples[metric as usize]
    }

    /// Box-plot statistics for one metric; `None` if no samples.
    pub fn boxplot(&self, metric: Metric) -> Option<BoxplotStats> {
        BoxplotStats::from_data(self.samples(metric))
    }

    /// Welford summary for one metric.
    pub fn stats(&self, metric: Metric) -> RunningStats {
        self.samples(metric).iter().copied().collect()
    }

    /// Number of runs recorded for one metric.
    pub fn len(&self, metric: Metric) -> usize {
        self.samples(metric).len()
    }

    /// `true` if no samples at all were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.iter().all(|s| s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_against;
    use crate::report::MetricsReport;

    fn report(makespan: f64, wait: f64) -> MetricsReport {
        MetricsReport {
            makespan_secs: makespan,
            avg_wait_secs: wait,
            avg_turnaround_secs: 2.0,
            throughput: 3.0,
            node_utilization: 0.4,
            memory_utilization: 0.5,
            wait_fairness: 0.6,
            user_fairness: 0.7,
        }
    }

    #[test]
    fn collects_per_metric_samples() {
        let mut d = MetricDistributions::new();
        let baseline = report(1.0, 1.0);
        for m in [100.0, 110.0, 90.0, 105.0, 95.0] {
            d.push_normalized(&normalize_against(&report(m, 1.0), &baseline));
        }
        assert_eq!(d.len(Metric::Makespan), 5);
        let b = d.boxplot(Metric::Makespan).expect("non-empty");
        assert_eq!(b.median, 100.0);
        assert_eq!(b.min, 90.0);
        assert_eq!(b.max, 110.0);
        let s = d.stats(Metric::Makespan);
        assert!((s.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_omissions_are_skipped() {
        let mut d = MetricDistributions::new();
        // A zero baseline wait leaves AvgWait undefined.
        d.push_normalized(&normalize_against(&report(1.0, 5.0), &report(1.0, 0.0)));
        assert_eq!(d.len(Metric::AvgWait), 0);
        assert_eq!(d.len(Metric::Makespan), 1);
        assert!(d.boxplot(Metric::AvgWait).is_none());
    }

    #[test]
    fn empty_collection() {
        let d = MetricDistributions::new();
        assert!(d.is_empty());
        assert_eq!(d.stats(Metric::Throughput).count(), 0);
    }
}
