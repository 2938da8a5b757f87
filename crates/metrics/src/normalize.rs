//! Normalization against the FCFS baseline (paper §3.5).
//!
//! Every figure reports metrics *relative to FCFS* (baseline = 1.0). Lower
//! is better for the negative metrics (makespan, wait, turnaround); higher
//! is better for the positive ones (utilization, throughput, fairness).
//! When both the value and the baseline are zero the ratio is undefined
//! (0/0) and the metric is **omitted** — exactly how the paper drops
//! average wait from Figure 3.

use crate::report::{Metric, MetricsReport};

/// A report divided by a baseline report, metric-wise. `None` entries are
/// omitted (0/0 or x/0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedReport {
    /// Ratios in `Metric::all()` order.
    values: [Option<f64>; 8],
}

/// Divide `report` by `baseline` metric-wise.
pub fn normalize_against(report: &MetricsReport, baseline: &MetricsReport) -> NormalizedReport {
    let mut values = [None; 8];
    for (i, metric) in Metric::all().into_iter().enumerate() {
        values[i] = ratio(report.get(metric), baseline.get(metric));
    }
    NormalizedReport { values }
}

fn ratio(value: f64, base: f64) -> Option<f64> {
    if base == 0.0 {
        // 0/0 and x/0 are both undefined; the paper omits such metrics.
        None
    } else {
        Some(value / base)
    }
}

impl NormalizedReport {
    /// The ratio for one metric; `None` if omitted.
    pub fn get(&self, metric: Metric) -> Option<f64> {
        // `Metric` declares its variants in `Metric::all`'s order.
        self.values[metric as usize]
    }

    /// `(metric, ratio)` pairs for the metrics that are defined.
    pub fn defined(&self) -> impl Iterator<Item = (Metric, f64)> + '_ {
        Metric::all()
            .into_iter()
            .zip(self.values)
            .filter_map(|(m, v)| v.map(|v| (m, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: f64, wait: f64, util: f64) -> MetricsReport {
        MetricsReport {
            makespan_secs: makespan,
            avg_wait_secs: wait,
            avg_turnaround_secs: makespan,
            throughput: 0.5,
            node_utilization: util,
            memory_utilization: util,
            wait_fairness: 0.9,
            user_fairness: 0.9,
        }
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let base = report(100.0, 10.0, 0.5);
        let n = normalize_against(&base, &base);
        for (_, v) in n.defined() {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert_eq!(n.defined().count(), 8);
    }

    #[test]
    fn half_makespan_is_half_ratio() {
        let base = report(100.0, 10.0, 0.5);
        let fast = report(50.0, 5.0, 1.0);
        let n = normalize_against(&fast, &base);
        assert_eq!(n.get(Metric::Makespan), Some(0.5));
        assert_eq!(n.get(Metric::AvgWait), Some(0.5));
        assert_eq!(n.get(Metric::NodeUtilization), Some(2.0));
    }

    #[test]
    fn zero_over_zero_is_omitted() {
        let base = report(100.0, 0.0, 0.5);
        let other = report(100.0, 0.0, 0.5);
        let n = normalize_against(&other, &base);
        assert_eq!(n.get(Metric::AvgWait), None, "0/0 omitted per paper §3.5");
        assert_eq!(n.defined().count(), 7);
    }

    #[test]
    fn nonzero_over_zero_is_omitted() {
        let base = report(100.0, 0.0, 0.5);
        let worse = report(100.0, 5.0, 0.5);
        let n = normalize_against(&worse, &base);
        assert_eq!(n.get(Metric::AvgWait), None);
    }
}
