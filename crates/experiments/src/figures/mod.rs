//! One module per experiment grid; Figures 5 and 6 are [`overhead`] views
//! of the runs Figures 3 and 4 score.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod overhead;

use rsched_metrics::table::fmt_ratio;
use rsched_metrics::{Metric, NormalizedReport, TextTable};
use rsched_simkit::stats::quantile;

/// Header row for a normalized-metrics table: scheduler + the eight
/// metrics in `Metric::all()` order.
pub(crate) fn metric_header() -> Vec<String> {
    let mut h = vec!["scheduler".to_string()];
    h.extend(Metric::all().into_iter().map(|m| m.name().to_string()));
    h
}

/// One table row of normalized ratios (omitted metrics render as `-`).
pub(crate) fn normalized_row(name: &str, report: &NormalizedReport) -> Vec<String> {
    let mut row = vec![name.to_string()];
    row.extend(Metric::all().into_iter().map(|m| fmt_ratio(report.get(m))));
    row
}

/// Build a normalized-metrics table from `(scheduler, report)` rows.
pub(crate) fn normalized_table(rows: &[(String, NormalizedReport)]) -> TextTable {
    let mut table = TextTable::new(metric_header());
    for (name, report) in rows {
        table.push_row(normalized_row(name, report));
    }
    table
}

/// Latency-distribution summary columns used by the overhead figures.
pub(crate) fn latency_columns() -> [&'static str; 6] {
    ["calls", "elapsed_s", "mean_s", "p50_s", "p95_s", "max_s"]
}

/// Summarize a latency sample into the [`latency_columns`] values.
pub(crate) fn latency_row(call_count: usize, elapsed: f64, latencies: &[f64]) -> [String; 6] {
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.1}"),
        None => "-".to_string(),
    };
    let max = latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = if latencies.is_empty() {
        None
    } else {
        Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
    };
    [
        call_count.to_string(),
        format!("{elapsed:.0}"),
        fmt(mean),
        fmt(quantile(latencies, 0.5)),
        fmt(quantile(latencies, 0.95)),
        fmt(if latencies.is_empty() {
            None
        } else {
            Some(max)
        }),
    ]
}
