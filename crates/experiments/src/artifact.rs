//! Machine-readable per-cell JSON artifacts.
//!
//! Every figure run can dump its raw (pre-normalization) cells —
//! scheduler, the cell's `<scenario>/<jobs>` and both seeds, the eight
//! §3.2 metrics, simulator counters, and the LLM overhead ledger — as one
//! JSON document per figure under `results/cells/`. Fixed key order and
//! fixed-precision floats keep the files byte-diffable across commits, so
//! the perf/quality trajectory of the harness is visible in plain
//! `git diff`.

use std::fs;
use std::io;
use std::path::Path;

use rsched_campaign::{CellSpec, PolicyRun};
use rsched_metrics::Metric;
// The byte-stability contract (escape rules + six-decimal floats) is
// shared with the campaign summary writer via `rsched_simkit::json`.
use rsched_simkit::json::{escape, num};

use crate::figures::overhead::latency_summary;

fn cell_to_json(figure: &str, cell: &CellSpec, run: &PolicyRun) -> String {
    let mut s = String::with_capacity(512);
    s.push_str(&format!(
        "{{\"figure\":\"{}\",\"scheduler\":\"{}\",\"scenario\":\"{}/{}\",\
         \"workload_seed\":{},\"policy_seed\":{},",
        escape(figure),
        escape(&run.policy),
        escape(&cell.scenario),
        cell.jobs,
        cell.workload_seed,
        cell.policy_seed
    ));
    s.push_str("\"metrics\":{");
    let metrics: Vec<String> = Metric::all()
        .into_iter()
        .map(|m| format!("\"{}\":{}", m.key(), num(run.report.get(m))))
        .collect();
    s.push_str(&metrics.join(","));
    s.push_str("},\"stats\":{");
    s.push_str(&format!(
        "\"queries\":{},\"placements\":{},\"backfills\":{},\"delays\":{},\
         \"rejections\":{},\"epochs\":{}",
        run.stats.queries,
        run.stats.placements,
        run.stats.backfills,
        run.stats.delays,
        run.stats.rejections,
        run.stats.epochs
    ));
    s.push_str("},\"overhead\":");
    match &run.overhead {
        None => s.push_str("null"),
        Some(o) => {
            let [mean, p50, p95, _] = latency_summary(&o.placement_latencies, num, "null");
            s.push_str(&format!(
                "{{\"call_count\":{},\"total_elapsed_secs\":{},\"latency_mean_s\":{mean},\
                 \"latency_p50_s\":{p50},\"latency_p95_s\":{p95}}}",
                o.call_count,
                num(o.total_elapsed_secs),
            ));
        }
    }
    s.push('}');
    s
}

/// Serialize one figure's raw cells as a JSON array (one object per cell,
/// one line per cell for readable diffs).
pub fn cells_to_json(figure: &str, runs: &[(CellSpec, PolicyRun)]) -> String {
    let mut s = String::from("[\n");
    let body: Vec<String> = runs
        .iter()
        .map(|(cell, run)| format!("  {}", cell_to_json(figure, cell, run)))
        .collect();
    s.push_str(&body.join(",\n"));
    s.push_str("\n]\n");
    s
}

/// Write `content` to `path`, creating its directory first.
pub fn write(path: &Path, content: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_metrics::MetricsReport;
    use rsched_sim::{OverheadReport, SimStats};

    fn result(overhead: Option<OverheadReport>) -> (CellSpec, PolicyRun) {
        let cell = CellSpec {
            policy: "Claude-3.7".to_string(),
            scenario: "long_job_dominant".to_string(),
            jobs: 60,
            workload_seed: 11,
            policy_seed: 12,
        };
        let run = PolicyRun {
            policy: "Claude-3.7".to_string(),
            report: MetricsReport {
                makespan_secs: 120.5,
                avg_wait_secs: 10.0,
                avg_turnaround_secs: 55.25,
                throughput: 0.5,
                node_utilization: 0.75,
                memory_utilization: 0.5,
                wait_fairness: 0.9,
                user_fairness: 0.8,
            },
            stats: SimStats {
                queries: 70,
                placements: 60,
                backfills: 5,
                delays: 9,
                rejections: 1,
                epochs: 64,
            },
            overhead,
        };
        (cell, run)
    }

    /// Minimal structural validation: balanced braces/brackets outside
    /// strings and no trailing garbage.
    fn assert_balanced(text: &str) {
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {text}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {text}");
        assert!(!in_string);
    }

    #[test]
    fn cells_json_contains_all_sections() {
        let text = cells_to_json(
            "fig3",
            &[result(Some(OverheadReport {
                total_elapsed_secs: 900.0,
                call_count: 61,
                placement_latencies: vec![10.0, 20.0, 30.0],
            }))],
        );
        assert_balanced(&text);
        for key in [
            "\"figure\":\"fig3\"",
            "\"scheduler\":\"Claude-3.7\"",
            "\"scenario\":\"long_job_dominant/60\",\"workload_seed\":11,\"policy_seed\":12,",
            "\"makespan\":120.500000",
            "\"user_fairness\":0.800000",
            "\"queries\":70",
            "\"epochs\":64",
            "\"call_count\":61",
            "\"latency_mean_s\":20.000000",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn missing_overhead_serializes_as_null() {
        let text = cells_to_json("fig8", &[result(None)]);
        assert_balanced(&text);
        assert!(text.contains("\"overhead\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = result(None);
        r.0.scenario = "weird \"label\"\nwith\tcontrol".to_string();
        let text = cells_to_json("x", &[r]);
        assert_balanced(&text);
        assert!(text.contains("weird \\\"label\\\"\\nwith\\tcontrol"));
    }

    #[test]
    fn write_creates_directory_and_file() {
        let dir = std::env::temp_dir().join(format!("rsched_artifact_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("cells/fig3.json");
        write(&path, &cells_to_json("fig3", &[result(None)])).expect("writes");
        let text = fs::read_to_string(&path).expect("readable");
        assert_balanced(&text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_fails_when_the_parent_is_a_regular_file() {
        let file =
            std::env::temp_dir().join(format!("rsched_artifact_file_{}", std::process::id()));
        fs::write(&file, "not a directory").expect("temp file");
        assert!(write(&file.join("fig3.csv"), "x").is_err());
        assert!(write(&file.join("cells/fig3.json"), "x").is_err());
        let _ = fs::remove_file(&file);
    }
}
