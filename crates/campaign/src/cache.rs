//! The one per-cell record: every cell a campaign or a figure runs is one
//! small TOML-subset file in its cells directory, named by the cell's
//! coordinates and content hash. It holds the cell (both seeds quoted: a
//! `u64` need not fit the subset's integers) and its [`PolicyRun`], floats
//! written exactly (Rust's shortest round-trip spelling, `NaN` and `±inf`
//! included), so a run read back is the run that was written.
//!
//! A rerun reads the file back instead of re-simulating. A file that is
//! not exactly what would be written for the expected cell — unparsable
//! text, another format version, hash or cell, a missing or stray line —
//! quietly degrades to a cache miss, so a corrupted file costs exactly one
//! re-run, never a wrong result.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rsched_metrics::{Metric, MetricsReport};
use rsched_sim::SimStats;

use crate::cell::{CellSpec, CACHE_FORMAT};
use crate::engine::{OverheadSummary, PolicyRun};
use crate::error::CampaignError;
use crate::toml::TomlTable;

/// The latency summary's keys, in [`OverheadSummary::latency_s`] order.
const LATENCY: [&str; 4] = [
    "latency_mean_s",
    "latency_p50_s",
    "latency_p95_s",
    "latency_max_s",
];

/// Render `cell`'s record of `run`.
pub fn render_record(cell: &CellSpec, run: &PolicyRun, hash: u64) -> String {
    // `{:?}` is the shortest spelling that parses back to the same `f64`
    // and never an integer's, so `-0.0` keeps its sign.
    let mut s = String::with_capacity(768);
    s.push_str("# rsched-campaign cell record — delete to force a re-run.\n");
    let _ = writeln!(s, "format = {CACHE_FORMAT}");
    let _ = writeln!(s, "hash = \"{hash:016x}\"");
    let _ = writeln!(s, "policy = \"{}\"", cell.policy);
    let _ = writeln!(s, "display_name = \"{}\"", run.policy);
    let _ = writeln!(s, "scenario = \"{}\"", cell.scenario);
    let _ = writeln!(s, "jobs = {}", cell.jobs);
    let _ = writeln!(s, "seed = \"{}\"", cell.workload_seed);
    let _ = writeln!(s, "policy_seed = \"{}\"", cell.policy_seed);
    for m in Metric::all() {
        let _ = writeln!(s, "{} = {:?}", m.key(), run.report.get(m));
    }
    let st = run.stats;
    for (key, count) in [
        ("queries", st.queries),
        ("placements", st.placements),
        ("backfills", st.backfills),
        ("delays", st.delays),
        ("rejections", st.rejections),
        ("epochs", st.epochs),
    ] {
        let _ = writeln!(s, "{key} = {count}");
    }
    if let Some(o) = &run.overhead {
        let _ = writeln!(s, "call_count = {}", o.call_count);
        let _ = writeln!(s, "total_elapsed_secs = {:?}", o.total_elapsed_secs);
        for (key, v) in LATENCY.into_iter().zip(o.latency_s.iter().flatten()) {
            let _ = writeln!(s, "{key} = {v:?}");
        }
    }
    s
}

/// Read `text` back as `cell`'s record under `hash`; `None` for anything
/// else.
pub fn parse_record(text: &str, cell: &CellSpec, hash: u64) -> Option<PolicyRun> {
    let table = TomlTable::parse(text).ok()?;
    let count = |key: &str| usize::try_from(table.get(key)?.as_int()?).ok();
    let float = |key: &str| table.get(key)?.as_float();
    let metric = |m: Metric| float(m.key());
    let overhead = match table.get("call_count") {
        None => None,
        Some(calls) => Some(OverheadSummary {
            call_count: usize::try_from(calls.as_int()?).ok()?,
            total_elapsed_secs: float("total_elapsed_secs")?,
            latency_s: match LATENCY.map(float) {
                [None, None, None, None] => None,
                [Some(mean), Some(p50), Some(p95), Some(max)] => Some([mean, p50, p95, max]),
                _ => return None,
            },
        }),
    };
    let run = PolicyRun {
        policy: table.get("display_name")?.as_str()?.to_string(),
        report: MetricsReport {
            makespan_secs: metric(Metric::Makespan)?,
            avg_wait_secs: metric(Metric::AvgWait)?,
            avg_turnaround_secs: metric(Metric::AvgTurnaround)?,
            throughput: metric(Metric::Throughput)?,
            node_utilization: metric(Metric::NodeUtilization)?,
            memory_utilization: metric(Metric::MemoryUtilization)?,
            wait_fairness: metric(Metric::WaitFairness)?,
            user_fairness: metric(Metric::UserFairness)?,
        },
        stats: SimStats {
            queries: count("queries")?,
            placements: count("placements")?,
            backfills: count("backfills")?,
            delays: count("delays")?,
            rejections: count("rejections")?,
            epochs: count("epochs")?,
        },
        overhead,
    };
    // A record is exactly what `render_record` writes for this cell and
    // hash: another format, hash or cell, or a stray or missing line, is
    // not this cell's record.
    (render_record(cell, &run, hash) == text).then_some(run)
}

/// Write `cell`'s record of `run`, creating `cells_dir` as needed.
pub(crate) fn write_record(
    cells_dir: &Path,
    cell: &CellSpec,
    run: &PolicyRun,
    hash: u64,
) -> Result<PathBuf, CampaignError> {
    std::fs::create_dir_all(cells_dir).map_err(|e| io_err(cells_dir, e))?;
    let path = cells_dir.join(cell.file_name(hash));
    std::fs::write(&path, render_record(cell, run, hash)).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

/// Try to read `cell`'s record. `None` means "miss": absent, or not
/// [`parse_record`]'s.
pub(crate) fn read_record(cells_dir: &Path, cell: &CellSpec, hash: u64) -> Option<PolicyRun> {
    let text = std::fs::read_to_string(cells_dir.join(cell.file_name(hash))).ok()?;
    parse_record(&text, cell, hash)
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> CampaignError {
    CampaignError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellSpec {
        CellSpec {
            policy: "claude-3.7".to_string(),
            scenario: "heterogeneous_mix".to_string(),
            jobs: 60,
            workload_seed: 2025,
            // Above `i64::MAX`: seeds are quoted for this.
            policy_seed: u64::MAX - 7,
        }
    }

    fn run(latency_s: Option<[f64; 4]>) -> PolicyRun {
        PolicyRun {
            policy: "Claude-3.7".to_string(),
            report: MetricsReport {
                makespan_secs: 1234.5,
                avg_wait_secs: 56.789_123_456_789,
                avg_turnaround_secs: 99.0001,
                throughput: 0.012_345,
                node_utilization: 0.75,
                memory_utilization: 0.1 + 0.2,
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
            overhead: Some(OverheadSummary {
                call_count: 61,
                total_elapsed_secs: 900.25,
                latency_s,
            }),
        }
    }

    fn tmp(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rsched_campaign_cache_{test}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_exactly() {
        let dir = tmp("round_trip");
        for r in [
            run(Some([20.0, 19.5, 29.05, 1.0 / 3.0])),
            run(None),
            PolicyRun {
                overhead: None,
                ..run(None)
            },
        ] {
            write_record(&dir, &cell(), &r, 0xfeed).expect("writes");
            let back = read_record(&dir, &cell(), 0xfeed).expect("hit");
            assert_eq!(back, r);
            assert_eq!(
                render_record(&cell(), &back, 0xfeed),
                render_record(&cell(), &r, 0xfeed)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_hash_or_cell_is_a_miss() {
        let dir = tmp("wrong_hash");
        write_record(&dir, &cell(), &run(None), 0xfeed).expect("writes");
        assert!(
            read_record(&dir, &cell(), 0xbeef).is_none(),
            "hash mismatch"
        );
        let mut other = cell();
        other.workload_seed = 1;
        assert!(read_record(&dir, &other, 0xfeed).is_none(), "absent cell");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_a_miss_not_an_error() {
        let dir = tmp("corruption");
        let path = write_record(&dir, &cell(), &run(None), 7).expect("writes");
        for garbage in ["", "not toml at all {{{", "format = 99\n"] {
            std::fs::write(&path, garbage).expect("writes");
            assert!(read_record(&dir, &cell(), 7).is_none(), "{garbage:?}");
        }
        // A truncated-but-parsable file (missing metrics, or half an
        // overhead summary) is also a miss.
        let full = render_record(&cell(), &run(Some([1.0, 2.0, 3.0, 4.0])), 7);
        for keep in [12, full.lines().count() - 1] {
            let truncated: String = full.lines().take(keep).map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, truncated).expect("writes");
            assert!(read_record(&dir, &cell(), 7).is_none(), "{keep} lines");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_coordinates_are_a_miss() {
        let dir = tmp("tampered");
        let path = write_record(&dir, &cell(), &run(None), 7).expect("writes");
        let text = render_record(&cell(), &run(None), 7);
        for (from, to) in [
            ("policy = \"claude-3.7\"", "policy = \"SJF\""),
            ("policy_seed = \"", "policy_seed = \"1"),
        ] {
            std::fs::write(&path, text.replace(from, to)).expect("writes");
            assert!(read_record(&dir, &cell(), 7).is_none(), "{to}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
