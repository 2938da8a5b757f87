//! The on-disk cell-result cache.
//!
//! Every executed cell is persisted as one small TOML-subset file under
//! `<campaign>/cells/`, named by its grid coordinates and content hash.
//! A rerun reads the file back instead of re-simulating; any mismatch —
//! unparsable text, wrong format version, wrong hash, coordinates that
//! disagree with the expected cell — quietly degrades to a cache miss,
//! so a corrupted file costs exactly one re-run, never a wrong result.

use std::path::{Path, PathBuf};

use rsched_metrics::Metric;

use crate::cell::{CellResult, CellSpec, CACHE_FORMAT};
use crate::error::CampaignError;
use crate::toml::{fmt_float, TomlTable};

/// The cache file path for `cell` under `cells_dir`.
pub(crate) fn cell_path(cells_dir: &Path, cell: &CellSpec, hash: u64) -> PathBuf {
    cells_dir.join(cell.file_name(hash))
}

/// Serialize one result in the canonical cache layout.
pub(crate) fn render_cell(result: &CellResult, hash: u64) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("# rsched-campaign cached cell — delete to force a re-run.\n");
    s.push_str(&format!("format = {CACHE_FORMAT}\n"));
    s.push_str(&format!("hash = \"{hash:016x}\"\n"));
    s.push_str(&format!("policy = \"{}\"\n", result.cell.policy));
    s.push_str(&format!("scenario = \"{}\"\n", result.cell.scenario));
    s.push_str(&format!("jobs = {}\n", result.cell.jobs));
    s.push_str(&format!("seed = {}\n", result.cell.seed));
    for (m, v) in Metric::all().into_iter().zip(result.metrics) {
        s.push_str(&format!("{} = {}\n", m.key(), fmt_float(v)));
    }
    s.push_str(&format!("placements = {}\n", result.placements));
    s.push_str(&format!("epochs = {}\n", result.epochs));
    s
}

/// Write `result` to its cache file, creating `cells_dir` as needed.
pub(crate) fn write_cell(
    cells_dir: &Path,
    result: &CellResult,
    hash: u64,
) -> Result<PathBuf, CampaignError> {
    std::fs::create_dir_all(cells_dir).map_err(|e| io_err(cells_dir, e))?;
    let path = cell_path(cells_dir, &result.cell, hash);
    std::fs::write(&path, render_cell(result, hash)).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

/// Try to read the cached result for `cell`. `None` means "miss":
/// absent, unparsable, stale format, or any field disagreeing with the
/// expected cell and hash.
pub(crate) fn read_cell(cells_dir: &Path, cell: &CellSpec, hash: u64) -> Option<CellResult> {
    let path = cell_path(cells_dir, cell, hash);
    let text = std::fs::read_to_string(path).ok()?;
    parse_cell(&text, cell, hash)
}

fn parse_cell(text: &str, expected: &CellSpec, expected_hash: u64) -> Option<CellResult> {
    let table = TomlTable::parse(text).ok()?;
    if table.get("format")?.as_int()? != i64::from(CACHE_FORMAT) {
        return None;
    }
    if table.get("hash")?.as_str()? != format!("{expected_hash:016x}") {
        return None;
    }
    if table.get("policy")?.as_str()? != expected.policy
        || table.get("scenario")?.as_str()? != expected.scenario
        || table.get("jobs")?.as_int()? != i64::try_from(expected.jobs).ok()?
        || table.get("seed")?.as_int()? != i64::try_from(expected.seed).ok()?
    {
        return None;
    }
    let mut metrics = [0.0; 8];
    for (slot, m) in metrics.iter_mut().zip(Metric::all()) {
        *slot = table.get(m.key())?.as_float()?;
    }
    Some(CellResult {
        cell: expected.clone(),
        metrics,
        placements: u64::try_from(table.get("placements")?.as_int()?).ok()?,
        epochs: u64::try_from(table.get("epochs")?.as_int()?).ok()?,
    })
}

fn io_err(path: &Path, e: std::io::Error) -> CampaignError {
    CampaignError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::canon;

    fn result() -> CellResult {
        CellResult {
            cell: CellSpec {
                policy: "FCFS".to_string(),
                scenario: "heterogeneous_mix".to_string(),
                jobs: 60,
                seed: 2025,
            },
            metrics: [
                canon(1234.5),
                canon(56.789),
                canon(99.0001),
                canon(0.012345),
                canon(0.75),
                canon(0.5),
                canon(0.9),
                canon(0.8),
            ],
            placements: 60,
            epochs: 123,
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
    fn round_trips_bit_identically() {
        let dir = tmp("round_trip");
        let r = result();
        write_cell(&dir, &r, 0xfeed).expect("writes");
        let back = read_cell(&dir, &r.cell, 0xfeed).expect("hit");
        assert_eq!(back, r);
        // And the rendered bytes are stable.
        assert_eq!(render_cell(&back, 0xfeed), render_cell(&r, 0xfeed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_hash_or_cell_is_a_miss() {
        let dir = tmp("wrong_hash");
        let r = result();
        write_cell(&dir, &r, 0xfeed).expect("writes");
        assert!(read_cell(&dir, &r.cell, 0xbeef).is_none(), "hash mismatch");
        let mut other = r.cell.clone();
        other.seed = 1;
        assert!(read_cell(&dir, &other, 0xfeed).is_none(), "absent cell");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_a_miss_not_an_error() {
        let dir = tmp("corruption");
        let r = result();
        let path = write_cell(&dir, &r, 7).expect("writes");
        for garbage in ["", "not toml at all {{{", "format = 99\n"] {
            std::fs::write(&path, garbage).expect("writes");
            assert!(read_cell(&dir, &r.cell, 7).is_none(), "{garbage:?}");
        }
        // A truncated-but-parsable file (missing metrics) is also a miss.
        let full = render_cell(&r, 7);
        let truncated: String = full.lines().take(8).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, truncated).expect("writes");
        assert!(read_cell(&dir, &r.cell, 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_coordinates_are_a_miss() {
        let dir = tmp("tampered");
        let r = result();
        let path = write_cell(&dir, &r, 7).expect("writes");
        let tampered = render_cell(&r, 7).replace("policy = \"FCFS\"", "policy = \"SJF\"");
        std::fs::write(&path, tampered).expect("writes");
        assert!(read_cell(&dir, &r.cell, 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_metrics_survive_the_round_trip() {
        let dir = tmp("non_finite");
        let mut r = result();
        r.metrics[3] = f64::NAN;
        r.metrics[4] = f64::INFINITY;
        write_cell(&dir, &r, 9).expect("writes");
        let back = read_cell(&dir, &r.cell, 9).expect("hit");
        assert!(back.metrics[3].is_nan());
        assert_eq!(back.metrics[4], f64::INFINITY);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
