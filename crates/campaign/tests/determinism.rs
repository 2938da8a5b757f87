//! The campaign cache contract, end to end: a cold run, a cache-warm
//! rerun, and a fresh run in a different directory must all produce
//! **byte-identical** `summary.json` (and `fronts.csv`); corrupting one
//! cached cell file must force exactly that cell — and nothing else — to
//! re-execute.

use std::path::PathBuf;

use rsched_campaign::{Campaign, CampaignSpec};
use rsched_parallel::ThreadPool;

const SPEC: &str = r#"
name = "determinism"
policies = ["FCFS", "SJF", "Random"]
scenarios = ["heterogeneous_mix", "resource_sparse"]
jobs = [10]
seeds = [1, 2]
objectives = ["avg_wait", "avg_turnaround", "node_util"]
"#;

fn tmp(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rsched_campaign_determinism_{label}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &std::path::Path, name: &str, file: &str) -> String {
    std::fs::read_to_string(dir.join(name).join(file))
        .unwrap_or_else(|e| panic!("{file} under {}: {e}", dir.display()))
}

#[test]
fn cold_warm_and_fresh_runs_are_byte_identical() {
    let spec = CampaignSpec::parse(SPEC).expect("valid");
    let pool = ThreadPool::new(2);

    let root_a = tmp("a");
    let campaign_a = Campaign::new(spec.clone()).out_root(&root_a);
    let outcome = campaign_a.run(&pool).expect("cold run");
    assert_eq!(
        (outcome.cached, outcome.ran),
        (0, 12),
        "3 policies × 2 scenarios × 2 seeds"
    );
    let summary_cold = read(&root_a, "determinism", "summary.json");
    let csv_cold = read(&root_a, "determinism", "fronts.csv");

    // Cache-warm rerun in the same directory.
    let rerun = campaign_a.run(&pool).expect("warm run");
    assert_eq!(
        (rerun.cached, rerun.ran),
        (12, 0),
        "every cell served from cache"
    );
    assert_eq!(read(&root_a, "determinism", "summary.json"), summary_cold);
    assert_eq!(read(&root_a, "determinism", "fronts.csv"), csv_cold);
    assert_eq!(rerun.results, outcome.results);

    // Fresh run in a different directory: same bytes from scratch.
    let root_b = tmp("b");
    let campaign_b = Campaign::new(spec).out_root(&root_b);
    campaign_b.run(&pool).expect("fresh run");
    assert_eq!(read(&root_b, "determinism", "summary.json"), summary_cold);
    assert_eq!(read(&root_b, "determinism", "fronts.csv"), csv_cold);

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn corrupting_one_cell_reruns_exactly_that_cell() {
    let spec = CampaignSpec::parse(SPEC).expect("valid");
    let pool = ThreadPool::new(2);
    let root = tmp("corrupt");
    let campaign = Campaign::new(spec).out_root(&root);
    campaign.run(&pool).expect("cold run");
    let summary = read(&root, "determinism", "summary.json");

    // Corrupt exactly one cached cell (a deterministic pick: the
    // lexicographically first cell file).
    let cells_dir = root.join("determinism").join("cells");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cells_dir)
        .expect("cells dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 12);
    let victim = &files[0];
    let original = std::fs::read_to_string(victim).expect("cell file");
    std::fs::write(victim, "scrambled beyond recognition }{").expect("corrupts");

    let rerun = campaign.run(&pool).expect("repair run");
    assert_eq!(
        (rerun.cached, rerun.ran),
        (11, 1),
        "exactly one cell re-ran"
    );
    // The one cell that ran rewrote its own file, so it is the victim.
    assert_eq!(
        std::fs::read_to_string(victim).expect("cell file"),
        original,
        "the scrambled cell was re-run and re-cached"
    );
    // And the repaired summary is still byte-identical.
    assert_eq!(read(&root, "determinism", "summary.json"), summary);

    let _ = std::fs::remove_dir_all(&root);
}
