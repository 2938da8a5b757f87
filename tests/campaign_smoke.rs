//! Tier-1 campaign smoke: the ship-with-repo CI fixture
//! (`fixtures/campaigns/smoke.toml`) must load, validate against the
//! builtin registries, run its 2-policy × 2-scenario × 60-job grid, and
//! produce a non-empty Pareto front with hypervolume in every group —
//! the same contract the CI smoke-campaign step checks through the
//! `campaign` binary. A workload too big for the machine, a cell that
//! cannot run, or a cache that cannot be written comes back from
//! `Campaign::run` as an error, never a panic.

use std::path::PathBuf;

use reasoned_scheduler::campaign::{Campaign, CampaignError, CampaignSpec};
use reasoned_scheduler::parallel::ThreadPool;
use reasoned_scheduler::workloads::registry::names::ALL_BUILTIN;

fn tmp(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsched_campaign_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn smoke_fixture_produces_nonempty_fronts_with_hypervolume() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec_path = manifest.join("fixtures/campaigns/smoke.toml");
    let spec = CampaignSpec::load(spec_path.to_str().expect("utf8 path")).expect("fixture loads");
    assert_eq!(spec.name, "smoke");
    assert_eq!(spec.policies.len(), 2);
    assert_eq!(spec.scenarios.len(), 2);
    assert_eq!(spec.jobs, vec![60]);

    let out = std::env::temp_dir().join(format!("rsched_campaign_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let campaign = Campaign::new(spec).out_root(&out);
    let pool = ThreadPool::new(2);
    let outcome = campaign.run(&pool).expect("runs");

    assert_eq!(
        outcome.results.len(),
        8,
        "2 policies × 2 scenarios × 2 seeds"
    );
    assert_eq!(outcome.ran, 8);
    assert_eq!(outcome.summary.fronts.len(), 2, "one group per scenario");
    for group in &outcome.summary.fronts {
        assert!(
            !group.front().is_empty(),
            "{}/{}: empty Pareto front",
            group.scenario,
            group.jobs
        );
        assert!(
            group.front_hypervolume > 0.0,
            "{}/{}: zero hypervolume",
            group.scenario,
            group.jobs
        );
        assert_eq!(group.rows.len(), 2, "every policy is ranked");
    }
    let summary_json =
        std::fs::read_to_string(out.join("smoke/summary.json")).expect("summary written");
    assert!(summary_json.contains("\"front_hypervolume\""));
    assert!(std::fs::read_to_string(out.join("smoke/fronts.csv"))
        .expect("csv written")
        .starts_with("scenario,jobs,policy,rank"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_scenario_too_big_for_its_machine_is_an_error_naming_the_cell() {
    // Every Polaris job asks for 512 GB on one node; no `mixed_256` node
    // has that much.
    let spec = CampaignSpec::parse(
        r#"
name = "repro"
policies = ["FCFS"]
scenarios = ["polaris"]
jobs = [30]
seeds = [7]

[cluster]
preset = "mixed_256"
"#,
    )
    .expect("valid spec");
    let out = tmp("infeasible");
    let err = Campaign::new(spec)
        .out_root(&out)
        .run(&ThreadPool::new(2))
        .expect_err("the cell cannot run");
    // Refused before anything runs, in one line naming the machine.
    assert!(matches!(err, CampaignError::Validation(_)), "{err:?}");
    let text = err.to_string();
    assert!(text.contains("polaris/30"), "{text}");
    assert!(text.contains("mixed_256"), "{text}");
    assert!(text.contains("exceeding machine capacity"), "{text}");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(!out.join("repro/cells").exists(), "nothing ran");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn every_builtin_scenario_on_every_preset_runs_or_errs() {
    let pool = ThreadPool::new(2);
    let out = tmp("presets");
    for preset in ["paper_default", "mixed_256", "polaris"] {
        for scenario in ALL_BUILTIN {
            let spec = CampaignSpec::parse(&format!(
                r#"
name = "{scenario}-{preset}"
policies = ["FCFS"]
scenarios = ["{scenario}"]
jobs = [8]
seeds = [1]

[cluster]
preset = "{preset}"
"#
            ))
            .expect("valid spec");
            match Campaign::new(spec).out_root(&out).run(&pool) {
                Ok(outcome) => assert_eq!(outcome.results.len(), 1, "{scenario} on {preset}"),
                // `polaris` jobs ask for 512 GB a node, more than a
                // `paper_default` or `mixed_256` node has.
                Err(e) => assert!(e.to_string().contains(scenario), "{e}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_cells_directory_that_cannot_be_made_is_an_io_error() {
    let spec = CampaignSpec::parse(
        r#"
name = "blocked"
policies = ["FCFS", "SJF"]
scenarios = ["resource_sparse"]
jobs = [6]
seeds = [1, 2]
"#,
    )
    .expect("valid spec");
    let out = tmp("blocked");
    std::fs::create_dir_all(&out).expect("temp dir");
    // `cells/`'s parent is a regular file, so no worker can create it.
    std::fs::write(out.join("blocked"), "not a directory").expect("writes");
    let err = Campaign::new(spec)
        .out_root(&out)
        .run(&ThreadPool::new(2))
        .expect_err("the cache cannot be written");
    assert!(matches!(err, CampaignError::Io { .. }), "{err:?}");
    let _ = std::fs::remove_dir_all(&out);
}
