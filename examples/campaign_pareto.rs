//! Campaign walkthrough: declare a policy × scenario × scale grid in a
//! TOML-subset spec, run it twice through the cached engine, and read
//! the multiobjective verdict off the Pareto fronts.
//!
//! ```text
//! cargo run --release --example campaign_pareto
//! ```

use reasoned_scheduler::campaign::{Campaign, CampaignSpec};
use reasoned_scheduler::parallel::ThreadPool;

const SPEC: &str = r#"
# Five policies, two contrasting scenarios, two scales, two seeds.
name = "walkthrough"
policies = ["FCFS", "SJF", "EASY", "Random", "Claude-3.7"]
scenarios = ["heterogeneous_mix", "long_tail"]
jobs = [30, 120]
seeds = [7, 8]
objectives = ["avg_wait", "avg_turnaround", "node_util", "wait_fairness"]
"#;

fn main() {
    let spec = CampaignSpec::parse(SPEC).expect("spec is valid");
    println!(
        "grid: {} policies × {} scenarios × {} sizes × {} seeds",
        spec.policies.len(),
        spec.scenarios.len(),
        spec.jobs.len(),
        spec.seeds.len()
    );

    // Campaigns normally persist under results/campaigns/<name>/; the
    // walkthrough uses a scratch directory so it leaves no artifacts.
    let out = std::env::temp_dir().join("rsched_campaign_walkthrough");
    let _ = std::fs::remove_dir_all(&out);
    let campaign = Campaign::new(spec).out_root(&out);
    let pool = ThreadPool::available_parallelism();

    let started = std::time::Instant::now();
    let outcome = campaign.run(&pool).expect("campaign completes");
    println!(
        "cold run: {} cells in {:.2} s\n",
        outcome.results.len(),
        started.elapsed().as_secs_f64()
    );

    // The verdict: who is non-dominated where?
    for group in &outcome.summary.fronts {
        println!(
            "{} / {} jobs — front: {} (hypervolume {:.3})",
            group.scenario,
            group.jobs,
            group.front().join(", "),
            group.front_hypervolume
        );
        for row in group.rows.iter().filter(|r| !r.dominated_by.is_empty()) {
            println!(
                "  {} is dominated by {}",
                row.policy,
                row.dominated_by.join(", ")
            );
        }
    }

    // Rerun: the content-addressed cache serves every cell.
    let started = std::time::Instant::now();
    let warm = campaign.run(&pool).expect("warm rerun");
    println!(
        "\nwarm rerun: {}/{} cells from cache in {:.3} s (summary byte-identical: {})",
        warm.cached,
        warm.results.len(),
        started.elapsed().as_secs_f64(),
        warm.summary.to_json() == outcome.summary.to_json()
    );
    let _ = std::fs::remove_dir_all(&out);
}
