//! Run a declarative sweep campaign from a TOML spec:
//!
//! ```text
//! cargo run --release -p rsched-experiments --bin campaign -- fixtures/campaigns/paper_grid.toml
//! ```
//!
//! The grid (policies × scenarios × jobs × seeds) executes on a
//! machine-sized thread pool with a per-cell result cache under
//! `results/campaigns/<name>/cells/` — rerunning skips every
//! already-computed cell and reproduces `summary.json` byte for byte.
//! When the run returns, the cell counts (cached and run) and the
//! per-`(scenario, jobs)` Pareto-rank tables print to stdout. A cell that
//! fails prints one line naming it to stderr and exits 1.
//!
//! Flags: `--out-root <dir>` redirects output (default
//! `results/campaigns/`); `--workers <n>` sizes the pool explicitly
//! (default: machine parallelism) — results are byte-identical for every
//! worker count, cells merge in grid order.

use rsched_campaign::{Campaign, CampaignOutcome, CampaignSpec};
use rsched_metrics::TextTable;
use rsched_parallel::ThreadPool;

fn usage() -> ! {
    eprintln!("usage: campaign [--out-root <dir>] [--workers <n>] <spec.toml>");
    std::process::exit(2);
}

fn main() {
    let mut spec_path: Option<String> = None;
    let mut out_root: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-root" => match args.next() {
                Some(dir) => out_root = Some(dir),
                None => usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => workers = Some(n),
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                if spec_path.replace(other.to_string()).is_some() {
                    usage();
                }
            }
        }
    }
    let Some(spec_path) = spec_path else { usage() };

    let spec = match CampaignSpec::load(&spec_path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mut campaign = Campaign::new(spec);
    if let Some(root) = out_root {
        campaign = campaign.out_root(root);
    }

    let pool = match workers {
        Some(n) => ThreadPool::new(n),
        None => ThreadPool::available_parallelism(),
    };
    let outcome = match campaign.run(&pool) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    render(&outcome);
}

fn render(outcome: &CampaignOutcome) {
    let summary = &outcome.summary;
    println!(
        "campaign `{}`: {} cells ({} cached, {} ran)\n",
        summary.campaign,
        outcome.results.len(),
        outcome.cached,
        outcome.ran
    );
    for group in &summary.fronts {
        println!(
            "── {} / {} jobs (front hypervolume {:.4}) ──",
            group.scenario, group.jobs, group.front_hypervolume
        );
        let mut columns = vec!["policy".to_string(), "rank".to_string(), "hv".to_string()];
        columns.extend(summary.objectives.iter().map(|m| m.key().to_string()));
        columns.push("dominated_by".to_string());
        let mut table = TextTable::new(columns);
        for row in &group.rows {
            let mut cells = vec![
                row.policy.clone(),
                if row.rank == usize::MAX {
                    "—".to_string()
                } else {
                    row.rank.to_string()
                },
                format!("{:.4}", row.hypervolume),
            ];
            cells.extend(row.objectives.iter().map(|v| format!("{v:.3}")));
            cells.push(if row.dominated_by.is_empty() {
                "—".to_string()
            } else {
                row.dominated_by.join(", ")
            });
            table.push_row(cells);
        }
        println!("{}", table.render());
    }
    println!(
        "wrote {}/summary.json and {}/fronts.csv",
        outcome.out_dir.display(),
        outcome.out_dir.display()
    );
}
