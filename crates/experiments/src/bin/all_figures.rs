//! Regenerates every figure of the paper's evaluation in one run, printing
//! the paper-style tables and writing machine-readable artifacts under
//! `results/`: per-figure CSVs plus per-cell JSON documents
//! (`results/cells/*.json`) whose raw metrics/stats/overhead are diffable
//! across commits.
//!
//! `--quick` runs shrunken grids whose cells are **not** the tracked
//! artifacts, so quick-mode cell JSONs are routed to the scratch
//! directory `results/quick/cells/` (gitignored) instead of overwriting
//! the tracked `results/cells/`.

use std::fs;
use std::path::Path;

use rsched_experiments::artifact::write_cells_json;
use rsched_experiments::figures::{ablation, fig3, fig4, fig7, fig8, overhead};
use rsched_experiments::output::{normalized_rows_to_csv, overhead_rows_to_csv};
use rsched_experiments::runner::RunResult;
use rsched_experiments::ExperimentOptions;
use rsched_parallel::ThreadPool;
use rsched_workloads::scenario_builtins;

/// The human-readable title of a registry scenario name (CSV labels keep
/// the paper's figure names).
fn scenario_title(name: &str) -> String {
    scenario_builtins().title(name).unwrap_or(name).to_string()
}

fn write(path: &str, content: &str) {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn write_cells(cells_dir: &Path, figure: &str, runs: &[RunResult]) {
    match write_cells_json(cells_dir, figure, runs) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write cells for {figure}: {e}"),
    }
}

fn main() {
    let opts = match ExperimentOptions::from_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    // Quick-mode cells describe shrunken grids; keep them out of the
    // git-tracked full-scale artifacts.
    let cells_dir = if opts.quick {
        Path::new("results/quick/cells")
    } else {
        Path::new("results/cells")
    };
    let pool = ThreadPool::available_parallelism();

    let f3 = fig3::run(&opts, &pool);
    print!("{}", f3.render());
    let rows: Vec<(Vec<String>, _)> = f3
        .scenarios
        .iter()
        .flat_map(|(scenario, rows)| {
            rows.iter()
                .map(move |(name, report)| (vec![scenario_title(scenario), name.clone()], *report))
        })
        .collect();
    write(
        "results/fig3.csv",
        &normalized_rows_to_csv(&["scenario", "scheduler"], &rows),
    );
    write_cells(cells_dir, "fig3", &f3.runs);

    let f4 = fig4::run(&opts, &pool);
    print!("{}", f4.render());
    let rows: Vec<(Vec<String>, _)> = f4
        .sizes
        .iter()
        .flat_map(|(n, rows)| {
            rows.iter()
                .map(move |(name, report)| (vec![n.to_string(), name.clone()], *report))
        })
        .collect();
    write(
        "results/fig4.csv",
        &normalized_rows_to_csv(&["jobs", "scheduler"], &rows),
    );
    write_cells(cells_dir, "fig4", &f4.runs);

    // Figures 5 and 6 are the overhead of the runs just scored, not runs
    // of their own, so they add no cells.
    for (name, figure) in [("fig5", overhead::fig5(&f3)), ("fig6", overhead::fig6(&f4))] {
        print!("{}", figure.render());
        write(
            &format!("results/{name}.csv"),
            &overhead_rows_to_csv(&[figure.varies, "model"], &figure.rows),
        );
    }

    let f7 = fig7::run(&opts, &pool);
    print!("{}", f7.render());
    {
        use rsched_metrics::Metric;
        let mut rows: Vec<Vec<String>> = vec![[
            "scheduler",
            "metric",
            "n",
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "outliers",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()];
        for (name, dist) in &f7.distributions {
            for metric in Metric::all() {
                if let Some(b) = dist.boxplot(metric) {
                    rows.push(vec![
                        name.clone(),
                        metric.name().replace(' ', "_").to_lowercase(),
                        b.count.to_string(),
                        format!("{:.6}", b.min),
                        format!("{:.6}", b.q1),
                        format!("{:.6}", b.median),
                        format!("{:.6}", b.q3),
                        format!("{:.6}", b.max),
                        b.outliers.len().to_string(),
                    ]);
                }
            }
        }
        write("results/fig7.csv", &rsched_simkit::csv::write_rows(rows));
        write_cells(cells_dir, "fig7", &f7.runs);
    }

    let f8 = fig8::run(&opts, &pool);
    print!("{}", f8.render());
    let rows: Vec<(Vec<String>, _)> = f8
        .rows
        .iter()
        .map(|(name, report)| (vec![name.clone()], *report))
        .collect();
    write(
        "results/fig8.csv",
        &normalized_rows_to_csv(&["scheduler"], &rows),
    );
    write_cells(cells_dir, "fig8", &f8.runs);

    let ab = ablation::run(&opts, &pool);
    print!("{}", ab.render());
    let rows: Vec<(Vec<String>, _)> = ab
        .rows
        .iter()
        .map(|(name, report)| (vec![name.clone()], *report))
        .collect();
    write(
        "results/ablation.csv",
        &normalized_rows_to_csv(&["persona"], &rows),
    );
    write_cells(cells_dir, "ablation", &ab.runs);
}
