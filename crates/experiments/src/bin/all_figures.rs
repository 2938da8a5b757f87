//! Regenerates every figure of the paper's evaluation in one run, printing
//! the paper-style tables and writing machine-readable artifacts under
//! `results/`: per-figure CSVs plus per-cell JSON documents
//! (`results/cells/*.json`) whose raw metrics/stats/overhead are diffable
//! across commits. Both are tracked; a write that fails ends the run with
//! exit status 1.
//!
//! `--quick` runs shrunken grids whose numbers are **not** the tracked
//! artifacts, so its CSVs and cells go to the scratch directory
//! `results/quick/` (gitignored) instead.

use std::path::Path;

use rsched_experiments::artifact::{cells_to_json, write};
use rsched_experiments::figures::{ablation, fig3, fig4, fig7, fig8, overhead};
use rsched_experiments::ExperimentOptions;
use rsched_parallel::ThreadPool;

fn main() {
    let opts = match ExperimentOptions::from_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let out = Path::new(if opts.quick {
        "results/quick"
    } else {
        "results"
    });
    let pool = ThreadPool::available_parallelism();

    let f3 = fig3::run(&opts, &pool);
    let f4 = fig4::run(&opts, &pool);
    // Figures 5 and 6 are the overhead of the runs Figures 3 and 4 score,
    // not runs of their own, so they add no cells.
    let f5 = overhead::fig5(&f3, fig3::jobs(&opts));
    let f6 = overhead::fig6(&f4);
    let f7 = fig7::run(&opts, &pool);
    let f8 = fig8::run(&opts, &pool);
    let ab = ablation::run(&opts, &pool);

    let figures = [
        ("fig3", f3.render(), f3.to_csv(), Some(&f3.runs)),
        ("fig4", f4.render(), f4.to_csv(), Some(&f4.runs)),
        ("fig5", f5.render(), f5.to_csv(), None),
        ("fig6", f6.render(), f6.to_csv(), None),
        ("fig7", f7.render(), f7.to_csv(), Some(&f7.runs)),
        ("fig8", f8.render(), f8.to_csv(), Some(&f8.runs)),
        ("ablation", ab.render(), ab.to_csv(), Some(&ab.runs)),
    ];
    for (name, text, csv, runs) in figures {
        print!("{text}");
        let mut artifacts = vec![(out.join(format!("{name}.csv")), csv)];
        if let Some(runs) = runs {
            artifacts.push((
                out.join("cells").join(format!("{name}.json")),
                cells_to_json(name, runs),
            ));
        }
        for (path, content) in artifacts {
            match write(&path, &content) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: could not write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}
