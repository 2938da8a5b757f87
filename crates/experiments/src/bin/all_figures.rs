//! Regenerates every figure of the paper's evaluation in one run, printing
//! the paper-style tables and writing machine-readable artifacts under
//! `results/`: per-figure CSVs plus one record per cell (`results/cells/`,
//! the campaign's cell records). Both are tracked. A cell whose record is
//! already there is read back, not run; a cell or a write that fails ends
//! the run with exit status 1.
//!
//! `--quick` runs shrunken grids whose numbers are **not** the tracked
//! artifacts, so its CSVs and records go to the scratch directory
//! `results/quick/` (gitignored) instead.

use std::path::Path;

use rsched_campaign::CampaignError;
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
    let cells = out.join("cells");
    let pool = ThreadPool::available_parallelism();

    let run = || -> Result<_, CampaignError> {
        let f3 = fig3::run(&opts, &cells, &pool)?;
        let f4 = fig4::run(&opts, &cells, &pool)?;
        // Figures 5 and 6 are the overhead of the runs Figures 3 and 4
        // score, not runs of their own, so they add no cells.
        let f5 = overhead::fig5(&f3, fig3::jobs(&opts));
        let f6 = overhead::fig6(&f4);
        let f7 = fig7::run(&opts, &cells, &pool)?;
        let f8 = fig8::run(&opts, &cells, &pool)?;
        let ab = ablation::run(&opts, &cells, &pool)?;
        Ok([
            ("fig3", f3.render(), f3.to_csv()),
            ("fig4", f4.render(), f4.to_csv()),
            ("fig5", f5.render(), f5.to_csv()),
            ("fig6", f6.render(), f6.to_csv()),
            ("fig7", f7.render(), f7.to_csv()),
            ("fig8", f8.render(), f8.to_csv()),
            ("ablation", ab.render(), ab.to_csv()),
        ])
    };
    let figures = run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for (name, text, csv) in figures {
        print!("{text}");
        let path = out.join(format!("{name}.csv"));
        match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, csv)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
