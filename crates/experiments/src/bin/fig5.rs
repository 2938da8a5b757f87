//! Regenerates the paper's Figure 5: runs Figure 3's grid and prints the
//! agents' overhead on it. See `rsched_experiments::figures::overhead`.

use rsched_experiments::figures::{fig3, overhead};
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
    let pool = ThreadPool::available_parallelism();
    let output = overhead::fig5(&fig3::run(&opts, &pool), fig3::jobs(&opts));
    print!("{}", output.render());
}
