//! # rsched-experiments
//!
//! The figure-regeneration harness: one binary per figure of the paper's
//! evaluation, one module per grid that is run (the two overhead figures
//! are views of the grids `fig3` and `fig4` run, in `figures::overhead`).
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig3` | Normalized metrics, six scenarios @ 60 jobs (§3.5) |
//! | `fig4` | Scalability on Heterogeneous Mix, 10–100 jobs (§3.6) |
//! | `fig5` | Overhead by workload @ 60 jobs (§3.7.1) — of `fig3`'s runs |
//! | `fig6` | Overhead scaling with queue size (§3.7.2) — of `fig4`'s runs |
//! | `fig7` | Robustness box plots, 5 runs @ 100 jobs (§4) |
//! | `fig8` | Polaris trace replay, 100 jobs (§5) |
//!
//! Every grid runs its cells through [`rsched_campaign::run_policy`], the
//! function a campaign cell runs through too (see [`figures`]).
//!
//! Run e.g. `cargo run --release -p rsched-experiments --bin fig3`, or
//! `--bin all_figures` for the whole evaluation. Every run is
//! deterministic given `--seed`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod figures;
pub mod options;

pub use options::ExperimentOptions;
