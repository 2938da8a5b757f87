//! # rsched-experiments
//!
//! The figure-regeneration harness: one module per grid that is run (the
//! two overhead figures are views of the grids of Figures 3 and 4, in
//! `figures::overhead`). The `all_figures` binary runs them all and writes
//! their CSVs and cells JSON; `campaign`, `serve` and `trace` run a
//! campaign spec, the scheduling daemon and one traced run.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | `fig3` | Normalized metrics, six scenarios @ 60 jobs (§3.5) |
//! | `fig4` | Scalability on Heterogeneous Mix, 10–100 jobs (§3.6) |
//! | `overhead::fig5` | Overhead by workload @ 60 jobs (§3.7.1) — of `fig3`'s runs |
//! | `overhead::fig6` | Overhead scaling with queue size (§3.7.2) — of `fig4`'s runs |
//! | `fig7` | Robustness box plots, 5 runs @ 100 jobs (§4) |
//! | `fig8` | Polaris trace replay, 100 jobs (§5) |
//! | `ablation` | Persona objective-weight sweep |
//!
//! Every grid is a list of campaign cells run through
//! [`rsched_campaign::run_cell`], the function a campaign cell runs
//! through too (see [`figures`]). Run
//! `cargo run --release -p rsched-experiments --bin all_figures`; every
//! run is deterministic given `--seed`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod figures;
pub mod options;

pub use options::ExperimentOptions;
