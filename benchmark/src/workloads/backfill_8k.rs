//! `backfill_8k`: {`long_tail` on flat Polaris, `gpu_skewed_hetmix` on the
//! classed `mixed_256`} × {Conservative, EASY under `strict_backfill`},
//! 8000 jobs each, all submitted at t = 0.
//!
//! The capacity calendar, the reservation pass and the classed allocator
//! carry the time here and nowhere else; the flat and the classed machine
//! use the same calendar differently (scalar columns vs per-class ones).

use rsched_cluster::ClusterConfig;
use rsched_schedulers::{ConservativeBackfill, EasyBackfill};
use rsched_sim::SimOptions;
use rsched_workloads::ArrivalMode;

use super::{scenario_jobs, CellWorkload, SimCell};
use crate::wrap::{CONSERVATIVE, EASY};

const JOBS: usize = 8000;

pub fn new(seed: u64, scale: usize) -> CellWorkload {
    let n = JOBS / scale;
    let strict = SimOptions {
        strict_backfill: true,
        ..SimOptions::default()
    };
    let flat = ClusterConfig::polaris();
    let classed = ClusterConfig::mixed_256();
    // `long_tail` is calibrated to the paper's machine and ignores the
    // context's; `gpu_skewed_hetmix` scales its demands to the classes.
    let flat_jobs = scenario_jobs(
        "long_tail",
        n,
        ArrivalMode::Static,
        seed,
        ClusterConfig::paper_default(),
    );
    let classed_jobs = scenario_jobs("gpu_skewed_hetmix", n, ArrivalMode::Static, seed, classed);
    CellWorkload {
        cells: vec![
            SimCell {
                label: "long_tail/polaris/Conservative",
                cluster: flat,
                jobs: flat_jobs.clone(),
                options: SimOptions::default(),
                key: &CONSERVATIVE,
                make: Box::new(|_| Box::new(ConservativeBackfill::new())),
            },
            SimCell {
                label: "long_tail/polaris/EASY-strict",
                cluster: flat,
                jobs: flat_jobs,
                options: strict,
                key: &EASY,
                make: Box::new(|_| Box::new(EasyBackfill::new())),
            },
            SimCell {
                label: "gpu_skewed_hetmix/mixed_256/Conservative",
                cluster: classed,
                jobs: classed_jobs.clone(),
                options: SimOptions::default(),
                key: &CONSERVATIVE,
                make: Box::new(|_| Box::new(ConservativeBackfill::new())),
            },
            SimCell {
                label: "gpu_skewed_hetmix/mixed_256/EASY-strict",
                cluster: classed,
                jobs: classed_jobs,
                options: strict,
                key: &EASY,
                make: Box::new(|_| Box::new(EasyBackfill::new())),
            },
        ],
    }
}
