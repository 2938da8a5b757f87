//! `sjf_8k`: 8000 `long_tail` jobs, all submitted at t = 0, on Polaris
//! under SJF.
//!
//! The same `JobStore`/wait queue as `trace_replay`, used the other way:
//! a linear minimum scan over the whole queue every epoch and a removal
//! from the middle, instead of a pop from the head. The queue stays below
//! the parallel-scan threshold, so no threads are involved and `decide`
//! carries the wall. An ordered index that makes this faster by taxing
//! arrival and insert has to show up on `trace_replay` and `backfill_8k`.

use rsched_cluster::ClusterConfig;
use rsched_schedulers::Sjf;
use rsched_sim::SimOptions;
use rsched_workloads::ArrivalMode;

use super::{scenario_jobs, CellWorkload, SimCell};
use crate::wrap::SJF;

const JOBS: usize = 8000;

pub fn new(seed: u64, scale: usize) -> CellWorkload {
    let cluster = ClusterConfig::polaris();
    CellWorkload {
        cells: vec![SimCell {
            label: "long_tail/polaris/SJF",
            cluster,
            jobs: scenario_jobs(
                "long_tail",
                JOBS / scale,
                ArrivalMode::Static,
                seed,
                ClusterConfig::paper_default(),
            ),
            options: SimOptions::default(),
            key: &SJF,
            make: Box::new(|_| Box::new(Sjf::default())),
        }],
    }
}
