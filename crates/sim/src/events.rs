//! Simulation event types.
//!
//! The paper's discrete-event system advances only at **job arrivals** and
//! **job completions** (§3.1). Only completions are *events* here: a
//! placement schedules one on the kernel's heap at the job's end time.
//! Arrivals never enter the heap — a driver knows its own (the simulator
//! walks the workload in submit order, the service takes them off its
//! ingest queue) and hands them to the kernel at their instant, ahead of
//! that instant's completions.

use rsched_cluster::JobId;

/// A discrete event on the kernel's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The given running job finishes and releases its resources.
    Completion(JobId),
}
