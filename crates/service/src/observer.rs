//! Streaming service telemetry.
//!
//! A [`ServiceObserver`] rides along inside the service loop and sees every
//! tick, admission verdict, scheduling decision, and completion as it
//! happens — no post-hoc log scraping, no unbounded buffering.

use rsched_cluster::{JobRecord, JobSpec};
use rsched_sim::DecisionRecord;
use rsched_simkit::SimTime;

use crate::admission::AdmissionError;
use crate::core::ServiceReport;
use crate::tenant::TenantId;

/// Per-tick aggregates streamed to [`ServiceObserver::on_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickStats {
    /// Service time of this tick.
    pub now: SimTime,
    /// Submissions ingested from the channel this tick (admitted or not).
    pub submitted: usize,
    /// Submissions admitted to the waiting queue this tick.
    pub admitted: usize,
    /// Submissions rejected this tick.
    pub rejected: usize,
    /// Jobs that completed this tick.
    pub completions: usize,
    /// Policy decisions recorded this tick.
    pub decisions: usize,
    /// Waiting-queue depth after the tick.
    pub queue_depth: usize,
    /// Running jobs after the tick.
    pub running: usize,
    /// Wall-clock cost of the whole tick, in nanoseconds.
    pub wall_nanos: u64,
}

/// Observer of a live service run. All methods default to no-ops; implement
/// the ones you care about.
pub trait ServiceObserver {
    /// A tick finished.
    fn on_tick(&mut self, stats: &TickStats) {
        let _ = stats;
    }

    /// A submission was admitted to the waiting queue.
    fn on_admit(&mut self, tenant: TenantId, job: &JobSpec, now: SimTime) {
        let _ = (tenant, job, now);
    }

    /// A submission was rejected at the front door.
    fn on_reject(
        &mut self,
        tenant: TenantId,
        job: &JobSpec,
        reason: &AdmissionError,
        now: SimTime,
    ) {
        let _ = (tenant, job, reason, now);
    }

    /// The policy issued a decision (accepted or rejected by validation).
    fn on_decision(&mut self, record: &DecisionRecord) {
        let _ = record;
    }

    /// A job finished and released its resources.
    fn on_completion(&mut self, record: &JobRecord) {
        let _ = record;
    }

    /// The service drained and is shutting down.
    fn on_drain(&mut self, report: &ServiceReport) {
        let _ = report;
    }
}

/// Counts every callback; handy in tests and smoke checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingServiceObserver {
    /// Ticks observed.
    pub ticks: usize,
    /// Admissions observed.
    pub admits: usize,
    /// Rejections observed.
    pub rejects: usize,
    /// Decisions observed.
    pub decisions: usize,
    /// Completions observed.
    pub completions: usize,
    /// Drain notifications observed (0 or 1).
    pub drains: usize,
}

impl ServiceObserver for CountingServiceObserver {
    fn on_tick(&mut self, _stats: &TickStats) {
        self.ticks += 1;
    }
    fn on_admit(&mut self, _tenant: TenantId, _job: &JobSpec, _now: SimTime) {
        self.admits += 1;
    }
    fn on_reject(
        &mut self,
        _tenant: TenantId,
        _job: &JobSpec,
        _reason: &AdmissionError,
        _now: SimTime,
    ) {
        self.rejects += 1;
    }
    fn on_decision(&mut self, _record: &DecisionRecord) {
        self.decisions += 1;
    }
    fn on_completion(&mut self, _record: &JobRecord) {
        self.completions += 1;
    }
    fn on_drain(&mut self, _report: &ServiceReport) {
        self.drains += 1;
    }
}
