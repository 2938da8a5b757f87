//! Results of one simulated scheduling run.

use rsched_cluster::JobRecord;
use rsched_simkit::SimTime;
use rsched_telemetry::EpochTrace;

use crate::policy::{Action, RejectReason};

/// One validated (or rejected) decision, with the context it was made in —
/// the raw material for the paper's decision traces (Figure 2) and call
/// counts (Figures 5–6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Simulation time of the decision epoch.
    pub time: SimTime,
    /// The action the policy proposed.
    pub action: Action,
    /// `None` if applied, `Some(reason)` if the constraint module rejected
    /// it.
    pub rejected: Option<RejectReason>,
    /// Waiting-queue length at the moment of the decision.
    pub queue_len: usize,
    /// Free nodes at the moment of the decision.
    pub free_nodes: u32,
    /// Free memory (GB) at the moment of the decision.
    pub free_memory_gb: u64,
}

impl DecisionRecord {
    /// `true` if the action was applied.
    pub fn accepted(&self) -> bool {
        self.rejected.is_none()
    }
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total policy queries (every `decide` call).
    pub queries: usize,
    /// Accepted `StartJob`/`BackfillJob` actions.
    pub placements: usize,
    /// Accepted `BackfillJob` actions (subset of `placements`).
    pub backfills: usize,
    /// Accepted `Delay` actions.
    pub delays: usize,
    /// Rejected actions of any kind.
    pub rejections: usize,
    /// Decision epochs (event times at which the policy was consulted).
    pub epochs: usize,
}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Name of the policy that produced this schedule.
    pub policy_name: String,
    /// Completed job records — the input to every §3.2 metric.
    pub records: Vec<JobRecord>,
    /// The decision log, one record per policy query — kept only when the
    /// run asks for it
    /// ([`Simulation::record_decisions`](crate::Simulation::record_decisions));
    /// otherwise empty and unallocated. A service replay always keeps it.
    pub decisions: Vec<DecisionRecord>,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Time the last job completed.
    pub end_time: SimTime,
    /// Per-epoch provenance: one record per decision epoch (and per
    /// watermark short-circuit), each carrying a machine-readable reason
    /// when no placement happened. Deterministic — recorded whether or not
    /// a telemetry sink was attached. Export with
    /// [`rsched_telemetry::export::epochs_to_jsonl`].
    pub epochs: Vec<EpochTrace>,
}

impl SimOutcome {
    /// Records of accepted placement decisions, in decision order (none
    /// when the decision log was not kept).
    pub fn placements(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.decisions
            .iter()
            .filter(|d| d.accepted() && d.action.is_placement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{JobId, JobSpec};
    use rsched_simkit::SimDuration;

    #[test]
    fn outcome_placement_filter() {
        let spec = JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(5), 1, 1);
        let rec = JobRecord::new(spec, SimTime::from_secs(2));
        let outcome = SimOutcome {
            policy_name: "test".into(),
            records: vec![rec],
            decisions: vec![
                DecisionRecord {
                    time: SimTime::ZERO,
                    action: Action::StartJob(JobId(1)),
                    rejected: None,
                    queue_len: 1,
                    free_nodes: 4,
                    free_memory_gb: 4,
                },
                DecisionRecord {
                    time: SimTime::ZERO,
                    action: Action::Delay,
                    rejected: None,
                    queue_len: 0,
                    free_nodes: 3,
                    free_memory_gb: 3,
                },
            ],
            stats: SimStats::default(),
            end_time: SimTime::from_secs(7),
            epochs: vec![],
        };
        assert_eq!(outcome.placements().count(), 1);
    }
}
