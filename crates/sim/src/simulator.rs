//! The virtual-time driver of the decision kernel (paper §3.1,
//! Algorithm 1's environment side).
//!
//! [`run_simulation`] drives a [`SchedulingPolicy`] over a workload until
//! every job completes, validating each proposed action (paper §2.4) and
//! advancing time only at arrivals and completions.
//!
//! The loop here is one of the two arrival sources over
//! [`crate::kernel::KernelState`]'s step. It walks the workload's arrivals
//! in submit order with a cursor and jumps the clock to the next arrival or
//! completion, whichever is earlier. At that instant it makes the kernel's
//! three calls: [`arrive`](KernelState::arrive) each job submitted then,
//! [`advance_to`](KernelState::advance_to) the instant, and
//! [`run_epoch`](KernelState::run_epoch). The wall-clock service daemon
//! (`rsched-service`) makes the *same* three calls with arrivals from a
//! live submission queue; both produce bit-identical decisions for
//! identical streams.
//!
//! The kernel is **zero-copy and incremental**: the waiting queue stays
//! sorted by `(rank, submit, id)` — an arrival is binary-searched to its
//! place, which in time order is the back
//! (rank is always 0 here, so the order is the paper's `(submit, id)`), a
//! start or completion writes one row of the cluster's slot table (the
//! id and end-time orders policies and calendars read are indices over it,
//! built at their first read and kept from then on), the completed jobs
//! are counted by the cluster ledger, and every policy
//! query receives a [`SystemView`](crate::SystemView) that *borrows* this
//! state. Per-event work is O(log n), which is what makes 100k-job
//! SWF-archive replays run in seconds.

use rsched_cluster::{ClusterConfig, JobId, JobSpec, PlacementRequest, MAX_CLASSES};
use rsched_simkit::SimTime;

use crate::kernel::KernelState;
use crate::outcome::SimOutcome;
use crate::policy::SchedulingPolicy;

/// Simulator knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Hard cap on total policy queries across the run.
    pub max_queries: usize,
    /// Veto a `BackfillJob` that fails the EASY rule
    /// ([`HeadReservation::admits`](crate::HeadReservation::admits)) on the
    /// actual-end calendar. The paper's constraint module checks only
    /// resource feasibility and eligibility (§2.4), so this defaults to
    /// `false`. No builtin policy needs it — `EasyBackfill` keeps its own
    /// head reservation — so it is for policies that cannot check (the
    /// agents' ablation); a refused policy that proposes the same job
    /// again meets the §2.4 retry bound.
    pub strict_backfill: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_queries: 1_000_000,
            strict_backfill: false,
        }
    }
}

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Two jobs share an id.
    DuplicateJobId(JobId),
    /// A job demands more than the machine has; it could never run.
    InfeasibleJob {
        /// Offending job.
        id: JobId,
        /// Nodes requested.
        nodes: u32,
        /// Memory requested (GB).
        memory_gb: u64,
    },
    /// The policy delayed (or was forced to delay) with no future event to
    /// advance to: jobs wait forever.
    Stuck {
        /// Time at which progress stopped.
        time: SimTime,
        /// Jobs still waiting.
        waiting: usize,
    },
    /// The policy query budget was exhausted.
    QueryBudgetExhausted {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            SimError::InfeasibleJob {
                id,
                nodes,
                memory_gb,
            } => write!(
                f,
                "job {id} requests {nodes} nodes / {memory_gb} GB, exceeding machine capacity"
            ),
            SimError::Stuck { time, waiting } => write!(
                f,
                "simulation stuck at {time}: {waiting} job(s) waiting with no future events"
            ),
            SimError::QueryBudgetExhausted { limit } => {
                write!(f, "policy query budget ({limit}) exhausted")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Run `policy` over `jobs` on a cluster of the given configuration.
///
/// Returns the completed schedule, the full decision log and aggregate
/// counters. The run is deterministic given a deterministic policy.
///
/// This is a compatibility wrapper over the [`Simulation`](crate::Simulation)
/// builder, which additionally takes a telemetry sink.
pub fn run_simulation(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: &mut dyn SchedulingPolicy,
    options: &SimOptions,
) -> Result<SimOutcome, SimError> {
    crate::Simulation::new(config)
        .jobs(jobs)
        .options(*options)
        .run(policy)
}

/// The virtual-time event loop shared by [`run_simulation`] and the
/// [`Simulation`](crate::Simulation) builder: a thin driver over
/// [`KernelState`] that jumps the clock straight to the next event.
/// `telemetry` is installed into the kernel.
pub(crate) fn simulate_with_telemetry(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: &mut dyn SchedulingPolicy,
    options: &SimOptions,
    telemetry: rsched_telemetry::TelemetrySink,
) -> Result<SimOutcome, SimError> {
    validate_workload(config, jobs)?;

    // The order jobs arrive in: by submit time, list order breaking ties.
    // Workloads come submit-sorted from every generator and ingest path,
    // and then the list *is* the order; one that does not gets one stably
    // sorted index.
    let sorted_index: Option<Vec<usize>> = if jobs.windows(2).all(|w| w[0].submit <= w[1].submit) {
        None
    } else {
        let mut index: Vec<usize> = (0..jobs.len()).collect();
        index.sort_by_key(|&at| jobs[at].submit);
        Some(index)
    };
    let arrival = |k: usize| match &sorted_index {
        None => jobs.get(k),
        Some(index) => index.get(k).map(|&at| &jobs[at]),
    };

    let start_time = arrival(0).map_or(SimTime::ZERO, |j| j.submit);
    let mut kernel = KernelState::with_event_capacity(config, start_time, jobs.len());
    kernel.set_telemetry(telemetry);

    // The cursor: `arrived` jobs of the submit order have been delivered.
    let mut arrived = 0usize;
    let mut now = start_time;

    while kernel.completed_len() < jobs.len() {
        // Nothing left to arrive and nothing running (the heap holds one
        // completion per running job): the jobs still waiting were delayed
        // with no event left to move time on.
        let next_arrival = arrival(arrived).map(|j| j.submit);
        let Some(t) = [next_arrival, kernel.next_event_time()]
            .into_iter()
            .flatten()
            .min()
        else {
            return Err(SimError::Stuck {
                time: now,
                waiting: kernel.waiting_len(),
            });
        };
        now = t;

        // This instant's arrivals (sorted insert — the queue is never
        // re-sorted), then its completions, then the decision epoch, which
        // the kernel skips for saturated states (§3.7.1) and offers an
        // empty queue once everything has arrived, for the final `Stop`.
        while let Some(job) = arrival(arrived).filter(|j| j.submit == now) {
            kernel.arrive(job.clone());
            arrived += 1;
        }
        kernel.advance_to(now);
        kernel.run_epoch(now, jobs.len() - arrived, jobs.len(), policy, options)?;
    }

    Ok(kernel.into_outcome(policy.name().to_string(), now))
}

/// Could `job` ever run on an *empty* machine of this configuration?
///
/// On a classed machine a job is feasible exactly when some class
/// combination could host it with every node free. The simulator checks
/// this for whole workloads upfront ([`validate_workload`]); the service
/// daemon checks it per submission at the front door.
pub fn job_is_feasible(config: ClusterConfig, job: &JobSpec) -> bool {
    if config.topology.is_flat() {
        job.nodes <= config.nodes && job.memory_gb <= config.memory_gb
    } else {
        let mut empty_free = [0u32; MAX_CLASSES];
        for (slot, class) in config.topology.classes() {
            empty_free[slot] = class.count;
        }
        PlacementRequest::from(job).fits_classes(&config.topology, &empty_free)
    }
}

/// Reject workloads the run could never finish: duplicate ids and jobs
/// larger than the machine. The first offender in list order is the one
/// reported.
pub fn validate_workload(config: ClusterConfig, jobs: &[JobSpec]) -> Result<(), SimError> {
    let repeat = first_repeated_id(jobs);
    for (at, job) in jobs.iter().enumerate() {
        if repeat == Some(at) {
            return Err(SimError::DuplicateJobId(job.id));
        }
        if !job_is_feasible(config, job) {
            return Err(SimError::InfeasibleJob {
                id: job.id,
                nodes: job.nodes,
                memory_gb: job.memory_gb,
            });
        }
    }
    Ok(())
}

/// Index of the first job whose id an earlier job already carries. Ids
/// that strictly ascend — every ingest path and generator re-identifies
/// sequentially — are distinct on sight; any other list is checked on a
/// sorted copy of its `(id, index)` pairs.
fn first_repeated_id(jobs: &[JobSpec]) -> Option<usize> {
    if jobs.windows(2).all(|w| w[0].id < w[1].id) {
        return None;
    }
    let mut ids: Vec<(JobId, usize)> = jobs.iter().map(|j| j.id).zip(0..).collect();
    ids.sort_unstable();
    ids.windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Action, RejectReason};
    use crate::view::SystemView;
    use rsched_simkit::SimDuration;

    /// Starts the first waiting job that fits; delays otherwise; stops when
    /// everything has been started.
    struct GreedyFirstFit;

    impl SchedulingPolicy for GreedyFirstFit {
        fn name(&self) -> &str {
            "greedy-first-fit"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            if view.all_jobs_started() {
                return Action::Stop;
            }
            match view.eligible_now().next() {
                Some(j) => Action::StartJob(j.id),
                None => Action::Delay,
            }
        }
    }

    /// Always proposes a nonexistent job — exercises the invalid-action path.
    struct AlwaysInvalid;

    impl SchedulingPolicy for AlwaysInvalid {
        fn name(&self) -> &str {
            "always-invalid"
        }
        fn decide(&mut self, _view: &SystemView<'_>) -> Action {
            Action::StartJob(JobId(9999))
        }
    }

    fn spec(id: u32, submit_s: u64, dur_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            id % 3,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(dur_s),
            nodes,
            mem,
        )
    }

    fn small_cluster() -> ClusterConfig {
        ClusterConfig::new(8, 64)
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = vec![spec(1, 0, 100, 4, 16)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].start, SimTime::ZERO);
        assert_eq!(out.records[0].end, SimTime::from_secs(100));
        assert_eq!(out.end_time, SimTime::from_secs(100));
        assert_eq!(out.stats.placements, 1);
        // node_seconds = 4 nodes * 100 s.
        assert!((out.node_seconds - 400.0).abs() < 1e-9);
        assert!((out.memory_gb_seconds - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_jobs_share_the_machine() {
        // Two 4-node jobs fit side by side on 8 nodes.
        let jobs = vec![spec(1, 0, 100, 4, 16), spec(2, 0, 100, 4, 16)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.end_time, SimTime::from_secs(100), "ran concurrently");
        assert!(out.records.iter().all(|r| r.start == SimTime::ZERO));
    }

    #[test]
    fn oversubscribed_jobs_serialize() {
        // Two 8-node jobs must run one after the other.
        let jobs = vec![spec(1, 0, 100, 8, 16), spec(2, 0, 50, 8, 16)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.end_time, SimTime::from_secs(150));
        let r2 = out.records.iter().find(|r| r.spec.id == JobId(2)).unwrap();
        assert_eq!(r2.start, SimTime::from_secs(100));
        assert_eq!(r2.wait(), SimDuration::from_secs(100));
    }

    #[test]
    fn dynamic_arrival_waits_for_submit_time() {
        let jobs = vec![spec(1, 500, 10, 1, 1)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.records[0].start, SimTime::from_secs(500));
        assert_eq!(out.records[0].wait(), SimDuration::ZERO);
    }

    #[test]
    fn idle_gap_between_arrivals_is_skipped() {
        let jobs = vec![spec(1, 0, 10, 8, 16), spec(2, 1000, 10, 8, 16)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.end_time, SimTime::from_secs(1010));
        // Utilization integral only counts busy time: 2 jobs × 8 nodes × 10 s.
        assert!((out.node_seconds - 160.0).abs() < 1e-9);
    }

    #[test]
    fn memory_constraint_serializes_jobs() {
        // Node-light but memory-heavy jobs: 40 GB each on a 64 GB machine.
        let jobs = vec![spec(1, 0, 100, 1, 40), spec(2, 0, 100, 1, 40)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.end_time, SimTime::from_secs(200));
    }

    #[test]
    fn invalid_policy_gets_stuck_error() {
        let jobs = vec![spec(1, 0, 10, 1, 1)];
        let err = run_simulation(
            small_cluster(),
            &jobs,
            &mut AlwaysInvalid,
            &SimOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }), "got {err:?}");
    }

    #[test]
    fn rejections_are_recorded_and_bounded() {
        let jobs = vec![spec(1, 0, 10, 1, 1), spec(2, 0, 10, 1, 1)];
        // Policy that proposes an invalid id once, then behaves.
        struct OneBadThenGreedy(bool);
        impl SchedulingPolicy for OneBadThenGreedy {
            fn name(&self) -> &str {
                "one-bad"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                if !self.0 {
                    self.0 = true;
                    return Action::StartJob(JobId(777));
                }
                if view.all_jobs_started() {
                    return Action::Stop;
                }
                match view.eligible_now().next() {
                    Some(j) => Action::StartJob(j.id),
                    None => Action::Delay,
                }
            }
        }
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut OneBadThenGreedy(false),
            &SimOptions::default(),
        )
        .expect("completes despite one bad action");
        assert_eq!(out.stats.rejections, 1);
        assert_eq!(out.records.len(), 2);
        let rejected: Vec<_> = out.decisions.iter().filter(|d| !d.accepted()).collect();
        assert_eq!(rejected.len(), 1);
        assert_eq!(
            rejected[0].rejected,
            Some(RejectReason::NotInQueue(JobId(777)))
        );
    }

    #[test]
    fn stop_with_pending_jobs_is_rejected() {
        struct EagerStopper {
            tried_early_stop: bool,
        }
        impl SchedulingPolicy for EagerStopper {
            fn name(&self) -> &str {
                "eager-stopper"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                if view.waiting.is_empty() {
                    return Action::Stop;
                }
                // Propose one premature Stop; after its rejection, behave.
                if !self.tried_early_stop {
                    self.tried_early_stop = true;
                    return Action::Stop;
                }
                match view.eligible_now().next() {
                    Some(j) => Action::StartJob(j.id),
                    None => Action::Delay,
                }
            }
        }
        let jobs = vec![spec(1, 0, 10, 1, 1), spec(2, 0, 10, 1, 1)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut EagerStopper {
                tried_early_stop: false,
            },
            &SimOptions::default(),
        )
        .expect("completes");
        let stop_rejects: Vec<_> = out
            .decisions
            .iter()
            .filter(|d| d.action == Action::Stop && !d.accepted())
            .collect();
        assert!(!stop_rejects.is_empty(), "early Stop should be rejected");
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn backfill_of_head_job_acts_like_start() {
        struct BackfillEverything;
        impl SchedulingPolicy for BackfillEverything {
            fn name(&self) -> &str {
                "backfill-all"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                if view.all_jobs_started() {
                    return Action::Stop;
                }
                match view.eligible_now().next() {
                    Some(j) => Action::BackfillJob(j.id),
                    None => Action::Delay,
                }
            }
        }
        let jobs = vec![spec(1, 0, 10, 4, 8), spec(2, 0, 10, 4, 8)];
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut BackfillEverything,
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(out.stats.backfills, 2);
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn unsafe_backfill_is_rejected() {
        // A running job occupies 4 nodes until t=100. Head job 1 wants all 8
        // nodes (shadow = 100). Job 2 wants 4 nodes for 1000 s: it fits now
        // but at t=100 head needs 8 + job 2's 4 > 8 — it would delay the head.
        let jobs = vec![
            spec(0, 0, 100, 4, 8),  // becomes the running job
            spec(1, 0, 50, 8, 8),   // head, can't start until t=100
            spec(2, 0, 1000, 4, 8), // unsafe backfill candidate
        ];
        struct Scripted(usize);
        impl SchedulingPolicy for Scripted {
            fn name(&self) -> &str {
                "scripted"
            }
            fn decide(&mut self, view: &SystemView<'_>) -> Action {
                self.0 += 1;
                match self.0 {
                    1 => Action::StartJob(JobId(0)),
                    2 => Action::BackfillJob(JobId(2)),
                    _ => {
                        if view.all_jobs_started() {
                            return Action::Stop;
                        }
                        match view.eligible_now().next() {
                            Some(j) => Action::StartJob(j.id),
                            None => Action::Delay,
                        }
                    }
                }
            }
        }
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut Scripted(0),
            &SimOptions {
                strict_backfill: true,
                ..SimOptions::default()
            },
        )
        .expect("completes");
        let delayed_head_rejects: Vec<_> = out
            .decisions
            .iter()
            .filter(|d| matches!(d.rejected, Some(RejectReason::WouldDelayHead { .. })))
            .collect();
        assert_eq!(
            delayed_head_rejects.len(),
            1,
            "decisions: {:#?}",
            out.decisions
        );
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn duplicate_ids_rejected_upfront() {
        let jobs = vec![spec(1, 0, 10, 1, 1), spec(1, 0, 10, 1, 1)];
        let err = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::DuplicateJobId(JobId(1)));
    }

    #[test]
    fn infeasible_job_rejected_upfront() {
        let jobs = vec![spec(1, 0, 10, 9, 1)];
        let err = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InfeasibleJob { .. }));
    }

    #[test]
    fn simulation_is_deterministic() {
        let jobs: Vec<JobSpec> = (0..20)
            .map(|i| {
                spec(
                    i,
                    (i as u64) * 7 % 50,
                    20 + (i as u64 * 13) % 80,
                    1 + i % 8,
                    1 + (i as u64 * 5) % 60,
                )
            })
            .collect();
        let a = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        let b = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(a.records, b.records);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn capacity_invariant_holds_throughout() {
        // Stress: 50 random-ish jobs; after the run the recorded schedule
        // must never exceed capacity at any instant.
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| {
                spec(
                    i,
                    (i as u64 * 31) % 200,
                    10 + (i as u64 * 17) % 90,
                    1 + (i * 3) % 8,
                    1 + (i as u64 * 11) % 64,
                )
            })
            .collect();
        let out = run_simulation(
            small_cluster(),
            &jobs,
            &mut GreedyFirstFit,
            &SimOptions::default(),
        )
        .expect("runs");
        assert_eq!(out.records.len(), 50);
        // Check the schedule against capacity at every start instant.
        for probe in &out.records {
            let t = probe.start;
            let nodes: u32 = out
                .records
                .iter()
                .filter(|r| r.start <= t && t < r.end)
                .map(|r| r.spec.nodes)
                .sum();
            let mem: u64 = out
                .records
                .iter()
                .filter(|r| r.start <= t && t < r.end)
                .map(|r| r.spec.memory_gb)
                .sum();
            assert!(nodes <= 8, "node capacity violated at {t}");
            assert!(mem <= 64, "memory capacity violated at {t}");
        }
    }

    #[test]
    fn query_budget_enforced() {
        let jobs = vec![spec(1, 0, 10, 1, 1)];
        struct DelayForever;
        impl SchedulingPolicy for DelayForever {
            fn name(&self) -> &str {
                "delay-forever"
            }
            fn decide(&mut self, _view: &SystemView<'_>) -> Action {
                Action::Delay
            }
        }
        let err = run_simulation(
            small_cluster(),
            &jobs,
            &mut DelayForever,
            &SimOptions {
                max_queries: 3,
                strict_backfill: false,
            },
        )
        .unwrap_err();
        // Delaying forever with no running jobs → stuck (before budget).
        assert!(
            matches!(
                err,
                SimError::Stuck { .. } | SimError::QueryBudgetExhausted { .. }
            ),
            "got {err:?}"
        );
    }
}
