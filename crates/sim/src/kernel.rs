//! The driver-agnostic decision kernel.
//!
//! [`KernelState`] owns everything a scheduling run needs between clock
//! ticks — the cluster ledger (whose slot table is the one record of what
//! runs; policies read it by id, capacity calendars — built by whoever
//! asks, into a buffer it keeps — by end time, through indices built at
//! their first read), the completion heap, the sorted
//! rank-ordered wait queue and the decision log — and exposes the one step
//! both drivers share: deliver arrivals, [`KernelState::advance_to`] the
//! tick's instant, then [`KernelState::run_epoch`], the validated
//! propose/apply/record loop of paper §2.4.
//!
//! Two drivers sit on top:
//!
//! * the **virtual-time simulator**
//!   ([`simulate`](crate::simulator), via [`Simulation`](crate::Simulation))
//!   walks the workload's arrivals in submit order and jumps the clock to
//!   the next arrival or completion, whichever is earlier — time is free,
//!   so a 100k-job year replays in a fraction of a second
//!   and a 1M-job synthetic Polaris stream in seconds (the wait queue is
//!   struct-of-arrays with dense demand columns that the one serial
//!   placement scan walks behind O(1) watermarks — see
//!   [`crate::store::JobStore`] and [`crate::scan`]);
//! * the **service driver** (`rsched-service`) feeds arrivals from a live
//!   submission channel and ticks on a real (or manually advanced) clock,
//!   optionally tagging each arrival with a fair-share *rank* that the
//!   queue folds into its ordering.
//!
//! Both produce bit-identical decision sequences when fed the same stream
//! at the same instants: the kernel is the single source of truth, the
//! drivers only decide *when* it runs and *how* jobs reach it.

use rsched_cluster::{ClusterConfig, ClusterState, JobRecord, JobSpec, RunningOrder, StartError};
use rsched_simkit::{EventQueue, SimTime};
use rsched_telemetry::{DelayReason, EpochOutcome, EpochTrace, TelemetrySink};

use crate::outcome::{DecisionRecord, SimOutcome, SimStats};
use crate::policy::{Action, ActionOutcome, RejectReason, SchedulingPolicy};
use crate::profile::CapacityCalendar;
use crate::queue::WaitQueue;
use crate::simulator::{SimError, SimOptions};
use crate::view::{SystemView, Waiting};

/// The scheduling state machine shared by the virtual-time simulator and
/// the wall-clock service daemon.
///
/// A driver's contract is paper §3.1's step — *"inject any newly arrived
/// jobs into the waiting queue, update the status of running jobs
/// (releasing resources for those that have finished), and then determine
/// the next scheduling action"* — as three calls per tick at time `now`:
///
/// 1. deliver the arrivals due at `now` ([`arrive`](Self::arrive) /
///    [`arrive_batch`](Self::arrive_batch)): they come from the driver,
///    which alone knows them, so the kernel's heap holds completions only
///    and is never deeper than the running set;
/// 2. [`advance_to(now)`](Self::advance_to): every completion due by `now`
///    is retired at its own end time;
/// 3. [`run_epoch`](Self::run_epoch), which consults the policy if the
///    query discipline says to, and appends to [`epochs`](Self::epochs)
///    and, when the kernel keeps one, to [`decisions`](Self::decisions).
///
/// Determinism: given the same (time, arrivals) sequence and a
/// deterministic policy, every field of the kernel evolves identically
/// regardless of which driver is ticking it.
#[derive(Debug)]
pub struct KernelState {
    cluster: ClusterState,
    /// One completion per running job, keyed by its end time: the job's
    /// slot in the cluster's running table.
    events: EventQueue<usize>,
    queue: WaitQueue,
    /// The strict-backfill veto's actual-end calendar, rebuilt per veto
    /// into the same buffer.
    calendar: CapacityCalendar,
    /// Whether [`run_epoch`](Self::run_epoch) logs a [`DecisionRecord`]
    /// per query into `decisions`; when not, `decisions` stays unallocated.
    record_decisions: bool,
    decisions: Vec<DecisionRecord>,
    stats: SimStats,
    stopped: bool,
    telemetry: TelemetrySink,
    epochs: Vec<EpochTrace>,
    /// The deepest the event heap has been.
    event_heap_peak: usize,
}

impl KernelState {
    /// A fresh kernel on an empty cluster. It keeps the decision log: a
    /// live driver (the service daemon) reads each tick's new
    /// [`decisions`](Self::decisions) and then clears them.
    pub fn new(config: ClusterConfig) -> Self {
        KernelState {
            cluster: ClusterState::new(config),
            events: EventQueue::new(),
            queue: WaitQueue::new(config.topology),
            calendar: CapacityCalendar::default(),
            record_decisions: true,
            decisions: Vec::new(),
            stats: SimStats::default(),
            stopped: false,
            telemetry: TelemetrySink::disabled(),
            epochs: Vec::new(),
            event_heap_peak: 0,
        }
    }

    /// A kernel for a workload known to hold `jobs` jobs, which logs its
    /// decisions only if `record_decisions` is set. The completed-record
    /// and epoch logs each reserve one entry per job, and so does the
    /// decision log when it is kept (every job leaves a record and takes
    /// at least one query, so none of that is slack, and a log that grows
    /// past it has a few doublings left to do instead of all of them); a
    /// decision log that is not kept reserves nothing. The event heap is
    /// left to grow: it holds one completion per *running* job.
    pub(crate) fn with_event_capacity(
        config: ClusterConfig,
        jobs: usize,
        record_decisions: bool,
    ) -> Self {
        let mut kernel = KernelState::new(config);
        kernel.record_decisions = record_decisions;
        kernel.cluster.reserve_completed(jobs);
        if record_decisions {
            kernel.decisions.reserve(jobs);
        }
        kernel.epochs.reserve(jobs);
        kernel
    }

    /// End time of the earliest running job, if any: the next instant
    /// [`advance_to`](Self::advance_to) has work at.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    // ---- the driver's step ------------------------------------------------

    /// A job joins the waiting queue at the default rank 0 — pure
    /// `(submit, id)` order, the simulator's (and the paper's) behaviour.
    pub fn arrive(&mut self, job: JobSpec) {
        self.queue.insert(job);
    }

    /// Every `(job, rank)` of `batch` joins the waiting queue in one merge
    /// (the batch is sorted in place by queue key), leaving it as
    /// delivering the jobs one at a time in any order would. A lower
    /// fair-share `rank` sorts earlier; ties fall back to `(submit, id)`,
    /// so rank 0 is [`arrive`](Self::arrive)'s order. What a driver that
    /// collects a tick's admissions before anything reads the queue — the
    /// service daemon — hands over.
    pub fn arrive_batch(&mut self, batch: &mut [(JobSpec, u64)]) {
        self.queue.arrive(batch);
    }

    /// Move the clock to `now`: retire every running job that ends at or
    /// before `now` at its own end time — an instant's completions in the
    /// order their placements scheduled them, each releasing its resources
    /// at its exact end time, which the cluster ledger asserts. Returns how
    /// many jobs were retired. The simulator calls it once per event time;
    /// a service tick may jump past several.
    pub fn advance_to(&mut self, now: SimTime) -> usize {
        let mut retired = 0;
        while let Some((&at, &slot)) = self.events.peek().filter(|&(&at, _)| at <= now) {
            self.events.pop();
            self.cluster.complete_job(slot, at);
            retired += 1;
        }
        retired
    }

    /// Should the policy be consulted this tick?
    ///
    /// The paper's query discipline (§3.7.1): saturated states (jobs
    /// waiting but nothing fits) skip the query — the queue's fit summary
    /// proves most of them in O(1) on a flat machine and all of them in
    /// O(2^classes) on a classed one — and an empty queue is only
    /// queried once nothing more is pending, to offer the final `Stop`. A
    /// kernel that has stopped never queries.
    ///
    /// When the queue is saturated (jobs waiting, nothing fits)
    /// a [`EpochOutcome::Saturated`] provenance record is appended at `now`
    /// so the trace explains the skipped query — recorded whether or not a
    /// telemetry sink is attached, keeping [`epochs`](Self::epochs)
    /// deterministic.
    fn should_query(&mut self, now: SimTime, pending_arrivals: usize) -> bool {
        if self.stopped {
            return false;
        }
        if self.queue.is_empty() {
            return pending_arrivals == 0;
        }
        if self.queue.any_fits(&self.cluster) {
            return true;
        }
        let queue_len = self.queue.len() as u32;
        let trace = EpochTrace {
            time: now,
            outcome: EpochOutcome::Saturated,
            reason: Some(DelayReason::WatermarkSaturated { queue_len }),
            queue_len,
            queries: 0,
        };
        self.epochs.push(trace);
        self.telemetry.count_epoch(&trace);
        false
    }

    /// The decision epoch at time `now`, if the query discipline (above)
    /// calls for one: query the policy, validate and apply each action,
    /// log a [`DecisionRecord`] per query if the kernel keeps the log,
    /// until the epoch closes with a `Delay`, `Stop`, or saturation.
    /// Returns whether the policy was consulted.
    ///
    /// `pending_arrivals` is the driver's count of jobs known to be still
    /// on their way (unsent workload jobs for the simulator; a nonzero
    /// sentinel for a live daemon that cannot know).
    ///
    /// A driver that streams [`decisions`](Self::decisions) notes its
    /// length before and reads the new suffix after — **even when this
    /// returns an error**, so observers see everything that happened
    /// before failure.
    pub fn run_epoch(
        &mut self,
        now: SimTime,
        pending_arrivals: usize,
        total_jobs: usize,
        policy: &mut dyn SchedulingPolicy,
        options: &SimOptions,
    ) -> Result<bool, SimError> {
        /// After this many consecutive rejected actions in one epoch the
        /// kernel forces a `Delay` — bounding the retry loop of paper §2.4
        /// so a confused policy cannot livelock.
        const MAX_CONSECUTIVE_INVALID: usize = 5;

        if !self.should_query(now, pending_arrivals) {
            return Ok(false);
        }
        self.stats.epochs += 1;
        let _epoch_span = self.telemetry.span("kernel.epoch", now);
        let mut consecutive_invalid = 0usize;
        let mut epoch_placements = 0u32;
        let mut epoch_backfills = 0u32;
        let mut epoch_queries = 0u32;
        let close = loop {
            if self.stats.queries >= options.max_queries {
                return Err(SimError::QueryBudgetExhausted {
                    limit: options.max_queries,
                });
            }
            let action = policy.decide(&self.view(now, pending_arrivals, total_jobs));
            self.stats.queries += 1;
            epoch_queries += 1;

            let verdict = self.validate_and_apply(now, pending_arrivals, options, action);
            // One clone of the rejection reason, shared by the outcome
            // (moved into the record below, if one is kept).
            let outcome = ActionOutcome {
                time: now,
                action,
                rejected: verdict.as_ref().err().cloned(),
            };
            policy.observe(&outcome);
            if self.record_decisions {
                self.decisions.push(DecisionRecord {
                    time: now,
                    action,
                    rejected: outcome.rejected,
                    queue_len: self.queue.len(),
                    free_nodes: self.cluster.free_nodes(),
                    free_memory_gb: self.cluster.free_memory_gb(),
                });
            }

            match verdict {
                Ok(Applied::Placement) => {
                    consecutive_invalid = 0;
                    self.stats.placements += 1;
                    epoch_placements += 1;
                    if matches!(action, Action::BackfillJob(_)) {
                        self.stats.backfills += 1;
                        epoch_backfills += 1;
                    }
                    // Same-timestep continuation: more jobs may fit now.
                    if self.queue.is_empty() && pending_arrivals > 0 {
                        break EpochClose::Placed;
                    }
                    if !self.queue.is_empty() && !self.queue.any_fits(&self.cluster) {
                        // Saturated again: skip the redundant Delay round-trip.
                        break EpochClose::Placed;
                    }
                    // Otherwise loop on — including the empty-queue case,
                    // which offers the policy its Stop query.
                }
                Ok(Applied::Delay) => {
                    self.stats.delays += 1;
                    break EpochClose::Delay;
                }
                Ok(Applied::Stop) => {
                    self.stopped = true;
                    break EpochClose::Stop;
                }
                Err(_) => {
                    self.stats.rejections += 1;
                    consecutive_invalid += 1;
                    if consecutive_invalid >= MAX_CONSECUTIVE_INVALID {
                        // Force a delay: the policy is confused; move time on.
                        self.stats.delays += 1;
                        break EpochClose::Forced;
                    }
                }
            }
        };

        // Provenance: one record per epoch, always — the trace must stay
        // deterministic whether or not a sink is attached.
        let outcome = if epoch_placements > 0 {
            EpochOutcome::Placements {
                count: epoch_placements,
                backfills: epoch_backfills,
            }
        } else {
            match close {
                EpochClose::Delay => EpochOutcome::Delay,
                EpochClose::Forced => EpochOutcome::ForcedDelay,
                EpochClose::Stop => EpochOutcome::Stop,
                // Placed only breaks after a placement.
                EpochClose::Placed => EpochOutcome::Placements {
                    count: 0,
                    backfills: 0,
                },
            }
        };
        let reason = if epoch_placements > 0 {
            None
        } else {
            match close {
                EpochClose::Delay => {
                    Some(policy.provenance().unwrap_or(if self.queue.is_empty() {
                        DelayReason::QueueEmpty
                    } else {
                        DelayReason::PolicyChoice
                    }))
                }
                EpochClose::Forced => Some(DelayReason::InvalidActions {
                    rejections: consecutive_invalid as u32,
                }),
                EpochClose::Stop | EpochClose::Placed => None,
            }
        };
        let trace = EpochTrace {
            time: now,
            outcome,
            reason,
            queue_len: self.queue.len() as u32,
            queries: epoch_queries,
        };
        self.epochs.push(trace);
        if self.telemetry.is_enabled() {
            self.telemetry.count_epoch(&trace);
            self.harvest_counters();
        }
        Ok(true)
    }

    /// Mirror the kernel's aggregate counters into the attached sink's
    /// metrics registry (absolute sets, so the namespace always shows run
    /// totals). Called at the close of every epoch when a sink is attached.
    fn harvest_counters(&self) {
        let t = &self.telemetry;
        t.set_counter("sim_epochs_total", self.stats.epochs as u64);
        t.set_counter("sim_queries_total", self.stats.queries as u64);
        t.set_counter("sim_placements_total", self.stats.placements as u64);
        t.set_counter("sim_backfills_total", self.stats.backfills as u64);
        t.set_counter("sim_delays_total", self.stats.delays as u64);
        t.set_counter("sim_rejections_total", self.stats.rejections as u64);
        let built = |order| u64::from(self.cluster.order_built(order));
        let running_builds = built(RunningOrder::Id);
        t.set_counter("sim_running_index_builds_total", running_builds);
        let release_builds = built(RunningOrder::ExpectedEnd) + built(RunningOrder::End);
        t.set_counter("sim_release_index_builds_total", release_builds);
        let (builds, probes) = self.queue.order_counters();
        t.set_counter("sim_queue_index_builds_total", builds);
        t.set_counter("sim_queue_index_probes_total", probes);
        let (builds, entries) = self.queue.arrival_counters();
        t.set_counter("sim_queue_arrival_index_builds_total", builds);
        t.set_counter("sim_queue_arrival_entries_total", entries);
        let builds = self.queue.slot_index_builds();
        t.set_counter("sim_queue_slot_index_builds_total", builds);
        let shifts = self.queue.arrival_shifts();
        t.set_counter("sim_queue_arrival_shifts_total", shifts);
        let moves = self.queue.removal_moves();
        t.set_counter("sim_queue_removal_moves_total", moves);
        t.set_gauge("sim_queue_depth", self.queue.len() as i64);
        t.set_gauge("sim_running_jobs", self.cluster.running_count() as i64);
        t.set_gauge("sim_event_heap_peak", self.event_heap_peak as i64);
    }

    fn validate_and_apply(
        &mut self,
        now: SimTime,
        pending_arrivals: usize,
        options: &SimOptions,
        action: Action,
    ) -> Result<Applied, RejectReason> {
        match action {
            Action::Delay => Ok(Applied::Delay),
            Action::Stop => {
                if self.queue.is_empty() && pending_arrivals == 0 {
                    Ok(Applied::Stop)
                } else {
                    Err(RejectReason::StopWithPendingJobs {
                        waiting: self.queue.len(),
                        pending_arrivals,
                    })
                }
            }
            Action::StartJob(id) => {
                let slot = self.queue.find(id).ok_or(RejectReason::NotInQueue(id))?;
                let spec = self.queue.job(slot).clone();
                self.start_waiting_job(now, slot, &spec)?;
                Ok(Applied::Placement)
            }
            Action::BackfillJob(id) => {
                let slot = self.queue.find(id).ok_or(RejectReason::NotInQueue(id))?;
                let spec = self.queue.job(slot).clone();
                // The head cursor rests on the first waiting job: O(1). The
                // queue holds `spec`, so it has a head.
                let Some(head) = self.queue.waiting().first() else {
                    return Err(RejectReason::NotInQueue(id));
                };
                if head.id != spec.id && options.strict_backfill {
                    if !self.cluster.can_fit(&spec) {
                        return Err(insufficient(&self.cluster, &spec));
                    }
                    // The optional veto, for policies that cannot check a
                    // backfill themselves: the one EASY rule
                    // (`HeadReservation::admits`), asked of the
                    // *actual-end* calendar.
                    let calendar = &mut self.calendar;
                    calendar.rebuild_from(now, &self.cluster, RunningOrder::End);
                    let reservation = calendar.head_reservation(
                        &self.cluster.config().topology,
                        self.cluster.free_by_class(),
                        head,
                    );
                    if !reservation.admits(&spec) {
                        return Err(RejectReason::WouldDelayHead {
                            job: spec.id,
                            head: head.id,
                            shadow: reservation.shadow(),
                        });
                    }
                }
                self.start_waiting_job(now, slot, &spec)?;
                Ok(Applied::Placement)
            }
        }
    }

    /// Start `spec`, the job waiting in queue `slot`.
    fn start_waiting_job(
        &mut self,
        now: SimTime,
        slot: usize,
        spec: &JobSpec,
    ) -> Result<(), RejectReason> {
        match self.cluster.start_job(spec, now) {
            Ok((running_slot, started)) => {
                self.events.push(started.end, running_slot);
                self.event_heap_peak = self.event_heap_peak.max(self.events.len());
                self.queue.remove(slot);
                // The full ledger audit walks every running job; at 10k+
                // placements per run that O(R) sweep dominates the apply
                // path, so release builds trust the incremental counters.
                if cfg!(debug_assertions) {
                    self.cluster.check_invariants();
                }
                Ok(())
            }
            Err(StartError::InsufficientResources { .. }) => Err(insufficient(&self.cluster, spec)),
            Err(StartError::ExceedsCapacity) => Err(RejectReason::ExceedsCapacity(spec.id)),
        }
    }

    // ---- inspection ------------------------------------------------------

    /// The waiting jobs in queue order.
    pub fn waiting(&self) -> Waiting<'_> {
        self.queue.waiting()
    }

    /// Number of waiting jobs.
    pub fn waiting_len(&self) -> usize {
        self.queue.len()
    }

    /// Completed-job records, in completion order.
    pub fn completed(&self) -> &[JobRecord] {
        self.cluster.completed()
    }

    /// Number of completed jobs.
    pub fn completed_len(&self) -> usize {
        self.cluster.completed().len()
    }

    /// Number of currently running jobs.
    pub fn running_count(&self) -> usize {
        self.cluster.running_count()
    }

    /// The underlying cluster ledger.
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The decision log so far: one record per query, or empty for a
    /// kernel that does not keep it.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// `true` once the policy has issued an accepted `Stop`.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    // ---- telemetry -------------------------------------------------------

    /// Attach a telemetry sink. The kernel spans its epochs, counts epoch
    /// outcomes, and mirrors its aggregate counters into the sink's metrics
    /// registry. A disabled sink (the default) costs one pointer check per
    /// call site.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Per-epoch provenance records so far — recorded deterministically,
    /// with or without a sink.
    pub fn epochs(&self) -> &[EpochTrace] {
        &self.epochs
    }

    /// A borrowed policy-facing snapshot at `now` — what
    /// [`run_epoch`](Self::run_epoch) shows the policy, for telemetry and
    /// external inspection.
    pub fn view(&self, now: SimTime, pending_arrivals: usize, total_jobs: usize) -> SystemView<'_> {
        SystemView {
            now,
            config: self.cluster.config(),
            free_nodes: self.cluster.free_nodes(),
            free_memory_gb: self.cluster.free_memory_gb(),
            free_by_class: self.cluster.free_by_class(),
            waiting: self.queue.waiting(),
            running: (&self.cluster).into(),
            completed: self.cluster.completed().len(),
            pending_arrivals,
            total_jobs,
            telemetry: Some(&self.telemetry),
            queue: Some(&self.queue),
        }
    }

    // ---- long-running-service memory bounds ------------------------------

    /// Empty the decision and epoch logs, keeping their capacity (counters
    /// in [`stats`](Self::stats) are unaffected). A long-running daemon
    /// calls this per tick so the logs stay bounded.
    pub fn clear_history(&mut self) {
        self.decisions.clear();
        self.epochs.clear();
    }

    /// Finish the run: consume the kernel into a [`SimOutcome`] that ends
    /// at `end_time`.
    pub fn into_outcome(self, policy_name: String, end_time: SimTime) -> SimOutcome {
        SimOutcome {
            policy_name,
            records: self.cluster.into_completed(),
            decisions: self.decisions,
            stats: self.stats,
            end_time,
            epochs: self.epochs,
        }
    }
}

/// How an accepted action advanced the epoch.
enum Applied {
    Placement,
    Delay,
    Stop,
}

/// How an epoch's decision loop ended (feeds the provenance record).
enum EpochClose {
    /// Broke after a placement (saturated again, or awaiting arrivals).
    Placed,
    /// The policy delayed.
    Delay,
    /// The kernel forced a delay after repeated invalid actions.
    Forced,
    /// The policy stopped the run.
    Stop,
}

fn insufficient(cluster: &ClusterState, spec: &JobSpec) -> RejectReason {
    RejectReason::InsufficientResources {
        job: spec.id,
        needed_nodes: spec.nodes,
        needed_memory_gb: spec.memory_gb,
        free_nodes: cluster.free_nodes(),
        free_memory_gb: cluster.free_memory_gb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::JobId;
    use rsched_simkit::SimDuration;

    /// Starts the first waiting job that fits; delays otherwise.
    struct Greedy;

    impl SchedulingPolicy for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            view.eligible_now()
                .next()
                .map_or(Action::Delay, |j| Action::StartJob(j.id))
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Three one-node jobs started at 0, ending at 10, 20 and 30.
    fn three_running() -> KernelState {
        let mut kernel = KernelState::new(ClusterConfig::new(8, 64));
        for (id, ends) in [(0, 10), (1, 20), (2, 30)] {
            kernel.arrive(JobSpec::new(
                id,
                0,
                SimTime::ZERO,
                SimDuration::from_secs(ends),
                1,
                2,
            ));
        }
        assert_eq!(kernel.advance_to(SimTime::ZERO), 0);
        let queried = kernel.run_epoch(SimTime::ZERO, 0, 3, &mut Greedy, &SimOptions::default());
        assert_eq!(queried, Ok(true));
        assert_eq!(kernel.running_count(), 3);
        kernel
    }

    #[test]
    fn advance_to_retires_what_ended_by_then_at_its_own_instant() {
        let mut kernel = three_running();
        assert_eq!(kernel.advance_to(secs(25)), 2);
        let ends: Vec<SimTime> = kernel.completed().iter().map(|r| r.end).collect();
        assert_eq!(ends, [secs(10), secs(20)]);
        assert_eq!(kernel.next_event_time(), Some(secs(30)));
        assert_eq!(kernel.advance_to(secs(25)), 0);
        assert_eq!(kernel.running_count(), 1);
    }

    /// Starts SJF's pick, then the same job again, then delays.
    #[derive(Default)]
    struct StartsTwice {
        picked: Option<JobId>,
        queries: usize,
    }

    impl SchedulingPolicy for StartsTwice {
        fn name(&self) -> &str {
            "starts-twice"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            self.queries += 1;
            match self.queries {
                1 => {
                    let id = view.shortest_eligible().expect("something fits");
                    self.picked = Some(id);
                    Action::StartJob(id)
                }
                2 => Action::StartJob(self.picked.expect("picked first")),
                _ => Action::Delay,
            }
        }
    }

    /// A started job leaves its tombstone in the middle of a deep queue,
    /// where its spec still holds its id: a second start of it in the same
    /// epoch finds no waiting job and is rejected, and the queue's view no
    /// longer holds it.
    #[test]
    fn a_job_started_twice_in_one_epoch_is_not_in_the_queue_the_second_time() {
        let mut kernel = KernelState::new(ClusterConfig::new(8, 64));
        for i in 0..200u32 {
            let walltime = SimDuration::from_secs(100 + 10 * u64::from(i.abs_diff(100)));
            let job = JobSpec::new(i, 0, SimTime::ZERO, walltime, 1, 2);
            kernel.arrive(job.with_walltime(walltime));
        }
        kernel.advance_to(SimTime::ZERO);
        let mut policy = StartsTwice::default();
        let queried = kernel.run_epoch(SimTime::ZERO, 0, 200, &mut policy, &SimOptions::default());
        assert_eq!(queried, Ok(true));

        let middle = JobId(100);
        let verdicts: Vec<(Action, Option<RejectReason>)> = kernel
            .decisions()
            .iter()
            .map(|d| (d.action, d.rejected.clone()))
            .collect();
        assert_eq!(
            verdicts,
            [
                (Action::StartJob(middle), None),
                (
                    Action::StartJob(middle),
                    Some(RejectReason::NotInQueue(middle))
                ),
                (Action::Delay, None),
            ]
        );
        assert_eq!(kernel.running_count(), 1);
        assert_eq!(kernel.waiting_len(), 199);
        assert_eq!(kernel.waiting().iter().len(), 199);
        assert!(kernel.waiting().iter().all(|j| j.id != middle));
    }
}
