//! The system snapshot handed to scheduling policies.
//!
//! This is the observable state `S_t` of the paper's formulation (§2.1):
//! current time, free resources, the waiting queue with job metadata,
//! summaries of the running jobs and the count of the completed ones. The
//! ReAct agent renders this snapshot into its prompt; baseline policies
//! read it directly.
//!
//! Since the zero-copy kernel refactor, [`SystemView`] **borrows** the
//! simulator's incrementally-maintained state instead of cloning it:
//! `waiting` is a [`Waiting`] view of the queue's own slots and `running` a
//! [`Running`] view of the cluster's slot table, so building a view is O(1)
//! regardless of queue depth, and a 100k-job trace no longer pays an O(n)
//! deep copy per policy query. Completed jobs are seen only as a count.

use rsched_cluster::{
    ClusterConfig, ClusterState, JobId, JobSpec, NodeClass, PlacementRequest, RunningIn,
    RunningJob, RunningOrder, UserId, MAX_CLASSES,
};
use rsched_simkit::SimTime;

use crate::profile::CapacityCalendar;

/// A running job as visible to a policy: its demands and *estimated* end
/// time (start + requested walltime). True durations stay hidden, as in a
/// real scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningSummary {
    /// Job id.
    pub id: JobId,
    /// Owning user.
    pub user: UserId,
    /// Nodes held.
    pub nodes: u32,
    /// Memory held (GB) — what the cluster debited, which equals the
    /// request on flat clusters but the hosting classes' capacity on
    /// classed ones. Summing this over `running` always restores
    /// [`free_memory_gb`](SystemView::free_memory_gb) to the machine
    /// total, so policies can do release arithmetic with it.
    pub memory_gb: u64,
    /// When the job started.
    pub start: SimTime,
    /// Submission time.
    pub submit: SimTime,
    /// `start + walltime`: when the scheduler expects it to finish.
    pub expected_end: SimTime,
    /// The node class the job asked for, `None` when class-agnostic (always
    /// `None` on flat clusters).
    pub class: Option<NodeClass>,
}

impl RunningSummary {
    /// What a policy may see of `job`.
    fn of(job: &RunningJob) -> Self {
        RunningSummary {
            id: job.spec.id,
            user: job.spec.user,
            nodes: job.spec.nodes,
            memory_gb: job.allocation.memory_gb,
            start: job.start,
            submit: job.spec.submit,
            expected_end: job.expected_end(),
            class: job.spec.class,
        }
    }
}

/// The running jobs as a policy sees them, in id order.
///
/// A kernel-built view reads the cluster's slot table through its id
/// index ([`RunningOrder::Id`]), which the first [`iter`](Self::iter)
/// builds; [`len`](Self::len) needs no index. A hand-built view
/// (`Running::from(&summaries[..])`) is the same type over summaries
/// already in id order. Two views are equal when they hold the same
/// summaries in the same order.
#[derive(Clone, Copy)]
pub struct Running<'a>(RunningSource<'a>);

#[derive(Clone, Copy)]
enum RunningSource<'a> {
    Summaries(&'a [RunningSummary]),
    Table(&'a ClusterState),
}

impl<'a> Running<'a> {
    /// Number of running jobs.
    pub fn len(&self) -> usize {
        match self.0 {
            RunningSource::Summaries(jobs) => jobs.len(),
            RunningSource::Table(cluster) => cluster.running_count(),
        }
    }

    /// `true` if nothing is running.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The running jobs in id order.
    pub fn iter(&self) -> RunningIter<'a> {
        RunningIter(match self.0 {
            RunningSource::Summaries(jobs) => RunningIterSource::Summaries(jobs.iter()),
            RunningSource::Table(cluster) => {
                RunningIterSource::Table(cluster.running_in(RunningOrder::Id))
            }
        })
    }

    /// The slot table behind a kernel-built view.
    pub(crate) fn table(&self) -> Option<&'a ClusterState> {
        match self.0 {
            RunningSource::Summaries(_) => None,
            RunningSource::Table(cluster) => Some(cluster),
        }
    }
}

impl Default for Running<'_> {
    fn default() -> Self {
        Running(RunningSource::Summaries(&[]))
    }
}

impl<'a> From<&'a [RunningSummary]> for Running<'a> {
    /// A hand-built view: `jobs`, which must be in id order.
    fn from(jobs: &'a [RunningSummary]) -> Self {
        Running(RunningSource::Summaries(jobs))
    }
}

impl<'a> From<&'a ClusterState> for Running<'a> {
    /// The jobs running on `cluster`, read through its slot table.
    fn from(cluster: &'a ClusterState) -> Self {
        Running(RunningSource::Table(cluster))
    }
}

impl<'a> IntoIterator for Running<'a> {
    type Item = RunningSummary;
    type IntoIter = RunningIter<'a>;

    fn into_iter(self) -> RunningIter<'a> {
        self.iter()
    }
}

impl PartialEq for Running<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Running<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The jobs of a [`Running`] view, in id order.
#[derive(Debug, Clone)]
pub struct RunningIter<'a>(RunningIterSource<'a>);

#[derive(Debug, Clone)]
enum RunningIterSource<'a> {
    Summaries(std::slice::Iter<'a, RunningSummary>),
    Table(RunningIn<'a>),
}

impl Iterator for RunningIter<'_> {
    type Item = RunningSummary;

    fn next(&mut self) -> Option<RunningSummary> {
        match &mut self.0 {
            RunningIterSource::Summaries(jobs) => jobs.next().copied(),
            RunningIterSource::Table(jobs) => jobs.next().map(RunningSummary::of),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            RunningIterSource::Summaries(jobs) => jobs.size_hint(),
            RunningIterSource::Table(jobs) => jobs.size_hint(),
        }
    }
}

impl ExactSizeIterator for RunningIter<'_> {}

/// The waiting jobs as a policy sees them: the live jobs of the kernel's
/// wait queue, in queue order, read in place.
///
/// A job the kernel starts leaves a dead slot behind until the queue next
/// compacts; the view skips those, so [`len`](Self::len),
/// [`first`](Self::first) and [`iter`](Self::iter) see exactly the jobs
/// still waiting. A hand-built view (`Waiting::from(&jobs[..])`) is the same
/// type with every job live. Two views are equal when they hold the same
/// live jobs in the same order.
#[derive(Clone, Copy, Default)]
pub struct Waiting<'a> {
    /// The queue's slots from its head on, live or dead.
    slots: &'a [JobSpec],
    /// Liveness per slot of `slots`; `None` when every slot is live.
    live: Option<&'a [bool]>,
    /// How many slots are live.
    len: usize,
}

impl<'a> Waiting<'a> {
    /// A view of `slots`, of which the `len` that `live` marks are waiting.
    /// The first slot is live whenever any is: the queue's head cursor
    /// never rests on a dead one.
    pub(crate) fn in_slots(slots: &'a [JobSpec], live: &'a [bool], len: usize) -> Self {
        debug_assert_eq!(slots.len(), live.len());
        debug_assert!(len == 0 || live[0], "the head cursor rests on a live slot");
        Waiting {
            slots,
            live: Some(live),
            len,
        }
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first waiting job in queue order — the head. O(1).
    pub fn first(&self) -> Option<&'a JobSpec> {
        if self.is_empty() {
            return None;
        }
        self.slots.first()
    }

    /// The waiting jobs in queue order.
    pub fn iter(&self) -> WaitingIter<'a> {
        WaitingIter {
            slots: self.slots.iter(),
            live: self.live.map(<[bool]>::iter),
            left: self.len,
        }
    }
}

impl<'a> From<&'a [JobSpec]> for Waiting<'a> {
    /// A hand-built view: every job of `jobs` is waiting, in slice order.
    fn from(jobs: &'a [JobSpec]) -> Self {
        Waiting {
            slots: jobs,
            live: None,
            len: jobs.len(),
        }
    }
}

impl<'a> IntoIterator for Waiting<'a> {
    type Item = &'a JobSpec;
    type IntoIter = WaitingIter<'a>;

    fn into_iter(self) -> WaitingIter<'a> {
        self.iter()
    }
}

impl PartialEq for Waiting<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Waiting<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The live jobs of a [`Waiting`] view, in queue order.
#[derive(Debug, Clone)]
pub struct WaitingIter<'a> {
    slots: std::slice::Iter<'a, JobSpec>,
    live: Option<std::slice::Iter<'a, bool>>,
    /// Live jobs not yet yielded: the walk stops at the last one.
    left: usize,
}

impl<'a> Iterator for WaitingIter<'a> {
    type Item = &'a JobSpec;

    fn next(&mut self) -> Option<&'a JobSpec> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        match &mut self.live {
            None => self.slots.next(),
            Some(live) => {
                let mut slots = self.slots.by_ref().zip(live.by_ref());
                slots.find_map(|(job, &live)| live.then_some(job))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for WaitingIter<'_> {}

impl std::iter::FusedIterator for WaitingIter<'_> {}

/// The full snapshot a policy decides from — borrowed from the simulator's
/// live state for the duration of one `decide` call.
///
/// # Invariants
///
/// Views built by the simulator guarantee:
///
/// * `waiting` is in queue order, ascending by `(rank, submit, id)`: the
///   virtual-time simulator queues every job at rank 0, which makes it
///   arrival order with id tie-break, and the service daemon ranks jobs by
///   their tenants' fair-share usage; either way
///   [`head_of_queue`](SystemView::head_of_queue) is the first job;
/// * `running` is sorted ascending by job id, and reads the kernel's
///   cluster;
/// * `completed` is the number of completed records;
/// * `telemetry` and `queue` are the kernel's own sink and wait queue —
///   `queue` holds exactly the jobs of `waiting`.
///
/// Hand-built views (tests, harnesses) must uphold the same ordering for
/// the helper methods to be meaningful.
#[derive(Debug, Clone)]
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Machine capacity.
    pub config: ClusterConfig,
    /// Free nodes at `now`.
    pub free_nodes: u32,
    /// Free memory (GB) at `now`.
    pub free_memory_gb: u64,
    /// Free nodes per topology class slot at `now`. All zeros on flat
    /// clusters, where [`free_nodes`](Self::free_nodes) is the whole story.
    pub free_by_class: [u32; MAX_CLASSES],
    /// Arrived, not-yet-started jobs — eligible for `StartJob`/`BackfillJob`.
    /// In queue order: `(rank, submit, id)`, which at rank 0 is arrival
    /// order (submit time, then id).
    pub waiting: Waiting<'a>,
    /// Currently executing jobs, ordered by id.
    pub running: Running<'a>,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs known to the workload but not yet arrived.
    pub pending_arrivals: usize,
    /// Total jobs in the workload instance.
    pub total_jobs: usize,
    /// The kernel's telemetry sink, when this view was built by a kernel
    /// with one attached. Policies record spans and counters through
    /// [`sink`](Self::sink); hand-built views leave it `None` and the
    /// accessor hands back an inert disabled sink.
    pub telemetry: Option<&'a rsched_telemetry::TelemetrySink>,
    /// The kernel's wait queue behind `waiting`, when this view was built
    /// by a kernel — an opaque handle: [`shortest_eligible`](Self::shortest_eligible)
    /// answers from its shortest-first order, [`first_admitted`](Self::first_admitted)
    /// from its arrival order. Hand-built views leave it
    /// `None` and the accessor falls back to a linear pass over `waiting`.
    pub queue: Option<&'a crate::queue::WaitQueue>,
}

impl<'a> SystemView<'a> {
    /// The telemetry sink for this view — a cheap clone of the kernel's
    /// sink, or a disabled (no-op) sink when none is attached, so policies
    /// can instrument unconditionally.
    pub fn sink(&self) -> rsched_telemetry::TelemetrySink {
        self.telemetry.cloned().unwrap_or_default()
    }

    /// The waiting job with the given id. Kernel-built views ask the wait
    /// queue, which finds it in its dense id column; hand-built views walk
    /// `waiting`, the definition both agree on.
    pub fn waiting_job(&self, id: JobId) -> Option<&'a JobSpec> {
        let Some(queue) = self.queue else {
            return self.waiting.iter().find(|j| j.id == id);
        };
        queue.find(id).map(|slot| queue.job(slot))
    }

    /// The head of the queue: the first waiting job in queue order — the
    /// least `(rank, submit, id)`, which at rank 0 is the earliest-submitted
    /// job (ties broken by id). `None` when the queue is empty.
    ///
    /// O(1): the head is the first job of `waiting`.
    pub fn head_of_queue(&self) -> Option<&'a JobSpec> {
        self.waiting.first()
    }

    /// `true` if the job fits the free resources right now.
    ///
    /// Flat clusters keep the paper's two scalar checks; classed clusters
    /// ask whether some class-compatible slot has enough free nodes whose
    /// per-node capacity covers the job's vector demand — after the one
    /// scalar check that needs no plan: a take draws only on free nodes.
    pub fn fits_now(&self, spec: &JobSpec) -> bool {
        if self.config.topology.is_flat() {
            spec.nodes <= self.free_nodes && spec.memory_gb <= self.free_memory_gb
        } else {
            spec.nodes <= self.free_nodes
                && PlacementRequest::from(spec)
                    .fits_classes(&self.config.topology, &self.free_by_class)
        }
    }

    /// Waiting jobs that fit right now, in queue order.
    pub fn eligible_now(&self) -> impl Iterator<Item = &'a JobSpec> + '_ {
        self.waiting.iter().filter(|j| self.fits_now(j))
    }

    /// The waiting job that fits right now with the least `(walltime, id)`
    /// — SJF's pick; `None` when nothing fits. Kernel-built views ask the
    /// wait queue, which probes one key per demand class of an order it
    /// builds the first time this is called; hand-built views take the
    /// linear minimum over [`eligible_now`](Self::eligible_now), the
    /// definition both agree on.
    pub fn shortest_eligible(&self) -> Option<JobId> {
        let Some(queue) = self.queue else {
            let shortest = self.eligible_now().min_by_key(|j| (j.walltime, j.id));
            return shortest.map(|j| j.id);
        };
        queue.shortest(self.free_nodes, self.free_memory_gb, &self.free_by_class)
    }

    /// The first waiting job, in queue order, that fits right now and that
    /// `reservation` admits — arrival-order EASY's pick. Kernel-built views
    /// ask the wait queue, which gives each demand class one verdict over an
    /// order built at the first call; hand-built views walk, the definition.
    pub fn first_admitted(&self, reservation: &crate::profile::HeadReservation) -> Option<JobId> {
        let Some(queue) = self.queue else {
            let walked = self.eligible_now().find(|j| reservation.admits(j));
            return walked.map(|j| j.id);
        };
        let free = (self.free_nodes, self.free_memory_gb, &self.free_by_class);
        queue.first_admitted(free, reservation)
    }

    /// `true` once every job has arrived and been started (the paper's
    /// condition for a valid `Stop`).
    pub fn all_jobs_started(&self) -> bool {
        self.waiting.is_empty() && self.pending_arrivals == 0
    }

    /// How long the given waiting job has been queued.
    pub fn wait_so_far(&self, spec: &JobSpec) -> rsched_simkit::SimDuration {
        self.now.saturating_since(spec.submit)
    }

    /// The **estimated** free-capacity skyline at `now`, built into
    /// `into`: releases at each running job's `expected_end`, starting
    /// from the current free level — what backfilling policies plan over.
    ///
    /// When `running` reads a kernel's cluster the calendar is rebuilt from
    /// its slot table's `(expected_end, id)` index
    /// ([`CapacityCalendar::rebuild_from`]), reusing `into`'s buffer. A
    /// hand-built view sorts its running summaries instead, which gives
    /// the same scalar columns and zero class columns.
    pub fn capacity_calendar(&self, into: &mut CapacityCalendar) {
        if let Some(cluster) = self.running.table() {
            into.rebuild_from(self.now, cluster, RunningOrder::ExpectedEnd);
            return;
        }
        let mut releases: Vec<(SimTime, JobId, u32, u64)> = self
            .running
            .iter()
            .map(|r| (r.expected_end, r.id, r.nodes, r.memory_gb))
            .collect();
        releases.sort_unstable();
        let releases = releases
            .into_iter()
            .map(|(t, _, nodes, mem)| (t, nodes, mem, [0; MAX_CLASSES]));
        let (nodes, mem) = (self.free_nodes, self.free_memory_gb);
        *into = CapacityCalendar::build(self.now, nodes, mem, [0; MAX_CLASSES], releases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::SimDuration;

    fn spec(id: u32, user: u32, submit_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            user,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(60),
            nodes,
            mem,
        )
    }

    /// Owns the state a view borrows from — the test-side stand-in for the
    /// simulator's incremental structures.
    struct Fixture {
        waiting: Vec<JobSpec>,
        running: Vec<RunningSummary>,
        pending_arrivals: usize,
    }

    fn fixture() -> Fixture {
        // Sorted by (submit, id), as the simulator maintains.
        Fixture {
            waiting: vec![
                spec(1, 0, 10, 32, 128),
                spec(2, 1, 10, 64, 600),
                spec(3, 1, 50, 128, 256),
            ],
            running: vec![RunningSummary {
                id: JobId(9),
                user: UserId(2),
                nodes: 192,
                memory_gb: 1536,
                start: SimTime::from_secs(90),
                submit: SimTime::ZERO,
                expected_end: SimTime::from_secs(200),
                class: None,
            }],
            pending_arrivals: 2,
        }
    }

    impl Fixture {
        fn view(&self) -> SystemView<'_> {
            SystemView {
                now: SimTime::from_secs(100),
                config: ClusterConfig::paper_default(),
                free_nodes: 64,
                free_memory_gb: 512,
                free_by_class: [0; MAX_CLASSES],
                waiting: self.waiting.as_slice().into(),
                running: self.running.as_slice().into(),
                completed: 0,
                pending_arrivals: self.pending_arrivals,
                total_jobs: 6,
                telemetry: None,
                queue: None,
            }
        }
    }

    #[test]
    fn a_view_over_slots_skips_the_dead_and_equals_the_live_jobs() {
        let f = fixture();
        let slotted = Waiting::in_slots(&f.waiting, &[true, false, true], 2);
        let live = [f.waiting[0].clone(), f.waiting[2].clone()];
        assert_eq!(slotted, Waiting::from(&live[..]));
        assert_ne!(slotted, Waiting::from(&f.waiting[..]));
        assert_eq!(slotted.iter().len(), 2);
        assert_eq!(slotted.first().map(|j| j.id), Some(JobId(1)));
        assert!(Waiting::default().is_empty());
        assert_eq!(Waiting::default().first(), None);
    }

    #[test]
    fn head_of_queue_is_earliest_submit_then_lowest_id() {
        let f = fixture();
        let v = f.view();
        assert_eq!(v.head_of_queue().map(|j| j.id), Some(JobId(1)));
    }

    #[test]
    fn fits_and_eligible() {
        let f = fixture();
        let v = f.view();
        assert!(v.fits_now(&spec(1, 0, 0, 32, 128)));
        assert!(!v.fits_now(&spec(3, 0, 0, 128, 256)), "too many nodes");
        assert!(!v.fits_now(&spec(2, 0, 0, 64, 600)), "too much memory");
        let eligible: Vec<JobId> = v.eligible_now().map(|j| j.id).collect();
        assert_eq!(eligible, vec![JobId(1)]);
    }

    #[test]
    fn classed_fits_now_consults_class_watermarks() {
        use rsched_cluster::{NodeClass, ResourceVec};
        let f = fixture();
        let mut v = f.view();
        v.config = ClusterConfig::mixed_256();
        // Only one gpu node is free anywhere on the machine.
        v.free_nodes = 1;
        v.free_by_class = [0, 1, 0, 0];
        let small = spec(1, 0, 0, 1, 4);
        assert!(v.fits_now(&small), "one free gpu node hosts a 1-node job");
        assert!(
            !v.fits_now(&spec(2, 0, 0, 2, 4)),
            "no class has 2 free nodes"
        );
        assert!(
            !v.fits_now(&small.clone().with_class(NodeClass::BigMem)),
            "class pin overrides the free gpu node"
        );
        assert!(
            v.fits_now(&small.with_per_node(ResourceVec::new(0, 4, 32, 1))),
            "gpu demand lands on the gpu class"
        );
    }

    /// Starts job 100 once, then delays.
    struct StartsHundred;

    impl crate::SchedulingPolicy for StartsHundred {
        fn name(&self) -> &str {
            "starts-100"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> crate::Action {
            match view.running.is_empty() {
                true => crate::Action::StartJob(JobId(100)),
                false => crate::Action::Delay,
            }
        }
    }

    /// A kernel-built view finds a job through the queue's id column, a
    /// hand-built one by walking `waiting`: they agree on a waiting id, on
    /// a started one whose tombstone still holds its id mid-queue, and on
    /// an id the queue never saw.
    #[test]
    fn lookup_and_waits() {
        use crate::kernel::KernelState;
        let f = fixture();
        let v = f.view();
        assert!(v.waiting_job(JobId(2)).is_some());
        assert!(v.waiting_job(JobId(99)).is_none());
        let j1 = v.waiting_job(JobId(1)).cloned().expect("present");
        assert_eq!(v.wait_so_far(&j1), SimDuration::from_secs(90));

        let mut kernel = KernelState::new(ClusterConfig::new(8, 64));
        for id in 0..200 {
            kernel.arrive(spec(id, 0, 0, 1, 2));
        }
        kernel.advance_to(SimTime::ZERO);
        let options = crate::SimOptions::default();
        let queried = kernel.run_epoch(SimTime::ZERO, 0, 200, &mut StartsHundred, &options);
        assert_eq!(queried, Ok(true));
        let built = kernel.view(SimTime::ZERO, 0, 200);
        assert!(built.queue.is_some());
        let waiting: Vec<JobSpec> = kernel.waiting().iter().cloned().collect();
        let by_hand = SystemView {
            waiting: waiting.as_slice().into(),
            queue: None,
            ..built.clone()
        };
        for (id, waits) in [(5, true), (100, false), (199, true), (999, false)] {
            let found = built.waiting_job(JobId(id));
            assert_eq!(found, by_hand.waiting_job(JobId(id)), "job {id}");
            assert_eq!(found.map(|j| j.id), waits.then_some(JobId(id)), "job {id}");
        }
    }

    #[test]
    fn stop_condition_tracking() {
        let mut f = fixture();
        assert!(!f.view().all_jobs_started());
        f.waiting.clear();
        assert!(!f.view().all_jobs_started(), "arrivals still pending");
        f.pending_arrivals = 0;
        assert!(f.view().all_jobs_started());
    }
}
