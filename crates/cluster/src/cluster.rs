//! The live cluster ledger: running jobs, capacity accounting, completions.
//!
//! This is the "system state" (`S_t`) of the paper's formulation — the part
//! of the environment the LLM agent observes (available nodes/memory,
//! running jobs) and the part the constraint-enforcement module (paper
//! §2.4) validates actions against.

use std::collections::{BTreeMap, BTreeSet};

use rsched_simkit::{SimDuration, SimTime};

use crate::allocator::{Allocation, FirstFitAllocator, NodeAllocator, PlacementRequest};
use crate::job::{JobId, JobRecord, JobSpec};
use crate::resources::ResourceVec;
use crate::topology::{NodeClass, NodeClassSpec, Topology, MAX_CLASSES};

/// Static cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Compute node count (`N_total`).
    pub nodes: u32,
    /// Aggregate memory capacity in GB (`M_total`).
    pub memory_gb: u64,
    /// Node classes, if any. The flat (empty) topology is the paper's
    /// scalar machine and reproduces the pre-refactor kernel bit for bit;
    /// a classed topology switches placement to the multi-resource scan.
    pub topology: Topology,
}

impl ClusterConfig {
    /// The paper's default partition: 256 nodes, 2048 GB (§3.1).
    pub fn paper_default() -> Self {
        ClusterConfig {
            nodes: 256,
            memory_gb: 2048,
            topology: Topology::flat(),
        }
    }

    /// The Polaris configuration: 560 nodes × 512 GB each (§5).
    pub fn polaris() -> Self {
        ClusterConfig {
            nodes: 560,
            memory_gb: 560 * 512,
            topology: Topology::flat(),
        }
    }

    /// A custom flat configuration.
    pub fn new(nodes: u32, memory_gb: u64) -> Self {
        ClusterConfig {
            nodes,
            memory_gb,
            topology: Topology::flat(),
        }
    }

    /// A classed configuration; node and memory totals are derived from
    /// the topology.
    ///
    /// # Panics
    /// Panics if the topology is flat (use [`ClusterConfig::new`]).
    pub fn with_topology(topology: Topology) -> Self {
        assert!(
            !topology.is_flat(),
            "with_topology needs at least one node class"
        );
        ClusterConfig {
            nodes: topology.total_nodes(),
            memory_gb: topology.total_memory_gb(),
            topology,
        }
    }

    /// A 256-node mixed-class machine: 192 cpu nodes (64 cores, 8 GB),
    /// 48 gpu nodes (64 cores, 4 GPUs, 64 GB, 2 burst-buffer slots), and
    /// 16 bigmem nodes (64 cores, 128 GB, 4 burst-buffer slots).
    pub fn mixed_256() -> Self {
        ClusterConfig::with_topology(
            Topology::flat()
                .with_class(NodeClassSpec {
                    class: NodeClass::Cpu,
                    count: 192,
                    capacity: ResourceVec::new(64, 0, 8, 0),
                })
                .with_class(NodeClassSpec {
                    class: NodeClass::Gpu,
                    count: 48,
                    capacity: ResourceVec::new(64, 4, 64, 2),
                })
                .with_class(NodeClassSpec {
                    class: NodeClass::BigMem,
                    count: 16,
                    capacity: ResourceVec::new(64, 0, 128, 4),
                }),
        )
    }

    /// `true` if this is a flat (classless) configuration.
    pub fn is_flat(&self) -> bool {
        self.topology.is_flat()
    }
}

/// A job currently executing on the cluster.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The job as submitted.
    pub spec: JobSpec,
    /// When it started (`x_j`).
    pub start: SimTime,
    /// When it will complete (`x_j + d_j`). Execution is non-preemptive.
    pub end: SimTime,
    /// The concrete resources it holds.
    pub allocation: Allocation,
}

/// Why a start request was rejected — the structured form behind the
/// natural-language feedback of paper §2.4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartError {
    /// Not enough free nodes/memory right now. Carries the free amounts at
    /// the time of the attempt so feedback can quote them.
    InsufficientResources {
        /// Free nodes at the attempt.
        free_nodes: u32,
        /// Free memory (GB) at the attempt.
        free_memory_gb: u64,
    },
    /// The request exceeds total machine capacity and can never run.
    ExceedsCapacity,
    /// The job id is already running.
    AlreadyRunning,
    /// The job id already completed.
    AlreadyCompleted,
}

/// O(1) running aggregates over the completed-job ledger.
///
/// Maintained incrementally by [`ClusterState::complete_job`], so policies
/// and views that only need totals (count, wait/turnaround sums, delivered
/// node-seconds) never have to walk — or worse, clone — the full
/// [`JobRecord`] vector. This is one of the incremental hooks behind the
/// zero-copy `SystemView` snapshot in `rsched-sim`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompletedStats {
    /// Number of completed jobs.
    pub count: usize,
    /// Sum of queued wait times (`x_j − s_j`), seconds.
    pub total_wait_secs: f64,
    /// Sum of turnaround times (`x_j + d_j − s_j`), seconds.
    pub total_turnaround_secs: f64,
    /// Sum of delivered node-seconds (`n_j · d_j`).
    pub total_node_seconds: f64,
}

impl CompletedStats {
    /// Fold one completed record into the aggregate.
    pub fn absorb(&mut self, record: &JobRecord) {
        self.count += 1;
        self.total_wait_secs += record.wait().as_secs_f64();
        self.total_turnaround_secs += record.turnaround().as_secs_f64();
        self.total_node_seconds += record.spec.node_seconds();
    }

    /// The aggregate of a whole record slice (the straight-line reference
    /// for the incremental path).
    pub fn from_records(records: &[JobRecord]) -> Self {
        let mut stats = CompletedStats::default();
        for record in records {
            stats.absorb(record);
        }
        stats
    }

    /// Mean wait time, seconds (`0.0` when nothing completed).
    pub fn mean_wait_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_wait_secs / self.count as f64
        }
    }

    /// Mean turnaround time, seconds (`0.0` when nothing completed).
    pub fn mean_turnaround_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_turnaround_secs / self.count as f64
        }
    }
}

/// The mutable cluster state: allocator plus running/completed job sets.
///
/// Every transition is invariant-checked: active node and memory demand can
/// never exceed capacity (the paper's feasibility constraints), and jobs are
/// started at most once.
#[derive(Debug, Clone)]
pub struct ClusterState {
    config: ClusterConfig,
    allocator: NodeAllocator,
    running: BTreeMap<JobId, RunningJob>,
    completed: Vec<JobRecord>,
    /// Id index over `completed` — keeps the double-start check O(log n)
    /// instead of a per-start scan of the whole record vector.
    completed_ids: BTreeSet<JobId>,
    completed_stats: CompletedStats,
}

impl ClusterState {
    /// An idle cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let allocator = if config.topology.is_flat() {
            NodeAllocator::Flat(FirstFitAllocator::new(config.nodes, config.memory_gb))
        } else {
            NodeAllocator::Classed(crate::allocator::ClassedAllocator::new(config.topology))
        };
        ClusterState {
            allocator,
            config,
            running: BTreeMap::new(),
            completed: Vec::new(),
            completed_ids: BTreeSet::new(),
            completed_stats: CompletedStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Reserve room for `additional` more completed records — for a driver
    /// that knows how many jobs its run will complete.
    pub fn reserve_completed(&mut self, additional: usize) {
        self.completed.reserve(additional);
    }

    /// Free nodes right now.
    pub fn free_nodes(&self) -> u32 {
        self.allocator.free_nodes()
    }

    /// Free memory (GB) right now.
    pub fn free_memory_gb(&self) -> u64 {
        self.allocator.free_memory_gb()
    }

    /// Free node counts per topology slot (all zeros on a flat cluster).
    pub fn free_by_class(&self) -> [u32; MAX_CLASSES] {
        self.allocator.free_by_class()
    }

    /// `true` if the job would fit on the free resources right now.
    pub fn can_fit(&self, spec: &JobSpec) -> bool {
        self.allocator.can_fit(&PlacementRequest::from(spec))
    }

    /// `true` if the job could ever fit on an empty machine.
    pub fn fits_capacity(&self, spec: &JobSpec) -> bool {
        self.allocator.fits_capacity(&PlacementRequest::from(spec))
    }

    /// Attempt to start `spec` at `now`. On success the job holds resources
    /// until [`ClusterState::complete_job`] is called at its end time.
    pub fn start_job(&mut self, spec: &JobSpec, now: SimTime) -> Result<&RunningJob, StartError> {
        if self.running.contains_key(&spec.id) {
            return Err(StartError::AlreadyRunning);
        }
        if self.completed_ids.contains(&spec.id) {
            return Err(StartError::AlreadyCompleted);
        }
        if !self.fits_capacity(spec) {
            return Err(StartError::ExceedsCapacity);
        }
        let allocation = self
            .allocator
            .try_allocate(&PlacementRequest::from(spec))
            .ok_or(StartError::InsufficientResources {
                free_nodes: self.allocator.free_nodes(),
                free_memory_gb: self.allocator.free_memory_gb(),
            })?;
        let job = RunningJob {
            spec: spec.clone(),
            start: now,
            end: now + spec.duration,
            allocation,
        };
        let entry = self.running.entry(spec.id).or_insert(job);
        Ok(entry)
    }

    /// Complete a running job, releasing its resources and appending its
    /// [`JobRecord`].
    ///
    /// # Panics
    /// Panics if the job is not running or `now` differs from its end time —
    /// either indicates a simulator bug (jobs are non-preemptive and finish
    /// exactly at `start + duration`).
    pub fn complete_job(&mut self, id: JobId, now: SimTime) -> &JobRecord {
        let job = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("complete_job: job {id} is not running"));
        assert_eq!(
            job.end, now,
            "complete_job: job {id} ends at {} but clock is {}",
            job.end, now
        );
        self.allocator.release(&job.allocation);
        let record = JobRecord {
            spec: job.spec,
            start: job.start,
            end: job.end,
        };
        self.completed_stats.absorb(&record);
        self.completed_ids.insert(record.spec.id);
        self.completed.push(record);
        self.completed.last().expect("just pushed")
    }

    /// Jobs currently executing, ordered by id.
    pub fn running(&self) -> impl Iterator<Item = &RunningJob> {
        self.running.values()
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// One running job by id.
    pub fn running_job(&self, id: JobId) -> Option<&RunningJob> {
        self.running.get(&id)
    }

    /// Completed job records, in completion order.
    pub fn completed(&self) -> &[JobRecord] {
        &self.completed
    }

    /// Consume the ledger into its completed records, in completion order
    /// — the end-of-run hand-over, without a second copy of every record.
    pub fn into_completed(self) -> Vec<JobRecord> {
        self.completed
    }

    /// O(1) aggregates over the completed records, maintained incrementally
    /// at every [`ClusterState::complete_job`] — never recomputed by
    /// scanning.
    pub fn completed_stats(&self) -> CompletedStats {
        self.completed_stats
    }

    /// The earliest end time among running jobs — the simulator's next
    /// completion event.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.running.values().map(|j| j.end).min()
    }

    /// `(end_time, job_id)` pairs for all running jobs, ascending by end.
    pub fn completion_schedule(&self) -> Vec<(SimTime, JobId)> {
        let mut v: Vec<(SimTime, JobId)> =
            self.running.values().map(|j| (j.end, j.spec.id)).collect();
        v.sort();
        v
    }

    /// Nodes currently in use.
    pub fn busy_nodes(&self) -> u32 {
        self.config.nodes - self.free_nodes()
    }

    /// Memory (GB) currently in use.
    pub fn busy_memory_gb(&self) -> u64 {
        self.config.memory_gb - self.free_memory_gb()
    }

    /// Assert the paper's feasibility constraints hold.
    pub fn check_invariants(&self) {
        self.allocator.check_invariants();
        let node_demand: u32 = self.running.values().map(|j| j.spec.nodes).sum();
        // Classed memory is node-attached: a zero-node job holds none there
        // (`ClassedAllocator::try_allocate`), whatever it declares.
        let mem_demand: u64 = self
            .running
            .values()
            .filter(|j| self.config.is_flat() || j.spec.nodes > 0)
            .map(|j| j.spec.memory_gb)
            .sum();
        assert!(
            node_demand <= self.config.nodes,
            "node capacity violated: {node_demand} > {}",
            self.config.nodes
        );
        assert!(
            mem_demand <= self.config.memory_gb,
            "memory capacity violated: {mem_demand} > {}",
            self.config.memory_gb
        );
        assert_eq!(node_demand, self.busy_nodes(), "node ledger drift");
        if self.config.is_flat() {
            // Flat memory is demand-based: busy == exactly what jobs asked.
            assert_eq!(mem_demand, self.busy_memory_gb(), "memory ledger drift");
        } else {
            // Classed memory is capacity-based (whole nodes charged), so
            // busy memory covers demand but may exceed it.
            assert!(
                mem_demand <= self.busy_memory_gb(),
                "busy memory {} does not cover demand {mem_demand}",
                self.busy_memory_gb()
            );
        }
        assert_eq!(
            self.completed_stats.count,
            self.completed.len(),
            "completed-stats ledger drift"
        );
    }

    /// Remaining runtime of the running job `id` at time `now`.
    pub fn remaining(&self, id: JobId, now: SimTime) -> Option<SimDuration> {
        self.running.get(&id).map(|j| j.end.saturating_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::SimDuration;

    fn spec(id: u32, dur_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(dur_s),
            nodes,
            mem,
        )
    }

    #[test]
    fn start_and_complete_lifecycle() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let s = spec(1, 100, 64, 512);
        let t0 = SimTime::ZERO;
        let rj = c.start_job(&s, t0).expect("starts");
        assert_eq!(rj.end, SimTime::from_secs(100));
        assert_eq!(c.free_nodes(), 192);
        assert_eq!(c.free_memory_gb(), 1536);
        c.check_invariants();
        let rec = c.complete_job(JobId(1), SimTime::from_secs(100)).clone();
        assert_eq!(rec.wait(), SimDuration::ZERO);
        assert_eq!(c.free_nodes(), 256);
        assert_eq!(c.completed().len(), 1);
        c.check_invariants();
    }

    #[test]
    fn insufficient_resources_reports_free_amounts() {
        let mut c = ClusterState::new(ClusterConfig::new(8, 64));
        c.start_job(&spec(1, 10, 6, 32), SimTime::ZERO).expect("ok");
        let err = c.start_job(&spec(2, 10, 4, 8), SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            StartError::InsufficientResources {
                free_nodes: 2,
                free_memory_gb: 32
            }
        );
    }

    #[test]
    fn capacity_exceeding_job_is_distinguished() {
        let mut c = ClusterState::new(ClusterConfig::new(8, 64));
        let err = c.start_job(&spec(1, 10, 9, 1), SimTime::ZERO).unwrap_err();
        assert_eq!(err, StartError::ExceedsCapacity);
        let err = c.start_job(&spec(2, 10, 1, 65), SimTime::ZERO).unwrap_err();
        assert_eq!(err, StartError::ExceedsCapacity);
    }

    #[test]
    fn double_start_rejected() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let s = spec(1, 50, 1, 1);
        c.start_job(&s, SimTime::ZERO).expect("ok");
        assert_eq!(
            c.start_job(&s, SimTime::ZERO).unwrap_err(),
            StartError::AlreadyRunning
        );
        c.complete_job(JobId(1), SimTime::from_secs(50));
        assert_eq!(
            c.start_job(&s, SimTime::from_secs(50)).unwrap_err(),
            StartError::AlreadyCompleted
        );
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_unknown_job_panics() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.complete_job(JobId(42), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "ends at")]
    fn completing_at_wrong_time_panics() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.start_job(&spec(1, 100, 1, 1), SimTime::ZERO).expect("ok");
        c.complete_job(JobId(1), SimTime::from_secs(99));
    }

    #[test]
    fn next_completion_is_earliest() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.start_job(&spec(1, 100, 1, 1), SimTime::ZERO).expect("ok");
        c.start_job(&spec(2, 30, 1, 1), SimTime::ZERO).expect("ok");
        c.start_job(&spec(3, 70, 1, 1), SimTime::ZERO).expect("ok");
        assert_eq!(c.next_completion(), Some(SimTime::from_secs(30)));
        let schedule = c.completion_schedule();
        assert_eq!(
            schedule,
            vec![
                (SimTime::from_secs(30), JobId(2)),
                (SimTime::from_secs(70), JobId(3)),
                (SimTime::from_secs(100), JobId(1)),
            ]
        );
    }

    #[test]
    fn remaining_runtime() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.start_job(&spec(1, 100, 1, 1), SimTime::ZERO).expect("ok");
        assert_eq!(
            c.remaining(JobId(1), SimTime::from_secs(40)),
            Some(SimDuration::from_secs(60))
        );
        assert_eq!(c.remaining(JobId(9), SimTime::ZERO), None);
    }

    #[test]
    fn completed_stats_match_a_full_rescan() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        for (i, (dur, nodes, start)) in [(100u64, 4u32, 0u64), (50, 8, 100), (70, 2, 150)]
            .into_iter()
            .enumerate()
        {
            let s = spec(i as u32 + 1, dur, nodes, 1);
            c.start_job(&s, SimTime::from_secs(start)).expect("starts");
            c.complete_job(s.id, SimTime::from_secs(start + dur));
        }
        let incremental = c.completed_stats();
        let rescan = CompletedStats::from_records(c.completed());
        assert_eq!(incremental, rescan, "incremental == straight-line rescan");
        assert_eq!(incremental.count, 3);
        // All submits are t=0, so total wait is the sum of start times.
        assert!((incremental.total_wait_secs - 250.0).abs() < 1e-9);
        assert!((incremental.total_turnaround_secs - (100.0 + 150.0 + 220.0)).abs() < 1e-9);
        assert!((incremental.total_node_seconds - (400.0 + 400.0 + 140.0)).abs() < 1e-9);
        assert!((incremental.mean_wait_secs() - 250.0 / 3.0).abs() < 1e-9);
        assert!((incremental.mean_turnaround_secs() - 470.0 / 3.0).abs() < 1e-9);
        assert_eq!(CompletedStats::default().mean_wait_secs(), 0.0);
        assert_eq!(CompletedStats::default().mean_turnaround_secs(), 0.0);
    }

    #[test]
    fn busy_accounting() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.start_job(&spec(1, 10, 100, 1000), SimTime::ZERO)
            .expect("ok");
        assert_eq!(c.busy_nodes(), 100);
        assert_eq!(c.busy_memory_gb(), 1000);
        assert_eq!(c.running_count(), 1);
        assert!(c.running_job(JobId(1)).is_some());
        c.check_invariants();
    }

    #[test]
    fn mixed_preset_derives_totals_from_topology() {
        let config = ClusterConfig::mixed_256();
        assert!(!config.is_flat());
        assert_eq!(config.nodes, 256);
        assert_eq!(config.memory_gb, 192 * 8 + 48 * 64 + 16 * 128);
        assert!(ClusterConfig::paper_default().is_flat());
        assert!(ClusterConfig::polaris().is_flat());
        assert!(ClusterConfig::new(8, 64).is_flat());
    }

    #[test]
    fn classed_lifecycle_routes_by_demand() {
        let mut c = ClusterState::new(ClusterConfig::mixed_256());
        // A GPU-demanding job must land in the gpu class (slot 1).
        let gpu_job = spec(1, 100, 4, 0).with_per_node(ResourceVec::new(0, 4, 16, 0));
        c.start_job(&gpu_job, SimTime::ZERO).expect("starts");
        assert_eq!(c.free_by_class(), [192, 44, 16, 0]);
        // A scalar job lands in the cpu class.
        c.start_job(&spec(2, 100, 8, 8), SimTime::ZERO).expect("ok");
        assert_eq!(c.free_by_class(), [184, 44, 16, 0]);
        // A zero-node job holds nothing, so its memory is never short.
        c.start_job(&spec(3, 100, 0, 1 << 40), SimTime::ZERO)
            .expect("consumes nothing");
        assert_eq!(c.free_by_class(), [184, 44, 16, 0]);
        c.check_invariants();
        c.complete_job(JobId(1), SimTime::from_secs(100));
        c.complete_job(JobId(2), SimTime::from_secs(100));
        c.complete_job(JobId(3), SimTime::from_secs(100));
        assert_eq!(c.free_by_class(), [192, 48, 16, 0]);
        assert_eq!(c.free_memory_gb(), c.config().memory_gb);
        c.check_invariants();
    }

    #[test]
    fn classed_capacity_errors_are_structured() {
        let mut c = ClusterState::new(ClusterConfig::mixed_256());
        // 5 GPUs per node exceeds every class capacity → ExceedsCapacity.
        let impossible = spec(1, 10, 1, 0).with_per_node(ResourceVec::new(0, 5, 0, 0));
        assert_eq!(
            c.start_job(&impossible, SimTime::ZERO).unwrap_err(),
            StartError::ExceedsCapacity
        );
        // 49 bigmem-pinned nodes exceed the 16-node class.
        let too_wide = spec(2, 10, 49, 0).with_class(NodeClass::BigMem);
        assert_eq!(
            c.start_job(&too_wide, SimTime::ZERO).unwrap_err(),
            StartError::ExceedsCapacity
        );
        // Fill the bigmem class, then one more is Insufficient, not Exceeds.
        c.start_job(
            &spec(3, 10, 16, 0).with_class(NodeClass::BigMem),
            SimTime::ZERO,
        )
        .expect("fills bigmem");
        let err = c
            .start_job(
                &spec(4, 10, 1, 0).with_class(NodeClass::BigMem),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, StartError::InsufficientResources { .. }));
        c.check_invariants();
    }

    #[test]
    fn flat_cluster_ignores_extended_demand() {
        // The paper's abstract machine has no GPU axis: a GPU-demanding job
        // schedules on a flat cluster exactly like its scalar projection.
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let j = spec(1, 10, 4, 32).with_per_node(ResourceVec::new(0, 4, 0, 0));
        c.start_job(&j, SimTime::ZERO)
            .expect("flat ignores per_node");
        assert_eq!(c.free_nodes(), 252);
        assert_eq!(c.busy_memory_gb(), 32);
        c.check_invariants();
    }
}
