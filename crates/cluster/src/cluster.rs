//! The live cluster ledger: running jobs, capacity accounting, completions.
//!
//! This is the "system state" (`S_t`) of the paper's formulation — the part
//! of the environment the LLM agent observes (available nodes/memory,
//! running jobs) and the part the constraint-enforcement module (paper
//! §2.4) validates actions against.
//!
//! Paper §3.3 places jobs first-fit on nodes that are exchangeable within
//! a class, so the ledger models capacity as counts: the allocator holds
//! free nodes per class and free memory, and a running job holds an
//! [`Allocation`] of per-class counts. No node index exists to be read.
//!
//! The running jobs live in a **slot table**: a `Vec` of rows, each empty
//! or holding one [`RunningJob`], plus a list of empty rows.
//! [`ClusterState::start_job`] fills an empty row (or appends one) and
//! returns its slot; [`ClusterState::complete_job`] takes the slot back.
//! A driver keeps the slot beside the job's end time (the simulator's
//! completion heap holds slots), so a completion is one index, not a
//! look-up by id. Once the table has grown to the run's peak concurrency a
//! start allocates nothing.
//!
//! The table is the one record of what runs. The orders readers ask of it
//! — by id, by estimated end, by actual end ([`RunningOrder`]) — are
//! indices of slots over it, each built from the table the first time
//! [`ClusterState::running_in`] reads it and kept by every start and
//! completion from then on: a run nothing reads them in pays nothing for
//! them. Job ids are not checked here: they are proven
//! unique where jobs enter — the simulator's workload validation and the
//! service's admitted-id ledger — and a driver starts only the jobs waiting
//! in its own queue.

use std::cell::OnceCell;

use rsched_simkit::SimTime;

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
    /// scalar machine; a classed topology switches placement to per-class
    /// counts.
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
    pub(crate) fn with_topology(topology: Topology) -> Self {
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
    /// The resources it holds.
    pub allocation: Allocation,
}

impl RunningJob {
    /// `start + walltime`: when the scheduler expects it to finish.
    pub fn expected_end(&self) -> SimTime {
        self.start + self.spec.walltime
    }
}

/// An order of the running jobs, as [`ClusterState::running_in`] reads
/// them. Every key ends in the job id, so each order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunningOrder {
    /// Ascending job id.
    Id,
    /// Ascending `(expected_end, id)`: the order the estimated capacity
    /// calendar releases in.
    ExpectedEnd,
    /// Ascending `(end, id)`: the order the actual capacity calendar
    /// releases in.
    End,
}

impl RunningOrder {
    const ALL: [RunningOrder; 3] = [
        RunningOrder::Id,
        RunningOrder::ExpectedEnd,
        RunningOrder::End,
    ];

    fn key(self, job: &RunningJob) -> OrderKey {
        let time = match self {
            RunningOrder::Id => SimTime::ZERO,
            RunningOrder::ExpectedEnd => job.expected_end(),
            RunningOrder::End => job.end,
        };
        (time, job.spec.id)
    }

    /// The index entry of `job`, running in `slot`.
    fn entry(self, job: &RunningJob, slot: usize) -> OrderEntry {
        let slot = u32::try_from(slot).expect("the slot table holds fewer than 2^32 rows");
        (self.key(job), slot)
    }
}

/// A running job's key in one [`RunningOrder`].
type OrderKey = (SimTime, JobId);

/// One index entry: the key and the slot it names.
type OrderEntry = (OrderKey, u32);

/// The running jobs in one [`RunningOrder`]: the index's slots, read
/// through the slot table.
#[derive(Debug, Clone)]
pub struct RunningIn<'a> {
    entries: std::slice::Iter<'a, OrderEntry>,
    rows: &'a [Option<RunningJob>],
}

impl<'a> Iterator for RunningIn<'a> {
    type Item = &'a RunningJob;

    fn next(&mut self) -> Option<&'a RunningJob> {
        let &(_, slot) = self.entries.next()?;
        self.rows[slot as usize].as_ref()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for RunningIn<'_> {}

/// The indices of `orders` that have been built, each with its order.
fn built(
    orders: &mut [OnceCell<Vec<OrderEntry>>; 3],
) -> impl Iterator<Item = (RunningOrder, &mut Vec<OrderEntry>)> {
    let orders = RunningOrder::ALL.into_iter().zip(orders);
    orders.filter_map(|(order, index)| Some((order, index.get_mut()?)))
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
}

/// The mutable cluster state: allocator, the running jobs' slot table and
/// its indices, and the completed records.
///
/// Every transition is checked: active node and memory demand can never
/// exceed capacity (the paper's feasibility constraints), and a slot
/// completes only while it holds a job.
#[derive(Debug, Clone)]
pub struct ClusterState {
    config: ClusterConfig,
    allocator: NodeAllocator,
    /// The slot table: row `slot` holds the job started into it, or `None`.
    running: Vec<Option<RunningJob>>,
    /// The empty rows of `running`, reused last-freed first.
    free_slots: Vec<usize>,
    /// Per [`RunningOrder`], the running jobs' slots sorted by key: built
    /// at the order's first read, kept by start and complete from then on.
    orders: [OnceCell<Vec<OrderEntry>>; 3],
    completed: Vec<JobRecord>,
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
            running: Vec::new(),
            free_slots: Vec::new(),
            orders: Default::default(),
            completed: Vec::new(),
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
    pub(crate) fn fits_capacity(&self, spec: &JobSpec) -> bool {
        self.allocator.fits_capacity(&PlacementRequest::from(spec))
    }

    /// Attempt to start `spec` at `now`. On success the job holds resources
    /// in the returned slot until [`ClusterState::complete_job`] is called
    /// with that slot at its end time.
    pub fn start_job(
        &mut self,
        spec: &JobSpec,
        now: SimTime,
    ) -> Result<(usize, &RunningJob), StartError> {
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
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.running.push(None);
                self.running.len() - 1
            }
        };
        for (order, index) in built(&mut self.orders) {
            let entry = order.entry(&job, slot);
            let at = index.partition_point(|&e| e < entry);
            index.insert(at, entry);
        }
        Ok((slot, &*self.running[slot].insert(job)))
    }

    /// Complete the job in `slot`, releasing its resources and appending
    /// its [`JobRecord`].
    ///
    /// # Panics
    /// Panics if the slot holds no job or `now` differs from its end time —
    /// either indicates a simulator bug (jobs are non-preemptive and finish
    /// exactly at `start + duration`).
    pub fn complete_job(&mut self, slot: usize, now: SimTime) -> &JobRecord {
        let job = self
            .running
            .get_mut(slot)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("complete_job: slot {slot} is not running a job"));
        assert_eq!(
            job.end, now,
            "complete_job: job {} ends at {} but clock is {}",
            job.spec.id, job.end, now
        );
        self.free_slots.push(slot);
        for (order, index) in built(&mut self.orders) {
            let entry = order.entry(&job, slot);
            let at = index.partition_point(|&e| e < entry);
            assert_eq!(index.get(at), Some(&entry), "{order:?} index drift");
            index.remove(at);
        }
        self.allocator.release(&job.allocation);
        let record = JobRecord {
            spec: job.spec,
            start: job.start,
            end: job.end,
        };
        self.completed.push(record);
        self.completed.last().expect("just pushed")
    }

    /// Jobs currently executing, in slot order.
    pub fn running(&self) -> impl Iterator<Item = &RunningJob> {
        self.running.iter().flatten()
    }

    /// Jobs currently executing, in `order`. The order's index is built
    /// from the slot table at its first read (one sort) and kept by every
    /// start and completion from then on (a binary search and a shift).
    pub fn running_in(&self, order: RunningOrder) -> RunningIn<'_> {
        let index = self.orders[order as usize].get_or_init(|| {
            let rows = self.running.iter().enumerate();
            let mut index: Vec<OrderEntry> = rows
                .filter_map(|(slot, row)| Some(order.entry(row.as_ref()?, slot)))
                .collect();
            index.sort_unstable();
            index
        });
        RunningIn {
            entries: index.iter(),
            rows: &self.running,
        }
    }

    /// Whether `order`'s index has been built (telemetry).
    pub fn order_built(&self, order: RunningOrder) -> bool {
        self.orders[order as usize].get().is_some()
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len() - self.free_slots.len()
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

    /// Nodes currently in use.
    pub fn busy_nodes(&self) -> u32 {
        self.config.nodes - self.free_nodes()
    }

    /// Memory (GB) currently in use.
    pub fn busy_memory_gb(&self) -> u64 {
        self.config.memory_gb - self.free_memory_gb()
    }

    /// Assert the paper's feasibility constraints hold, and that the free
    /// counts plus what the running jobs hold add up to the machine.
    pub fn check_invariants(&self) {
        self.allocator.check_invariants();
        let node_demand: u32 = self.running().map(|j| j.spec.nodes).sum();
        let held_memory: u64 = self.running().map(|j| j.allocation.memory_gb).sum();
        // Classed memory is node-attached: a zero-node job holds none there
        // (`ClassedAllocator::try_allocate`), whatever it declares.
        let mem_demand: u64 = self
            .running()
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
        assert_eq!(held_memory, self.busy_memory_gb(), "memory ledger drift");
        if self.config.is_flat() {
            // Flat memory is demand-based: busy == exactly what jobs asked.
            assert_eq!(mem_demand, held_memory, "flat memory is the demand");
        } else {
            // Classed memory is capacity-based (whole nodes charged), so
            // busy memory covers demand but may exceed it.
            assert!(
                mem_demand <= held_memory,
                "busy memory {held_memory} does not cover demand {mem_demand}"
            );
        }
        assert_eq!(
            self.running().count(),
            self.running_count(),
            "slot table drift"
        );
        for (order, index) in RunningOrder::ALL.into_iter().zip(&self.orders) {
            let Some(index) = index.get() else { continue };
            // Strictly ascending keys, one per running job, each naming
            // the row it was taken from: the index is the table's order.
            assert_eq!(index.len(), self.running_count(), "{order:?} index size");
            assert!(
                index.windows(2).all(|w| w[0].0 < w[1].0),
                "{order:?} index order"
            );
            for &(key, slot) in index {
                let row = self.running[slot as usize].as_ref();
                assert_eq!(
                    row.map(|job| order.key(job)),
                    Some(key),
                    "{order:?} index row"
                );
            }
        }
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
        let (slot, rj) = c.start_job(&s, t0).expect("starts");
        assert_eq!(rj.end, SimTime::from_secs(100));
        assert_eq!(c.free_nodes(), 192);
        assert_eq!(c.free_memory_gb(), 1536);
        c.check_invariants();
        let rec = c.complete_job(slot, SimTime::from_secs(100)).clone();
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
    fn slots_are_reused_last_freed_first() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let start = |c: &mut ClusterState, id, dur| {
            c.start_job(&spec(id, dur, 1, 1), SimTime::ZERO)
                .expect("ok")
                .0
        };
        let slots = [10, 20, 30].map(|dur| start(&mut c, dur as u32, dur));
        assert_eq!(slots, [0, 1, 2]);
        c.complete_job(1, SimTime::from_secs(20));
        c.complete_job(0, SimTime::from_secs(10));
        assert_eq!(c.running_count(), 1);
        assert_eq!(start(&mut c, 40, 40), 0);
        assert_eq!(start(&mut c, 50, 50), 1);
        assert_eq!(start(&mut c, 60, 60), 3, "a full table grows");
        let mut ids: Vec<u32> = c.running().map(|j| j.spec.id.0).collect();
        ids.sort();
        assert_eq!(ids, [30, 40, 50, 60]);
        c.check_invariants();
    }

    #[test]
    fn an_order_is_built_at_its_first_read_and_kept_from_then_on() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let start = |c: &mut ClusterState, id, walltime, dur| {
            let job = spec(id, dur, 1, 1).with_walltime(SimDuration::from_secs(walltime));
            c.start_job(&job, SimTime::ZERO).expect("ok").0
        };
        let ids = |c: &ClusterState, order| -> Vec<u32> {
            c.running_in(order).map(|j| j.spec.id.0).collect()
        };
        let first = start(&mut c, 5, 100, 30);
        start(&mut c, 2, 50, 50);
        assert!(!c.order_built(RunningOrder::End));
        assert_eq!(ids(&c, RunningOrder::End), [5, 2]);
        assert!(c.order_built(RunningOrder::End) && !c.order_built(RunningOrder::Id));
        start(&mut c, 9, 40, 40);
        c.complete_job(first, SimTime::from_secs(30));
        assert_eq!(ids(&c, RunningOrder::End), [9, 2]);
        assert_eq!(ids(&c, RunningOrder::Id), [2, 9]);
        assert_eq!(ids(&c, RunningOrder::ExpectedEnd), [9, 2]);
        assert_eq!(c.running_in(RunningOrder::Id).len(), 2);
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_an_empty_slot_panics() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let (slot, _) = c.start_job(&spec(1, 100, 1, 1), SimTime::ZERO).expect("ok");
        c.complete_job(slot, SimTime::from_secs(100));
        c.complete_job(slot, SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "ends at")]
    fn completing_at_wrong_time_panics() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        let (slot, _) = c.start_job(&spec(1, 100, 1, 1), SimTime::ZERO).expect("ok");
        c.complete_job(slot, SimTime::from_secs(99));
    }

    #[test]
    fn busy_accounting() {
        let mut c = ClusterState::new(ClusterConfig::paper_default());
        c.start_job(&spec(1, 10, 100, 1000), SimTime::ZERO)
            .expect("ok");
        assert_eq!(c.busy_nodes(), 100);
        assert_eq!(c.busy_memory_gb(), 1000);
        assert_eq!(c.running_count(), 1);
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
        let (slot, job) = c.start_job(&gpu_job, SimTime::ZERO).expect("starts");
        assert_eq!(job.allocation.by_class, [0, 4, 0, 0]);
        assert_eq!(c.free_by_class(), [192, 44, 16, 0]);
        // A scalar job lands in the cpu class.
        c.start_job(&spec(2, 100, 8, 8), SimTime::ZERO).expect("ok");
        assert_eq!(c.free_by_class(), [184, 44, 16, 0]);
        // A zero-node job holds nothing, so its memory is never short.
        c.start_job(&spec(3, 100, 0, 1 << 40), SimTime::ZERO)
            .expect("consumes nothing");
        assert_eq!(c.free_by_class(), [184, 44, 16, 0]);
        c.check_invariants();
        for slot in [slot, 1, 2] {
            c.complete_job(slot, SimTime::from_secs(100));
        }
        assert_eq!(c.free_by_class(), [192, 48, 16, 0]);
        assert_eq!(c.free_memory_gb(), c.config().memory_gb);
        c.check_invariants();
    }

    #[test]
    fn a_spanning_job_returns_nodes_to_the_classes_that_hosted_them() {
        // One scalar job wider than every class.
        let mut c = ClusterState::new(ClusterConfig::mixed_256());
        let (slot, job) = c
            .start_job(&spec(1, 100, 200, 0), SimTime::ZERO)
            .expect("spans classes");
        assert_eq!(job.allocation.by_class, [192, 8, 0, 0]);
        assert_eq!(c.free_by_class(), [0, 40, 16, 0]);
        c.check_invariants();
        c.complete_job(slot, SimTime::from_secs(100));
        assert_eq!(c.free_by_class(), [192, 48, 16, 0]);
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
