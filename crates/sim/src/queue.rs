//! Incrementally-maintained simulator state: the sorted waiting queue with
//! its fit summary (min-demand watermarks on a flat machine, an exact
//! per-compatibility index on a classed one), and the running-summary
//! cache.
//!
//! These are the data structures behind the zero-copy kernel, shared by
//! **both drivers** since the service split: the virtual-time simulator and
//! the wall-clock scheduler daemon drive the same [`WaitQueue`] and
//! [`RunningSet`] through [`KernelState`](crate::kernel::KernelState). The
//! old kernel re-sorted the waiting queue on every event-loop iteration and
//! rebuilt the running-summary vector (plus a full clone of the completed
//! records) on every policy query — O(n) per query, O(n²) per run. Here:
//!
//! * [`WaitQueue`] keeps jobs sorted by `(rank, submit, id)`. Arrivals
//!   come in batches — whatever one service tick admitted, or the one job
//!   of a virtual-time arrival — through one routine, `WaitQueue::arrive`:
//!   the batch is sorted by the same key and appended, and where part of it
//!   sorts ahead of waiting jobs it is merged in from the back, each
//!   waiting job behind the batch's first key moving once and none ahead of
//!   it at all (`sim_queue_arrival_shifts_total` counts the moves). The
//!   queue pops the head in O(1) amortized via a head
//!   offset, and answers "does anything fit?" without probing the jobs:
//!   conservative min-demand watermarks ahead of a dense column scan on a
//!   flat machine, a lookup in an exact count of waiting jobs per
//!   compatible-slot set on a classed one; *which* job fits (SJF's pick)
//!   from a shortest-first order, and *which* backfills (EASY's) from an
//!   arrival order, each built the first time a policy asks. A
//!   removal shifts whichever side is shorter. The **rank** is a fair-share
//!   priority tag:
//!   the virtual-time simulator always inserts at rank 0, which makes the
//!   order exactly the paper's `(submit, id)` arrival order; the
//!   multi-tenant service daemon inserts with usage-decayed tenant ranks so
//!   low-usage tenants sort ahead without any per-query re-sort;
//! * [`RunningSet`] mirrors the cluster's running jobs as
//!   [`RunningSummary`]s sorted by id, updated on start/complete instead of
//!   rebuilt per query.
//!
//! Both expose their contents as slices, which is what lets
//! [`SystemView`](crate::SystemView) borrow instead of clone.

use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::ops::Range;

use rsched_cluster::{
    compatible_slots, ClusterState, JobId, JobSpec, PlacementRequest, SlotSet, Topology,
    MAX_CLASSES,
};
use rsched_simkit::{SimDuration, SimTime};

use crate::profile::HeadReservation;
use crate::scan;
use crate::store::JobStore;
use crate::view::RunningSummary;

/// Key of the shortest-first order: a job's *demand class* — everything
/// the machine's fit test reads of it — then `(walltime, id)`, so the first
/// key of each class is the only job of that class SJF can ever pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OrderKey {
    /// `memory_gb` (flat) or compatible-slot bits (classed); with `nodes`.
    class: u64,
    nodes: u32,
    walltime: SimDuration,
    id: JobId,
}

// One key per waiting job: packed, not a 32-byte nested tuple.
const _: () = assert!(std::mem::size_of::<OrderKey>() == 24);

impl OrderKey {
    fn of(topology: &Topology, job: &JobSpec) -> Self {
        let class = if topology.is_flat() {
            job.memory_gb
        } else {
            u64::from(compatible_slots(topology, &PlacementRequest::from(job)).bits())
        };
        OrderKey {
            class,
            nodes: job.nodes,
            walltime: job.walltime,
            id: job.id,
        }
    }
}

/// A job's place in the queue: `(rank, submit, id)`.
type Place = (u64, SimTime, JobId);

/// Key of the arrival order: `(class, nodes)` as in [`OrderKey`], then the
/// job's [`Place`], so a class's keys run in queue order; last, where it
/// never orders, the walltime a walk reads.
type ArrivalKey = (u64, u32, Place, SimDuration);

fn arrival_key(topology: &Topology, job: &JobSpec, rank: u64) -> ArrivalKey {
    let OrderKey { class, nodes, .. } = OrderKey::of(topology, job);
    (class, nodes, (rank, job.submit, job.id), job.walltime)
}

/// What the class walk reads of either order's key: its `(class, nodes)`, and
/// the last key a class of its memory value (slot set) and `nodes` could hold.
trait ClassKey: Ord + Copy {
    fn class(&self) -> (u64, u32);
    fn last_of(self, nodes: u32) -> Self;
}

impl ClassKey for OrderKey {
    fn class(&self) -> (u64, u32) {
        (self.class, self.nodes)
    }

    fn last_of(self, nodes: u32) -> Self {
        OrderKey {
            nodes,
            walltime: SimDuration::MAX,
            id: JobId(u32::MAX),
            ..self
        }
    }
}

impl ClassKey for ArrivalKey {
    fn class(&self) -> (u64, u32) {
        (self.0, self.1)
    }

    fn last_of(self, nodes: u32) -> Self {
        let last = (u64::MAX, SimTime::MAX, JobId(u32::MAX));
        (self.0, nodes, last, SimDuration::MAX)
    }
}

/// The waiting queue: jobs sorted ascending by `(rank, submit, id)`.
///
/// With every rank 0 (the simulator's only mode) this is exactly the
/// `(submit, id)` arrival order the paper's policies assume.
///
/// The queue is built for one machine and summarizes its jobs for that
/// machine's fit test: the watermarks on a flat topology, the index on a
/// classed one — never both. Public as [`SystemView`](crate::SystemView)'s
/// opaque handle only: every method is the crate's.
#[derive(Debug)]
pub struct WaitQueue {
    /// SoA-packed backing storage; the live queue is `jobs[head..]`.
    /// The store's dense demand columns feed the flat-cluster fit scan.
    jobs: JobStore,
    /// Fair-share rank per job, aligned with the store (same head offset).
    ranks: Vec<u64>,
    /// Index of the logical front. Head removals (the FCFS common case)
    /// just advance this; the buffer is compacted when the dead prefix
    /// outgrows the live queue.
    head: usize,
    /// Flat machines. Conservative lower bound on the minimum node demand
    /// over the queue: never above the true minimum (insertions tighten
    /// it, removals may leave it stale-low), so `free < watermark` soundly
    /// proves nothing fits. Reset when the queue drains.
    min_nodes: u32,
    /// Same, for memory.
    min_memory_gb: u64,
    /// The machine's node classes; flat selects the watermarks above,
    /// classed the index below.
    topology: Topology,
    /// Classed machines. How many waiting jobs have each
    /// `(compatible slots, nodes)` — all the allocator's fit test reads of
    /// a job (see [`compatible_slots`]). Exact: inserts and removals keep
    /// it equal to a recount of the live queue, zero counts are dropped.
    index: BTreeMap<(SlotSet, u32), u32>,
    /// The live queue by `(demand class, walltime, id)`, for "which job
    /// fits?". Built at the first [`shortest`](Self::shortest), kept by
    /// inserts and removals from then on: a run whose policy never asks
    /// (FCFS, backfill, the agents, the daemon's burst) carries no order.
    order: OnceCell<BTreeSet<OrderKey>>,
    /// Keys `shortest` has examined so far (telemetry).
    probes: Cell<u64>,
    /// The live queue by [`ArrivalKey`], for "which job backfills?": built
    /// at the first [`first_admitted`](Self::first_admitted), kept as `order` is.
    arrival: OnceCell<BTreeSet<ArrivalKey>>,
    /// Keys `first_admitted` has examined so far (telemetry).
    entries: Cell<u64>,
    /// Waiting jobs [`arrive`](Self::arrive) has moved to make room so far
    /// (telemetry).
    shifts: u64,
}

impl WaitQueue {
    /// An empty queue for a machine with this topology.
    pub(crate) fn new(topology: Topology) -> Self {
        WaitQueue {
            jobs: JobStore::new(),
            ranks: Vec::new(),
            head: 0,
            min_nodes: u32::MAX,
            min_memory_gb: u64::MAX,
            topology,
            index: BTreeMap::new(),
            order: OnceCell::new(),
            probes: Cell::new(0),
            arrival: OnceCell::new(),
            entries: Cell::new(0),
            shifts: 0,
        }
    }

    /// The index key of `job` on this queue's (classed) machine.
    fn index_key(&self, job: &JobSpec) -> (SlotSet, u32) {
        let slots = compatible_slots(&self.topology, &PlacementRequest::from(job));
        (slots, job.nodes)
    }

    pub(crate) fn as_slice(&self) -> &[JobSpec] {
        &self.jobs.specs()[self.head..]
    }

    pub(crate) fn len(&self) -> usize {
        self.jobs.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.jobs.len()
    }

    /// Position of `(rank, submit, id)` among the live jobs `within`,
    /// whether or not it is present (`Result` as in `slice::binary_search`).
    fn position(&self, within: Range<usize>, key: Place) -> Result<usize, usize> {
        let live = self.as_slice();
        let ranks = &self.ranks[self.head..];
        let (mut lo, mut hi) = (within.start, within.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mid_key = (ranks[mid], live[mid].submit, live[mid].id);
            match mid_key.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Insert at rank 0, preserving `(submit, id)` order — the virtual-time
    /// simulator's path. Arrivals are popped in time order, so this is an
    /// O(log n) search that lands at the back and an O(1) append.
    pub(crate) fn insert(&mut self, job: JobSpec) {
        self.insert_ranked(job, 0);
    }

    /// Insert preserving `(rank, submit, id)` order, `rank` a usage-decayed
    /// fair-share tag (lower sorts earlier): [`arrive`](Self::arrive) on a
    /// batch of one.
    pub(crate) fn insert_ranked(&mut self, job: JobSpec, rank: u64) {
        self.arrive(&mut [(job, rank)]);
    }

    /// A batch of `(job, rank)` arrivals joins the queue, each where
    /// `(rank, submit, id)` puts it — the queue one-by-one insertion in any
    /// order would leave, since ids are unique. The batch is sorted by that
    /// key and appended, which is all there is to do when none of it sorts
    /// ahead of a waiting job (every virtual-time arrival); otherwise it is
    /// merged in from the back: the waiting jobs behind each arrival move
    /// right in one run, past every arrival still to be placed, so a
    /// waiting job moves at most once per batch however many arrivals land
    /// ahead of it, and none ahead of the batch's first key moves at all.
    /// This is the only place arrivals shift the queue.
    pub(crate) fn arrive(&mut self, batch: &mut [(JobSpec, u64)]) {
        let place = |(job, rank): &(JobSpec, u64)| -> Place { (*rank, job.submit, job.id) };
        batch.sort_unstable_by_key(place);
        let Some(first) = batch.first().map(place) else {
            return;
        };
        let duplicate = "duplicate job ids are rejected before insertion";
        let ascends = |pair: &[(JobSpec, u64)]| place(&pair[0]) < place(&pair[1]);
        assert!(batch.windows(2).all(ascends), "{duplicate}");
        let mut end = self.len();
        let floor = self.position(0..end, first).expect_err(duplicate);
        for (job, rank) in batch.iter() {
            if self.topology.is_flat() {
                self.min_nodes = self.min_nodes.min(job.nodes);
                self.min_memory_gb = self.min_memory_gb.min(job.memory_gb);
            } else {
                *self.index.entry(self.index_key(job)).or_insert(0) += 1;
            }
            if let Some(order) = self.order.get_mut() {
                order.insert(OrderKey::of(&self.topology, job));
            }
            if let Some(arrival) = self.arrival.get_mut() {
                arrival.insert(arrival_key(&self.topology, job, *rank));
            }
            self.jobs.push(job.clone());
            self.ranks.push(*rank);
        }
        if floor == end {
            return;
        }
        // The waiting jobs `floor..end` are still to be merged; the slots
        // behind them hold the appended copies, then whatever a run left.
        for (ahead, entry @ (job, rank)) in batch.iter().enumerate().rev() {
            let at = self
                .position(floor..end, place(entry))
                .expect_err(duplicate);
            let (from, to) = (self.head + at, self.head + end);
            self.jobs.shift_right(from, to, ahead + 1);
            self.ranks.copy_within(from..to, from + ahead + 1);
            self.jobs.set(from + ahead, job.clone());
            self.ranks[from + ahead] = *rank;
            self.shifts += (end - at) as u64;
            end = at;
        }
    }

    /// Remove the job at `index` of [`as_slice`](Self::as_slice), returning
    /// it. O(1) amortized at the head, O(min(index, len − index))
    /// elsewhere — the shorter side moves: up to the middle, the prefix
    /// left of the job rotates right by one and the head offset advances,
    /// never touching the tail; past the middle, the tail behind the job
    /// shifts left. FCFS and backfills near the head stay on the first
    /// path; SJF's minimum and an EASY backfill can sit anywhere in the
    /// queue, and neither pays for more than half of it.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub(crate) fn remove_at(&mut self, index: usize) -> JobSpec {
        assert!(index < self.len(), "WaitQueue::remove_at out of bounds");
        let at = self.head + index;
        let rank = self.ranks[at];
        let job = if index > self.len() / 2 {
            self.ranks.remove(at);
            self.jobs.remove(at)
        } else {
            self.ranks[self.head..=at].rotate_right(1);
            self.jobs.rotate_right_prefix(self.head, at);
            self.head += 1;
            self.jobs.specs()[self.head - 1].clone()
        };
        if let Some(order) = self.order.get_mut() {
            order.remove(&OrderKey::of(&self.topology, &job));
        }
        if let Some(arrival) = self.arrival.get_mut() {
            arrival.remove(&arrival_key(&self.topology, &job, rank));
        }
        if !self.topology.is_flat() {
            let key = self.index_key(&job);
            let count = self
                .index
                .get_mut(&key)
                .expect("a waiting job was counted at insertion");
            *count -= 1;
            if *count == 0 {
                self.index.remove(&key);
            }
        }
        // Compact once the dead prefix dominates, keeping amortized
        // O(1) head pops without unbounded memory retention.
        if self.head > 32 && self.head * 2 > self.jobs.len() {
            self.jobs.drain_front(self.head);
            self.ranks.drain(..self.head);
            self.head = 0;
        }
        if self.is_empty() {
            self.jobs.clear();
            self.ranks.clear();
            self.head = 0;
            self.min_nodes = u32::MAX;
            self.min_memory_gb = u64::MAX;
        }
        job
    }

    /// `true` if at least one waiting job fits the cluster's free resources
    /// right now — `any(can_fit)` over the queue, for every input.
    ///
    /// **Classed machine**: a lookup, no scan. A job fits exactly when its
    /// `nodes` is within the free nodes of its compatible slots, so among
    /// the jobs sharing a slot set only the smallest `nodes` matters, and
    /// the index — ordered by `(slots, nodes)` — holds it as the first key
    /// of each set: one probe per set present (at most 2^classes).
    /// Nothing else is consulted: the scalar watermarks would be wrong
    /// here, since a zero-node job fits whatever its `memory_gb`.
    ///
    /// **Flat machine**: the watermarks prove the common saturated case
    /// in O(1); otherwise the dense column scan early-exits at the first
    /// fit. A scan that walks the *whole* queue without finding a fit has
    /// seen every job, so it re-tightens the (possibly stale-low)
    /// watermarks to the exact minima as a side effect, for free —
    /// removals can therefore only degrade the short-circuit until the
    /// next saturated scan, never permanently.
    pub(crate) fn any_fits(&mut self, cluster: &ClusterState) -> bool {
        debug_assert_eq!(cluster.config().topology, self.topology);
        if self.is_empty() {
            return false;
        }
        if !self.topology.is_flat() {
            let free = cluster.free_by_class();
            let mut smallest = self.index.first_key_value();
            while let Some((&(slots, nodes), _)) = smallest {
                if nodes <= slots.free_nodes(&free) {
                    return true;
                }
                // On to the next slot set: the first key past every
                // `nodes` of this one.
                smallest = self
                    .index
                    .range((Excluded((slots, u32::MAX)), Unbounded))
                    .next();
            }
            return false;
        }
        let free_nodes = cluster.free_nodes();
        let free_memory_gb = cluster.free_memory_gb();
        if free_nodes < self.min_nodes || free_memory_gb < self.min_memory_gb {
            return false;
        }
        // `can_fit` is exactly the two column comparisons, so the store's
        // SoA mirror gives the same answer as probing the full specs.
        let out = scan::first_fit_flat_serial(
            &self.jobs.nodes()[self.head..],
            &self.jobs.memory_gb()[self.head..],
            free_nodes,
            free_memory_gb,
        );
        if out.first_fit.is_some() {
            // Early exit: a partial scan's minima would not be a sound
            // watermark, so only complete (no-fit) scans update it.
            return true;
        }
        self.min_nodes = out.min_nodes;
        self.min_memory_gb = out.min_memory_gb;
        false
    }

    /// The waiting job with the least `(walltime, id)` among those that
    /// fit these free levels — `filter(can_fit).min_by_key(..)` for every
    /// input, without the walk: a fitting class's first key is its only
    /// candidate ([`fitting_classes`](Self::fitting_classes)).
    pub(crate) fn shortest(
        &self,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: &[u32; MAX_CLASSES],
    ) -> Option<JobId> {
        let key_of = |job| OrderKey::of(&self.topology, job);
        let order = self
            .order
            .get_or_init(|| self.as_slice().iter().map(key_of).collect());
        let mut best: Option<(SimDuration, JobId)> = None;
        let free = (free_nodes, free_memory_gb, free_by_class);
        self.fitting_classes(free, order, &self.probes, |key| {
            if best.is_none_or(|least| (key.walltime, key.id) < least) {
                best = Some((key.walltime, key.id));
            }
        });
        best.map(|(_, id)| id)
    }

    /// Calls `visit` with the first key of every demand class of `keys`
    /// that fits these free levels, counting in `examined` the keys it
    /// looks at. Jobs of one demand class fit or fail
    /// together, so only each class's first key is examined, however deep
    /// the queue; a class that fails takes every wider `nodes` of its
    /// memory value (slot set) with it, and a flat walk ends at the first
    /// memory value above what is free.
    fn fitting_classes<K: ClassKey>(
        &self,
        (free_nodes, free_memory_gb, free_by_class): (u32, u64, &[u32; MAX_CLASSES]),
        keys: &BTreeSet<K>,
        examined: &Cell<u64>,
        mut visit: impl FnMut(K),
    ) {
        let flat = self.topology.is_flat();
        let mut first = keys.first();
        while let Some(&key) = first {
            examined.set(examined.get() + 1);
            let (class, nodes) = key.class();
            if flat && class > free_memory_gb {
                break;
            }
            let free = if flat {
                free_nodes
            } else {
                let slots = (0..MAX_CLASSES).filter(|slot| class >> slot & 1 == 1);
                slots.map(|slot| free_by_class[slot]).sum()
            };
            let fits = nodes <= free;
            if fits {
                visit(key);
            }
            let past = key.last_of(if fits { nodes } else { u32::MAX });
            first = keys.range((Excluded(past), Unbounded)).next();
        }
    }

    /// The first waiting job, in queue order, that fits the `free` nodes,
    /// memory and nodes per class slot and that `reservation` admits —
    /// `filter(can_fit).find(admits)` for every input, without the walk.
    /// Beyond its walltime the rule reads only a candidate's demand class,
    /// so a fitting class is asked once, of its first member's spec; if that
    /// is turned down, the keys behind it are read until one ends by the
    /// shadow or the walk passes the best place an earlier class found.
    pub(crate) fn first_admitted(
        &self,
        free: (u32, u64, &[u32; MAX_CLASSES]),
        reservation: &HeadReservation,
    ) -> Option<JobId> {
        let arrival = self.arrival.get_or_init(|| {
            let jobs = self.as_slice().iter().zip(&self.ranks[self.head..]);
            jobs.map(|(job, &rank)| arrival_key(&self.topology, job, rank))
                .collect()
        });
        let mut best: Option<Place> = None;
        self.fitting_classes(free, arrival, &self.entries, |first| {
            let ahead = |key: &ArrivalKey| best.is_none_or(|least| key.2 < least);
            if !ahead(&first) {
                return;
            }
            let at = self.position(0..self.len(), first.2);
            let at = at.expect("indexed jobs wait");
            let found = if reservation.admits(&self.as_slice()[at]) {
                Some(&first)
            } else {
                let behind = (Excluded(first), Included(first.last_of(first.1)));
                let members = arrival.range(behind).take_while(|&key| ahead(key));
                let mut members = members.inspect(|_| self.entries.set(self.entries.get() + 1));
                members.find(|key| reservation.ends_by_shadow(key.3))
            };
            best = found.map(|key| key.2).or(best);
        });
        best.map(|(_, _, id)| id)
    }

    /// Telemetry: the order's `(builds, probes)` — 0 or 1, keys examined.
    pub(crate) fn order_counters(&self) -> (u64, u64) {
        (u64::from(self.order.get().is_some()), self.probes.get())
    }

    /// Telemetry: the same two numbers of the arrival order.
    pub(crate) fn arrival_counters(&self) -> (u64, u64) {
        (u64::from(self.arrival.get().is_some()), self.entries.get())
    }

    /// Telemetry: waiting jobs moved to make room for arrivals.
    pub(crate) fn arrival_shifts(&self) -> u64 {
        self.shifts
    }
}

/// The running-job mirror: [`RunningSummary`]s sorted ascending by id,
/// maintained on start/complete. Bounded by the node count (every running
/// job holds ≥ 1 node), so the O(len) `Vec` shifts are trivially cheap.
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    jobs: Vec<RunningSummary>,
}

impl RunningSet {
    pub(crate) fn new() -> Self {
        RunningSet { jobs: Vec::new() }
    }

    pub(crate) fn as_slice(&self) -> &[RunningSummary] {
        &self.jobs
    }

    pub(crate) fn insert(&mut self, summary: RunningSummary) {
        match self.jobs.binary_search_by_key(&summary.id, |r| r.id) {
            Ok(_) => unreachable!("a job starts at most once"),
            Err(at) => self.jobs.insert(at, summary),
        }
    }

    pub(crate) fn remove(&mut self, id: JobId) {
        if let Ok(at) = self.jobs.binary_search_by_key(&id, |r| r.id) {
            self.jobs.remove(at);
        }
    }

    /// The summary for a running job, if present. O(log n) — used by the
    /// kernel to recover a completing job's `expected_end` for the
    /// capacity-ledger release bookkeeping.
    pub(crate) fn get(&self, id: JobId) -> Option<&RunningSummary> {
        self.jobs
            .binary_search_by_key(&id, |r| r.id)
            .ok()
            .map(|at| &self.jobs[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsched_cluster::{ClusterConfig, NodeClass, ResourceVec, UserId};
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, submit_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            0,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(60),
            nodes,
            mem,
        )
    }

    /// Live-queue index of the job with this id (tests only).
    fn index_of(q: &WaitQueue, id: u32) -> Option<usize> {
        q.as_slice().iter().position(|j| j.id == JobId(id))
    }

    fn remove_id(q: &mut WaitQueue, id: u32) -> Option<JobSpec> {
        index_of(q, id).map(|at| q.remove_at(at))
    }

    #[test]
    fn insert_keeps_submit_then_id_order() {
        let mut q = WaitQueue::new(Topology::flat());
        for j in [spec(5, 10, 1, 1), spec(2, 10, 1, 1), spec(9, 3, 1, 1)] {
            q.insert(j);
        }
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![9, 2, 5], "submit asc, then id asc");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn ranked_insert_sorts_by_rank_before_submit() {
        let mut q = WaitQueue::new(Topology::flat());
        // Tenant with heavy usage (rank 500) submitted earliest; light
        // tenants (rank 0) later — light tenants still sort first.
        q.insert_ranked(spec(1, 0, 1, 1), 500);
        q.insert_ranked(spec(2, 10, 1, 1), 0);
        q.insert_ranked(spec(3, 5, 1, 1), 0);
        q.insert_ranked(spec(4, 1, 1, 1), 500);
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3, 2, 1, 4], "rank asc, then submit, then id");
    }

    #[test]
    fn head_removal_is_offset_based_and_compacts() {
        let mut q = WaitQueue::new(Topology::flat());
        for i in 0..100u32 {
            q.insert(spec(i, i as u64, 1, 1));
        }
        for i in 0..100u32 {
            let j = q.remove_at(0);
            assert_eq!(j.id, JobId(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.head, 0, "drained queue was compacted");
        assert!(q.ranks.is_empty(), "rank column drained with the jobs");
    }

    #[test]
    fn middle_removal_preserves_order() {
        let mut q = WaitQueue::new(Topology::flat());
        for i in 0..5u32 {
            q.insert(spec(i, 0, 1, 1));
        }
        remove_id(&mut q, 2).expect("present");
        let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
        assert!(remove_id(&mut q, 2).is_none(), "gone");
    }

    /// Past the middle the tail shifts left instead of the prefix right:
    /// same live order, columns and ranks still aligned, head offset
    /// untouched, the compaction rule still the dead prefix against the
    /// buffer, and — classed — the count index still a recount.
    #[test]
    fn tail_side_removal_shifts_the_tail_and_leaves_the_head_alone() {
        for topology in [Topology::flat(), ClusterConfig::mixed_256().topology] {
            let mut q = WaitQueue::new(topology);
            for i in 0..100u32 {
                q.insert_ranked(spec(i, i as u64, 1 + i % 4, 1), (i / 50) as u64);
            }
            for _ in 0..40 {
                q.remove_at(0);
            }
            assert_eq!((q.head, q.len()), (40, 60), "no compaction yet");

            assert_eq!(q.remove_at(55).id, JobId(95), "index 55 of 60: tail side");
            assert_eq!(q.head, 40, "the head offset did not move");
            assert_eq!(q.remove_at(29).id, JobId(69), "the middle of 59 rotates");
            assert_eq!(q.head, 41);
            let ids: Vec<u32> = q.as_slice().iter().map(|j| j.id.0).collect();
            let expect: Vec<u32> = (40..100).filter(|i| ![69, 95].contains(i)).collect();
            assert_eq!(ids, expect, "live order preserved");

            // Tail-side removals shrink the buffer, not the dead prefix;
            // once the prefix is the larger half the queue compacts.
            while q.head > 0 {
                assert!(q.head * 2 <= q.jobs.len(), "compaction is overdue");
                let last = q.len() - 1;
                q.remove_at(last);
            }
            assert_eq!(
                q.jobs.len(),
                40,
                "compacted when 41 dead slots outgrew half of 81"
            );
            assert_eq!(q.as_slice().first().map(|j| j.id), Some(JobId(40)));

            crate::store::tests::assert_aligned(&q.jobs);
            assert_eq!(q.ranks.len(), q.jobs.len());
            let ranks: Vec<u64> = q.as_slice().iter().map(|j| (j.id.0 / 50) as u64).collect();
            assert_eq!(q.ranks, ranks, "rank column moved with the jobs");
            let mut recount = BTreeMap::new();
            if !topology.is_flat() {
                for job in q.as_slice() {
                    *recount.entry(q.index_key(job)).or_insert(0u32) += 1;
                }
            }
            assert_eq!(q.index, recount);
        }
    }

    #[test]
    fn watermark_short_circuits_saturated_states_soundly() {
        let cluster = ClusterState::new(ClusterConfig::new(8, 64));
        let mut busy = cluster.clone();
        busy.start_job(&spec(99, 0, 6, 32), SimTime::ZERO).unwrap();

        let mut q = WaitQueue::new(Topology::flat());
        assert!(!q.any_fits(&busy), "empty queue never fits");
        q.insert(spec(1, 0, 4, 8)); // needs 4 nodes; only 2 free
        q.insert(spec(2, 0, 8, 8));
        assert!(!q.any_fits(&busy), "watermark (min 4 nodes) proves it");
        assert!(q.any_fits(&cluster), "idle cluster fits job 1");

        // Removal leaves the watermark stale-low — still sound (it can only
        // fail to short-circuit, never wrongly claim saturation).
        remove_id(&mut q, 1).unwrap();
        assert!(!q.any_fits(&busy), "only the 8-node job remains");
        assert!(q.any_fits(&cluster));

        // Draining resets the watermark so a tiny later job isn't masked.
        remove_id(&mut q, 2).unwrap();
        q.insert(spec(3, 0, 1, 1));
        assert!(q.any_fits(&busy), "1-node job fits the 2 free nodes");
    }

    #[test]
    fn failed_full_scan_re_tightens_stale_watermark() {
        let mut busy = ClusterState::new(ClusterConfig::new(8, 64));
        busy.start_job(&spec(99, 0, 7, 32), SimTime::ZERO).unwrap();
        // 1 node / 32 GB free.

        let mut q = WaitQueue::new(Topology::flat());
        q.insert(spec(1, 0, 1, 8)); // the small job that pins the watermark
        q.insert(spec(2, 0, 4, 8));
        q.insert(spec(3, 0, 6, 8));
        remove_id(&mut q, 1).unwrap();
        // Stale: watermark still (1 node, 8 GB) though the true min is 4.
        assert_eq!(q.min_nodes, 1);

        // Free nodes (1) ≥ stale watermark (1) → full scan; nothing fits,
        // so the scan re-tightens the watermark to the exact minima.
        assert!(!q.any_fits(&busy));
        assert_eq!(q.min_nodes, 4);
        assert_eq!(q.min_memory_gb, 8);
        // From now on the same saturated state is proved in O(1).
        assert!(!q.any_fits(&busy));
    }

    #[test]
    fn running_set_stays_sorted_by_id() {
        let mut r = RunningSet::new();
        for id in [7u32, 3, 9, 1] {
            r.insert(RunningSummary {
                id: JobId(id),
                user: UserId(0),
                nodes: 1,
                memory_gb: 1,
                start: SimTime::ZERO,
                submit: SimTime::ZERO,
                expected_end: SimTime::from_secs(10),
                class: None,
            });
        }
        let ids: Vec<u32> = r.as_slice().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 3, 7, 9]);
        r.remove(JobId(7));
        r.remove(JobId(42)); // absent: no-op
        let ids: Vec<u32> = r.as_slice().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 3, 9]);
    }

    #[test]
    fn rank_zero_path_matches_pure_submit_id_order() {
        // The virtual-time driver's invariant: with all ranks 0, the queue
        // order is exactly the PR-4 era (submit, id) order.
        let mut q = WaitQueue::new(Topology::flat());
        let mut expect: Vec<(u64, u32)> = Vec::new();
        for i in 0..40u32 {
            let submit = (i as u64 * 37) % 17;
            q.insert(spec(i, submit, 1, 1));
            expect.push((submit, i));
        }
        expect.sort();
        let got: Vec<(u64, u32)> = q
            .as_slice()
            .iter()
            .map(|j| (j.submit.as_secs(), j.id.0))
            .collect();
        assert_eq!(got, expect);
    }

    const CLASSES: [NodeClass; 3] = [NodeClass::Cpu, NodeClass::Gpu, NodeClass::BigMem];

    /// A waiting job drawn from three raw numbers: up to the whole flat
    /// machine (1 to 16 nodes in powers of two, 8 to 128 GB in 40 GB
    /// steps), or — on the classed one — one of eight widths from 0 to 63
    /// nodes with an optional class pin and an optional per-node demand
    /// that only the gpu or only the bigmem class can host. Few demand
    /// classes and one of three walltimes, as on the benchmark's inputs
    /// (8 and 39 classes over 8000 jobs): a class holds several jobs, in
    /// any order of walltime, and walltime ties are common.
    fn arbitrary_job(classed: bool, id: u32, a: u32, b: u64, c: u64) -> JobSpec {
        let walltime = SimDuration::from_secs(60 + u64::from(a % 3));
        if !classed {
            return spec(id, c, 1 << (a % 5), 8 * (1 + 5 * (b % 4))).with_walltime(walltime);
        }
        let nodes = [0, 1, 2, 4, 8, 16, 32, 63][a as usize % 8];
        let job = spec(id, c, nodes, b % 200).with_walltime(walltime);
        let job = job.with_per_node(match a / 256 % 3 {
            0 => ResourceVec::ZERO,
            1 => ResourceVec::new(0, 1 + a % 4, 0, 0),
            _ => ResourceVec::new(0, 0, 0, 3 + a % 2),
        });
        match CLASSES.get((a / 64 % 4) as usize) {
            Some(&class) => job.with_class(class),
            None => job,
        }
    }

    /// A cluster at an arbitrary free level: one blocker on the flat
    /// machine, one class-pinned blocker per class on `mixed_256`, each
    /// running 58 to 62 s from t = 0 — around the waiting jobs' walltimes,
    /// so a head's shadow falls before, among and after their ends.
    fn cluster_at(classed: bool, a: u32, b: u64, c: u64) -> ClusterState {
        let (config, blockers) = if classed {
            let blockers = [a % 193, b as u32 % 49, c as u32 % 17]
                .into_iter()
                .zip(CLASSES)
                .zip(0u32..)
                .map(|((nodes, class), i)| spec(u32::MAX - i, 0, nodes, 0).with_class(class))
                .collect();
            (ClusterConfig::mixed_256(), blockers)
        } else {
            let blocker = spec(u32::MAX, 0, a % 17, b % 129);
            (ClusterConfig::new(16, 128), vec![blocker])
        };
        let mut cluster = ClusterState::new(config);
        for mut blocker in blockers.into_iter().filter(|j| j.nodes > 0) {
            blocker.duration = SimDuration::from_secs(58 + u64::from(blocker.nodes % 5));
            cluster
                .start_job(&blocker, SimTime::ZERO)
                .expect("blockers stay within the machine");
        }
        cluster
    }

    fn free_now(cluster: &ClusterState) -> (u32, u64, [u32; MAX_CLASSES]) {
        let by_class = cluster.free_by_class();
        (cluster.free_nodes(), cluster.free_memory_gb(), by_class)
    }

    /// `head`'s EASY reservation at t = 0 on `cluster`, read off a
    /// calendar whose releases are the blockers' ends.
    fn reservation_on(cluster: &ClusterState, head: &JobSpec) -> HeadReservation {
        let topology = cluster.config().topology;
        let mut running: Vec<_> = cluster.running().collect();
        running.sort_by_key(|r| (r.end, r.spec.id));
        let releases = running.iter().map(|r| {
            let by_class = if topology.is_flat() {
                [0; MAX_CLASSES]
            } else {
                rsched_cluster::nodes_per_slot(&topology, &r.allocation.nodes)
            };
            (r.end, r.spec.nodes, r.allocation.memory_gb, by_class)
        });
        let (free_nodes, free_memory_gb, free_by_class) = free_now(cluster);
        let calendar = crate::profile::CapacityCalendar::build(
            SimTime::ZERO,
            free_nodes,
            free_memory_gb,
            free_by_class,
            releases,
        );
        calendar.head_reservation(&topology, free_by_class, head)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fit summary as an invariant: under any interleaving of
        /// inserts, ranked inserts, removals and probes at any free level,
        /// `any_fits`, `shortest` and `first_admitted` — for an arbitrary
        /// head, so for shadows now, among the walltimes, after them and
        /// never — are the brute-force answers; on the flat machine the
        /// watermarks never exceed the true column minima, on the classed
        /// one the index is a recount of the live jobs; and the
        /// shortest-first and arrival orders — each first asked for at
        /// whatever point the ops put it, over a deep queue or an empty
        /// one — are from then on a rebuild from the live jobs.
        #[test]
        fn any_fits_is_brute_force_and_watermarks_bound_the_minima(
            classed in 0u8..2,
            ops in prop::collection::vec((0u8..6, 0u32..1000, 0u64..1000, 0u64..50), 1..200),
        ) {
            let classed = classed == 1;
            let mut q = WaitQueue::new(cluster_at(classed, 0, 0, 0).config().topology);
            let mut next_id = 0u32;
            for (kind, a, b, c) in ops {
                match kind {
                    0 | 1 => {
                        let job = arbitrary_job(classed, next_id, a, b, c);
                        next_id += 1;
                        if kind == 0 {
                            q.insert(job);
                        } else {
                            q.insert_ranked(job, b % 3);
                        }
                    }
                    2 if !q.is_empty() => {
                        q.remove_at(a as usize % q.len());
                    }
                    2 => {}
                    3 => {
                        let cluster = cluster_at(classed, a, b, c);
                        let expect = q.as_slice().iter().any(|j| cluster.can_fit(j));
                        prop_assert_eq!(q.any_fits(&cluster), expect);
                    }
                    4 => {
                        let cluster = cluster_at(classed, a, b, c);
                        let fitting = q.as_slice().iter().filter(|j| cluster.can_fit(j));
                        let expect = fitting.min_by_key(|j| (j.walltime, j.id)).map(|j| j.id);
                        let (nodes, memory_gb, by_class) = free_now(&cluster);
                        prop_assert_eq!(q.shortest(nodes, memory_gb, &by_class), expect);
                    }
                    _ => {
                        let cluster = cluster_at(classed, a, b, c);
                        // Any job; or the whole machine, which nothing
                        // fits beside: admission by walltime alone.
                        let head = if c % 2 == 0 {
                            arbitrary_job(classed, u32::MAX, a.rotate_left(7) ^ b as u32, c * 7, 0)
                        } else {
                            let machine = cluster.config();
                            spec(u32::MAX, 0, machine.nodes, if classed { 0 } else { machine.memory_gb })
                        };
                        let reservation = reservation_on(&cluster, &head);
                        let mut fitting = q.as_slice().iter().filter(|j| cluster.can_fit(j));
                        let expect = fitting.find(|j| reservation.admits(j)).map(|j| j.id);
                        let (nodes, memory_gb, by_class) = free_now(&cluster);
                        let got = q.first_admitted((nodes, memory_gb, &by_class), &reservation);
                        prop_assert_eq!(got, expect);
                    }
                }
                let live = q.as_slice();
                if let Some(order) = q.order.get() {
                    let keys = live.iter().map(|j| OrderKey::of(&q.topology, j));
                    prop_assert_eq!(order, &keys.collect::<BTreeSet<_>>());
                }
                if let Some(arrival) = q.arrival.get() {
                    let keys = live.iter().zip(&q.ranks[q.head..]);
                    let keys = keys.map(|(j, &rank)| arrival_key(&q.topology, j, rank));
                    prop_assert_eq!(arrival, &keys.collect::<BTreeSet<_>>());
                }
                if classed {
                    let mut recount = BTreeMap::new();
                    for job in live {
                        *recount.entry(q.index_key(job)).or_insert(0u32) += 1;
                    }
                    prop_assert_eq!(&q.index, &recount);
                } else {
                    let min_nodes = live.iter().map(|j| j.nodes).min().unwrap_or(u32::MAX);
                    let min_memory_gb = live.iter().map(|j| j.memory_gb).min().unwrap_or(u64::MAX);
                    prop_assert!(q.min_nodes <= min_nodes);
                    prop_assert!(q.min_memory_gb <= min_memory_gb);
                    prop_assert!(q.index.is_empty());
                }
            }
        }

        /// A batch leaves the queue one-job inserts leave. One queue is fed
        /// batches — none, one job, a spread over three ranks, all at the
        /// back, all at the front — and its twin the same jobs one at a
        /// time, as they came; removals fall on either side of the middle,
        /// a run of head pops forces the head offset to compact, and
        /// `shortest` / `first_admitted` are first asked wherever the ops
        /// put them, so a batch meets the ordered sets built or not. After
        /// every op the two agree on the jobs, the rank column, the
        /// watermarks, the count index and both sets, and the jobs are in
        /// `(rank, submit, id)` order with their columns beside them.
        #[test]
        fn a_batch_leaves_the_queue_one_job_inserts_leave(
            classed in 0u8..2,
            ops in prop::collection::vec((0u8..8, 0u32..1000, 0u64..1000, 0u64..50), 1..60),
        ) {
            let classed = classed == 1;
            let cluster = cluster_at(classed, 0, 0, 0);
            let topology = cluster.config().topology;
            let (mut q, mut twin) = (WaitQueue::new(topology), WaitQueue::new(topology));
            let mut next_id = 0u32;
            let mut shifts_bound = 0u64;
            for (kind, a, b, c) in ops {
                match kind {
                    0..=3 => {
                        let len = if kind == 0 { a as usize % 2 } else { a as usize % 24 };
                        let mut batch: Vec<(JobSpec, u64)> = (0..len as u32)
                            .map(|i| {
                                let (a, b) = (a.rotate_left(i) ^ i, b.rotate_left(i) ^ c);
                                let mut job = arbitrary_job(classed, next_id + i, a, b, 0);
                                let rank = match kind {
                                    // Among what waits, across three ranks.
                                    0 | 1 => {
                                        job.submit = SimTime::from_secs(10 + b % 7);
                                        1 + u64::from(a) % 3
                                    }
                                    // Behind everything that waits.
                                    2 => {
                                        job.submit = SimTime::from_secs(100 + u64::from(next_id));
                                        3
                                    }
                                    // Ahead of all but earlier such batches.
                                    _ => 0,
                                };
                                (job, rank)
                            })
                            .collect();
                        next_id += len as u32;
                        for (job, rank) in &batch {
                            twin.insert_ranked(job.clone(), *rank);
                        }
                        shifts_bound += q.len() as u64;
                        q.arrive(&mut batch);
                    }
                    4 if !q.is_empty() => {
                        let at = a as usize % q.len();
                        prop_assert_eq!(q.remove_at(at), twin.remove_at(at));
                    }
                    // Enough head pops that the dead prefix outgrows the
                    // live queue (or the queue drains).
                    5 => {
                        let mut compacted = q.is_empty();
                        for _ in 0..(q.len() / 2 + 1).max(33).min(q.len()) {
                            prop_assert_eq!(q.remove_at(0), twin.remove_at(0));
                            compacted |= q.head == 0;
                        }
                        prop_assert!(compacted);
                    }
                    6 => {
                        let (nodes, memory_gb, by_class) = free_now(&cluster_at(classed, a, b, c));
                        let shortest = q.shortest(nodes, memory_gb, &by_class);
                        prop_assert_eq!(shortest, twin.shortest(nodes, memory_gb, &by_class));
                    }
                    7 => {
                        let cluster = cluster_at(classed, a, b, c);
                        let head = arbitrary_job(classed, u32::MAX, a.rotate_left(7), c * 7, 0);
                        let reservation = reservation_on(&cluster, &head);
                        let (nodes, memory_gb, by_class) = free_now(&cluster);
                        let free = (nodes, memory_gb, &by_class);
                        let admitted = q.first_admitted(free, &reservation);
                        prop_assert_eq!(admitted, twin.first_admitted(free, &reservation));
                    }
                    _ => {}
                }
                prop_assert_eq!(q.as_slice(), twin.as_slice());
                prop_assert_eq!(&q.ranks[q.head..], &twin.ranks[twin.head..]);
                prop_assert_eq!(
                    (q.min_nodes, q.min_memory_gb),
                    (twin.min_nodes, twin.min_memory_gb)
                );
                prop_assert_eq!(&q.index, &twin.index);
                prop_assert_eq!(q.order.get(), twin.order.get());
                prop_assert_eq!(q.arrival.get(), twin.arrival.get());
                crate::store::tests::assert_aligned(&q.jobs);
                prop_assert_eq!(q.ranks.len(), q.jobs.len());
                let places = q.as_slice().iter().zip(&q.ranks[q.head..]);
                let places: Vec<Place> = places.map(|(j, &rank)| (rank, j.submit, j.id)).collect();
                prop_assert!(places.windows(2).all(|pair| pair[0] < pair[1]));
                // A waiting job moves at most once per batch.
                prop_assert!(q.arrival_shifts() <= shifts_bound);
                prop_assert!(q.arrival_shifts() <= twin.arrival_shifts());
            }
        }
    }
}
