//! Incrementally-maintained simulator state: the sorted waiting queue with
//! its fit summary (min-demand watermarks on a flat machine, an exact
//! per-compatibility index on a classed one).
//!
//! This is the data structure behind the zero-copy kernel, shared by
//! **both drivers** since the service split: the virtual-time simulator and
//! the wall-clock scheduler daemon drive the same [`WaitQueue`] through
//! [`KernelState`](crate::kernel::KernelState). The
//! old kernel re-sorted the waiting queue on every event-loop iteration and
//! rebuilt the running-summary vector (plus a full clone of the completed
//! records) on every policy query — O(n) per query, O(n²) per run. Here:
//!
//! * [`WaitQueue`] keeps jobs sorted by `(rank, submit, id)`. Arrivals
//!   come in batches — whatever one service tick admitted, or the one job
//!   of a virtual-time arrival — through one routine, `WaitQueue::arrive`:
//!   the batch is sorted by the same key and appended, and where part of it
//!   sorts ahead of waiting jobs it is merged in from the back, each
//!   slot behind the batch's first key moving once and none ahead of
//!   it at all (`sim_queue_arrival_shifts_total` counts the moves). A
//!   started job leaves a tombstone, not a hole: wherever it sits, its
//!   slot is killed in O(1) — the liveness bit cleared, the demand columns
//!   maxed so no fit scan fits it — and a head cursor skips dead slots;
//!   once dead slots outnumber live ones (and exceed 32) one pass compacts
//!   every column (`sim_queue_removal_moves_total` counts the jobs it
//!   moves). The kernel finds a job to start through the store's dense id
//!   column. The queue answers "does anything fit?" without probing the
//!   jobs: conservative min-demand watermarks ahead of a dense column scan
//!   on a flat machine, a lookup in an exact count of waiting jobs per
//!   compatible-slot set on a classed one; *which* job fits (SJF's pick)
//!   from a shortest-first order, and *which* backfills (EASY's) from an
//!   arrival order. Each order is a small map from a job's demand class —
//!   `(memory or compatible slots, nodes)`, all the fit test reads — to
//!   the set of that class's waiting jobs, by `(walltime, id)` or in queue
//!   order; a query walks the map, one class at a time, however deep the
//!   queue. Each is built from the live jobs, sorted once and bulk-built run
//!   by run, the first time a policy asks. The **rank** is a fair-share
//!   priority tag:
//!   the virtual-time simulator always inserts at rank 0, which makes the
//!   order exactly the paper's `(submit, id)` arrival order; the
//!   multi-tenant service daemon inserts with usage-decayed tenant ranks so
//!   low-usage tenants sort ahead without any per-query re-sort.
//!
//! The queue exposes its contents in place, as a [`Waiting`] view over its
//! slots, which is what lets [`SystemView`](crate::SystemView) borrow
//! instead of clone.

use std::cell::{Cell, OnceCell};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::Range;

use rsched_cluster::{
    compatible_slots, ClusterState, JobId, JobSpec, PlacementRequest, SlotSet, Topology,
    MAX_CLASSES,
};
use rsched_simkit::{SimDuration, SimTime};

use crate::profile::HeadReservation;
use crate::scan;
use crate::store::JobStore;
use crate::view::Waiting;

/// A job's *demand class*: everything the machine's fit test reads of it —
/// `memory_gb` (flat) or compatible-slot bits (classed), then `nodes`. Jobs
/// of one class fit or fail together.
type Class = (u64, u32);

fn demand_class(topology: &Topology, job: &JobSpec) -> Class {
    let class = if topology.is_flat() {
        job.memory_gb
    } else {
        u64::from(compatible_slots(topology, &PlacementRequest::from(job)).bits())
    };
    (class, job.nodes)
}

/// A job's place in the queue: `(rank, submit, id)`.
type Place = (u64, SimTime, JobId);

/// The live queue by demand class, each class's members in the order `M`
/// sorts them. A class whose last member leaves is dropped, so no class
/// maps to an empty set.
type Classes<M> = BTreeMap<Class, BTreeSet<M>>;

/// A member of the shortest-first order: `(walltime, id)`, so a class's
/// first is the only job of the class SJF can ever pick.
type Shortest = (SimDuration, JobId);

/// A member of the arrival order: the job's [`Place`], so a class's
/// members run in queue order; last, where it never orders, the walltime
/// a walk reads.
type Arrival = (Place, SimDuration);

/// The classes of `keys` in one pass: the keys sorted, then each run of one
/// class bulk-built into its set, and the sets into the map.
fn classes<M: Ord + Copy>(keys: impl Iterator<Item = (Class, M)>) -> Classes<M> {
    let mut keys: Vec<(Class, M)> = keys.collect();
    keys.sort_unstable();
    let runs = keys.chunk_by(|a, b| a.0 == b.0);
    runs.map(|run| (run[0].0, run.iter().map(|&(_, member)| member).collect()))
        .collect()
}

fn join<M: Ord>(classes: &mut Classes<M>, class: Class, member: M) {
    classes.entry(class).or_default().insert(member);
}

fn leave<M: Ord>(classes: &mut Classes<M>, class: Class, member: &M) {
    if let Entry::Occupied(mut members) = classes.entry(class) {
        members.get_mut().remove(member);
        if members.get().is_empty() {
            members.remove();
        }
    }
}

/// The waiting queue: jobs sorted ascending by `(rank, submit, id)`.
///
/// With every rank 0 (the simulator's only mode) this is exactly the
/// `(submit, id)` arrival order the paper's policies assume.
///
/// A started job leaves a tombstone, not a hole: its slot is killed in
/// O(1) wherever it sits, keeps its spec, id and rank until the next
/// compaction, and is skipped by the head cursor, by [`Waiting`] and by
/// every scan. So the `(rank, submit, id)` order holds over every slot,
/// live or dead, and the binary search and the merge of a batch of
/// arrivals run over the physical slots unchanged.
///
/// The queue is built for one machine and summarizes its jobs for that
/// machine's fit test: the watermarks on a flat topology, the index on a
/// classed one — never both. Public as [`SystemView`](crate::SystemView)'s
/// opaque handle only: every method is the crate's.
#[derive(Debug)]
pub struct WaitQueue {
    /// SoA-packed backing storage: live and dead slots, the dense demand
    /// columns feeding the flat-cluster fit scan, the id column feeding
    /// [`find`](Self::find).
    jobs: JobStore,
    /// Fair-share rank per slot, aligned with the store.
    ranks: Vec<u64>,
    /// The first live slot, or the store's length when nothing waits:
    /// every slot before it is dead.
    head: usize,
    /// How many slots are live.
    live: usize,
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
    /// The live queue by demand class, each class's jobs by
    /// `(walltime, id)`, for "which job fits?". Built at the first
    /// [`shortest`](Self::shortest), kept by inserts and removals from then
    /// on: a run whose policy never asks (FCFS, backfill, the agents, the
    /// daemon's burst) carries no order.
    order: OnceCell<Classes<Shortest>>,
    /// Classes `shortest` has examined so far (telemetry).
    probes: Cell<u64>,
    /// The live queue by demand class, each class's jobs in queue order,
    /// for "which job backfills?": built at the first
    /// [`first_admitted`](Self::first_admitted), kept as `order` is.
    arrival: OnceCell<Classes<Arrival>>,
    /// Classes and members `first_admitted` has examined so far (telemetry).
    entries: Cell<u64>,
    /// Slots [`arrive`](Self::arrive) has moved to make room so far
    /// (telemetry).
    shifts: u64,
    /// Live jobs compaction has moved so far (telemetry).
    moves: u64,
}

impl WaitQueue {
    /// An empty queue for a machine with this topology.
    pub(crate) fn new(topology: Topology) -> Self {
        WaitQueue {
            jobs: JobStore::new(),
            ranks: Vec::new(),
            head: 0,
            live: 0,
            min_nodes: u32::MAX,
            min_memory_gb: u64::MAX,
            topology,
            index: BTreeMap::new(),
            order: OnceCell::new(),
            probes: Cell::new(0),
            arrival: OnceCell::new(),
            entries: Cell::new(0),
            shifts: 0,
            moves: 0,
        }
    }

    /// The index key of `job` on this queue's (classed) machine.
    fn index_key(&self, job: &JobSpec) -> (SlotSet, u32) {
        let slots = compatible_slots(&self.topology, &PlacementRequest::from(job));
        (slots, job.nodes)
    }

    /// The waiting jobs, in queue order, as policies see them.
    pub(crate) fn waiting(&self) -> Waiting<'_> {
        let slots = &self.jobs.specs()[self.head..];
        Waiting::in_slots(slots, &self.jobs.live()[self.head..], self.live)
    }

    /// Every waiting job with its rank, in queue order.
    fn ranked(&self) -> impl Iterator<Item = (&JobSpec, u64)> {
        let slots = self
            .jobs
            .specs()
            .iter()
            .zip(self.jobs.live())
            .zip(&self.ranks);
        let slots = slots.skip(self.head).filter(|((_, &live), _)| live);
        slots.map(|((job, _), &rank)| (job, rank))
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The slot of the waiting job with this id, `None` if no job with it
    /// waits — one that has started finds its tombstone, not a match.
    pub(crate) fn find(&self, id: JobId) -> Option<usize> {
        self.jobs.find(self.head, id)
    }

    /// The job in a live `slot`, as [`find`](Self::find) returned it.
    pub(crate) fn job(&self, slot: usize) -> &JobSpec {
        debug_assert!(self.jobs.live()[slot], "slot {slot} does not wait");
        &self.jobs.specs()[slot]
    }

    /// Slot of `(rank, submit, id)` among the slots `within`, live or
    /// dead, whether or not it is present (`Result` as in
    /// `slice::binary_search`).
    fn position(&self, within: Range<usize>, key: Place) -> Result<usize, usize> {
        let specs = self.jobs.specs();
        let (mut lo, mut hi) = (within.start, within.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mid_key = (self.ranks[mid], specs[mid].submit, specs[mid].id);
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
    /// merged in from the back: the slots behind each arrival move right
    /// in one run, past every arrival still to be placed, so a slot moves
    /// at most once per batch however many arrivals land ahead of it, and
    /// none ahead of the batch's first key moves at all. A dead slot moves
    /// as a dead slot. This is the only place arrivals shift the queue.
    #[expect(
        clippy::expect_used,
        reason = "drivers refuse duplicate ids before delivery (validate_workload, admission)"
    )]
    pub(crate) fn arrive(&mut self, batch: &mut [(JobSpec, u64)]) {
        let place = |(job, rank): &(JobSpec, u64)| -> Place { (*rank, job.submit, job.id) };
        batch.sort_unstable_by_key(place);
        let Some(first) = batch.first().map(place) else {
            return;
        };
        let duplicate = "duplicate job ids are rejected before insertion";
        let ascends = |pair: &[(JobSpec, u64)]| place(&pair[0]) < place(&pair[1]);
        assert!(batch.windows(2).all(ascends), "{duplicate}");
        let mut end = self.jobs.len();
        let floor = self.position(self.head..end, first).expect_err(duplicate);
        for (job, rank) in batch.iter() {
            if self.topology.is_flat() {
                self.min_nodes = self.min_nodes.min(job.nodes);
                self.min_memory_gb = self.min_memory_gb.min(job.memory_gb);
            } else {
                *self.index.entry(self.index_key(job)).or_insert(0) += 1;
            }
            if let Some(order) = self.order.get_mut() {
                let class = demand_class(&self.topology, job);
                join(order, class, (job.walltime, job.id));
            }
            if let Some(arrival) = self.arrival.get_mut() {
                let class = demand_class(&self.topology, job);
                join(arrival, class, ((*rank, job.submit, job.id), job.walltime));
            }
            self.jobs.push(job.clone());
            self.ranks.push(*rank);
        }
        self.live += batch.len();
        if floor == end {
            return;
        }
        // The slots `floor..end` are still to be merged; the slots behind
        // them hold the appended copies, then whatever a run left.
        for (ahead, entry @ (job, rank)) in batch.iter().enumerate().rev() {
            let at = self
                .position(floor..end, place(entry))
                .expect_err(duplicate);
            // A run of one tenant's arrivals lands with no slot between
            // them: most arrivals of a service batch have nothing to move.
            if at < end {
                self.jobs.shift_right(at, end, ahead + 1);
                self.ranks.copy_within(at..end, at + ahead + 1);
            }
            self.jobs.set(at + ahead, job.clone());
            self.ranks[at + ahead] = *rank;
            self.shifts += (end - at) as u64;
            end = at;
        }
    }

    /// The waiting job in `slot` (as [`find`](Self::find) returned it)
    /// leaves the queue: O(1), nothing moves. Its slot is killed, the head
    /// cursor steps past it and any dead slots behind it, and once dead
    /// slots outnumber live ones — and exceed 32 — one pass drops them
    /// all, so the slots never exceed twice the waiting jobs plus 32 and
    /// each start pays for at most one later move. A queue that drains is
    /// cleared outright.
    ///
    /// # Panics
    /// Panics if no job waits in `slot`.
    #[expect(
        clippy::expect_used,
        reason = "the class counts and the rank column track the live slots by construction"
    )]
    pub(crate) fn remove(&mut self, slot: usize) {
        assert!(
            self.jobs.live()[slot],
            "WaitQueue::remove: no job waits in slot {slot}"
        );
        let job = &self.jobs.specs()[slot];
        if let Some(order) = self.order.get_mut() {
            let class = demand_class(&self.topology, job);
            leave(order, class, &(job.walltime, job.id));
        }
        if let Some(arrival) = self.arrival.get_mut() {
            let class = demand_class(&self.topology, job);
            let place = (self.ranks[slot], job.submit, job.id);
            leave(arrival, class, &(place, job.walltime));
        }
        if !self.topology.is_flat() {
            let key = self.index_key(job);
            let count = self
                .index
                .get_mut(&key)
                .expect("a waiting job was counted at insertion");
            *count -= 1;
            if *count == 0 {
                self.index.remove(&key);
            }
        }
        self.jobs.kill(slot);
        self.live -= 1;
        if self.live == 0 {
            self.jobs.clear();
            self.ranks.clear();
            self.head = 0;
            self.min_nodes = u32::MAX;
            self.min_memory_gb = u64::MAX;
            return;
        }
        while !self.jobs.live()[self.head] {
            self.head += 1;
        }
        let dead = self.jobs.len() - self.live;
        if dead > 32 && dead > self.live {
            let mut live = self.jobs.live().iter();
            self.ranks
                .retain(|_| *live.next().expect("one rank per slot"));
            self.moves += self.jobs.retain_live();
            self.head = 0;
        }
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
        // SoA mirror gives the same answer as probing the full specs. A
        // dead slot reads the maxima: it never lowers a minimum, and it
        // fits only free levels at both maxima, which every waiting job
        // fits too — so the answer is the live jobs' either way.
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
    /// input, without the walk: a fitting class's first member is its only
    /// candidate ([`fitting_classes`](Self::fitting_classes)).
    pub(crate) fn shortest(
        &self,
        free_nodes: u32,
        free_memory_gb: u64,
        free_by_class: &[u32; MAX_CLASSES],
    ) -> Option<JobId> {
        let order = self.order.get_or_init(|| {
            let key = |(job, _): (&JobSpec, u64)| {
                (demand_class(&self.topology, job), (job.walltime, job.id))
            };
            classes(self.ranked().map(key))
        });
        let mut best: Option<Shortest> = None;
        let free = (free_nodes, free_memory_gb, free_by_class);
        self.fitting_classes(free, order, &self.probes, |members| {
            if let Some(&first) = members.first() {
                if best.is_none_or(|least| first < least) {
                    best = Some(first);
                }
            }
        });
        best.map(|(_, id)| id)
    }

    /// Calls `visit` with the members of every demand class of `classes`
    /// that fits these free levels, counting in `examined` the classes it
    /// looks at. A class that fails takes every wider `nodes` of its memory
    /// value (slot set) with it, skipped by one `range` on the class map,
    /// and a flat walk ends at the first memory value above what is free.
    fn fitting_classes<M>(
        &self,
        (free_nodes, free_memory_gb, free_by_class): (u32, u64, &[u32; MAX_CLASSES]),
        classes: &Classes<M>,
        examined: &Cell<u64>,
        mut visit: impl FnMut(&BTreeSet<M>),
    ) {
        let flat = self.topology.is_flat();
        let mut walk = classes.range(..);
        while let Some((&(class, nodes), members)) = walk.next() {
            examined.set(examined.get() + 1);
            if flat && class > free_memory_gb {
                break;
            }
            let free = if flat {
                free_nodes
            } else {
                let slots = (0..MAX_CLASSES).filter(|slot| class >> slot & 1 == 1);
                slots.map(|slot| free_by_class[slot]).sum()
            };
            if nodes <= free {
                visit(members);
            } else {
                walk = classes.range((Excluded((class, u32::MAX)), Unbounded));
            }
        }
    }

    /// The first waiting job, in queue order, that fits the `free` nodes,
    /// memory and nodes per class slot and that `reservation` admits —
    /// `filter(can_fit).find(admits)` for every input, without the walk.
    /// Beyond its walltime the rule reads only a candidate's demand class,
    /// so a fitting class is asked once, of its first member's spec; if that
    /// is turned down, the members behind it are read until one ends by the
    /// shadow or the walk passes the best place an earlier class found.
    #[expect(
        clippy::expect_used,
        reason = "the arrival class map holds exactly the waiting jobs"
    )]
    pub(crate) fn first_admitted(
        &self,
        free: (u32, u64, &[u32; MAX_CLASSES]),
        reservation: &HeadReservation,
    ) -> Option<JobId> {
        let arrival = self.arrival.get_or_init(|| {
            let key = |(job, rank): (&JobSpec, u64)| {
                let place = (rank, job.submit, job.id);
                (demand_class(&self.topology, job), (place, job.walltime))
            };
            classes(self.ranked().map(key))
        });
        let mut best: Option<Place> = None;
        self.fitting_classes(free, arrival, &self.entries, |members| {
            let ahead = |(place, _): &&Arrival| best.is_none_or(|least| *place < least);
            let mut members = members.iter().take_while(ahead);
            let Some(&(first, _)) = members.next() else {
                return;
            };
            let at = self.position(self.head..self.jobs.len(), first);
            let at = at.expect("indexed jobs wait");
            let found = if reservation.admits(&self.jobs.specs()[at]) {
                Some(first)
            } else {
                let mut members = members.inspect(|_| self.entries.set(self.entries.get() + 1));
                let found = members.find(|(_, walltime)| reservation.ends_by_shadow(*walltime));
                found.map(|&(place, _)| place)
            };
            best = found.or(best);
        });
        best.map(|(_, _, id)| id)
    }

    /// Telemetry: the order's `(builds, probes)` — 0 or 1, classes examined.
    pub(crate) fn order_counters(&self) -> (u64, u64) {
        (u64::from(self.order.get().is_some()), self.probes.get())
    }

    /// Telemetry: the same two numbers of the arrival order.
    pub(crate) fn arrival_counters(&self) -> (u64, u64) {
        (u64::from(self.arrival.get().is_some()), self.entries.get())
    }

    /// Telemetry: slots moved to make room for arrivals.
    pub(crate) fn arrival_shifts(&self) -> u64 {
        self.shifts
    }

    /// Telemetry: waiting jobs moved by compaction.
    pub(crate) fn removal_moves(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsched_cluster::{ClusterConfig, NodeClass, ResourceVec};
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

    /// The waiting jobs' ids, in queue order.
    fn ids(q: &WaitQueue) -> Vec<u32> {
        q.waiting().iter().map(|j| j.id.0).collect()
    }

    /// The slot of the `nth` waiting job.
    fn nth_slot(q: &WaitQueue, nth: usize) -> usize {
        let mut slots = (q.head..q.jobs.len()).filter(|&slot| q.jobs.live()[slot]);
        slots.nth(nth).expect("nth < len")
    }

    /// Start the `nth` waiting job, as the kernel does: returns it.
    fn remove_nth(q: &mut WaitQueue, nth: usize) -> JobSpec {
        let slot = nth_slot(q, nth);
        let job = q.job(slot).clone();
        q.remove(slot);
        job
    }

    fn remove_id(q: &mut WaitQueue, id: u32) -> Option<JobSpec> {
        let slot = q.find(JobId(id))?;
        let job = q.job(slot).clone();
        q.remove(slot);
        Some(job)
    }

    /// The count index recounted from the waiting jobs (empty when flat).
    fn recount(q: &WaitQueue) -> BTreeMap<(SlotSet, u32), u32> {
        let mut recount = BTreeMap::new();
        if !q.topology.is_flat() {
            for job in q.waiting() {
                *recount.entry(q.index_key(job)).or_insert(0u32) += 1;
            }
        }
        recount
    }

    /// Both orders, where built, checked against a rebuild from the waiting
    /// jobs by one insert each: the same classes with the same members, and
    /// no class left with an empty set.
    fn check_orders(q: &WaitQueue) -> Result<(), TestCaseError> {
        fn rebuild<M: Ord>(keys: impl Iterator<Item = (Class, M)>) -> Classes<M> {
            let mut rebuilt = Classes::new();
            for (class, member) in keys {
                rebuilt.entry(class).or_default().insert(member);
            }
            rebuilt
        }
        let class = |job| demand_class(&q.topology, job);
        if let Some(order) = q.order.get() {
            prop_assert!(order.values().all(|members| !members.is_empty()));
            let keys = q.waiting().iter().map(|j| (class(j), (j.walltime, j.id)));
            prop_assert_eq!(order, &rebuild(keys));
        }
        if let Some(arrival) = q.arrival.get() {
            prop_assert!(arrival.values().all(|members| !members.is_empty()));
            let member = |j: &JobSpec, rank| ((rank, j.submit, j.id), j.walltime);
            let keys = q.ranked().map(|(j, rank)| (class(j), member(j, rank)));
            prop_assert_eq!(arrival, &rebuild(keys));
        }
        Ok(())
    }

    #[test]
    fn insert_keeps_submit_then_id_order() {
        let mut q = WaitQueue::new(Topology::flat());
        for j in [spec(5, 10, 1, 1), spec(2, 10, 1, 1), spec(9, 3, 1, 1)] {
            q.insert(j);
        }
        assert_eq!(ids(&q), vec![9, 2, 5], "submit asc, then id asc");
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
        assert_eq!(ids(&q), vec![3, 2, 1, 4], "rank asc, then submit, then id");
    }

    #[test]
    fn head_removals_advance_the_cursor_and_a_drained_queue_is_cleared() {
        let mut q = WaitQueue::new(Topology::flat());
        for i in 0..100u32 {
            q.insert(spec(i, i as u64, 1, 1));
        }
        for i in 0..100u32 {
            assert_eq!(q.waiting().first().map(|j| j.id), Some(JobId(i)));
            assert_eq!(remove_nth(&mut q, 0).id, JobId(i));
        }
        assert!(q.is_empty());
        assert_eq!((q.head, q.jobs.len()), (0, 0), "drained queue was cleared");
        assert!(q.ranks.is_empty(), "rank column drained with the jobs");
        // 49 jobs move at 51 dead of 100, then 16 at 33 dead of 49.
        assert_eq!(q.removal_moves(), 65);
    }

    #[test]
    fn middle_removal_preserves_order_and_forgets_the_job() {
        let mut q = WaitQueue::new(Topology::flat());
        for i in 0..5u32 {
            q.insert(spec(i, 0, 1, 1));
        }
        remove_id(&mut q, 2).expect("present");
        assert_eq!(ids(&q), vec![0, 1, 3, 4]);
        assert_eq!(q.jobs.len(), 5, "the slot stays, dead");
        assert!(
            remove_id(&mut q, 2).is_none(),
            "its tombstone is not a match"
        );
    }

    /// Tombstones anywhere in the queue: nothing moves until dead slots
    /// outnumber live ones and exceed 32, then one pass drops them all —
    /// the live order, the columns, the ranks and (classed) the count index
    /// carried through, and a batch merged over tombstones beforehand lands
    /// where one-job inserts would.
    #[test]
    fn tombstones_compact_once_they_outnumber_the_waiting_jobs() {
        for topology in [Topology::flat(), ClusterConfig::mixed_256().topology] {
            let mut q = WaitQueue::new(topology);
            for i in 0..100u32 {
                q.insert_ranked(spec(2 * i, i as u64, 1 + i % 4, 1), (i / 50) as u64);
            }
            // Every other job from the middle out: interior tombstones.
            for i in (20..70u32).step_by(2) {
                remove_id(&mut q, 2 * i).expect("waits");
            }
            assert_eq!((q.len(), q.jobs.len(), q.head), (75, 100, 0));
            // A batch sorting among the tombstones: odd ids between them.
            let mut batch: Vec<(JobSpec, u64)> = (30..34u32)
                .map(|i| (spec(2 * i + 1, i as u64, 1, 1), 0))
                .collect();
            q.arrive(&mut batch);
            let expect: Vec<u32> = (0..100u32)
                .flat_map(|i| {
                    let waits = !(20..70).contains(&i) || i % 2 == 1;
                    let arrived = (30..34).contains(&i);
                    let slots = [(waits, 2 * i), (arrived, 2 * i + 1)];
                    slots
                        .into_iter()
                        .filter_map(|(keep, id)| keep.then_some(id))
                })
                .collect();
            assert_eq!(ids(&q), expect, "merged in queue order");
            assert_eq!(q.removal_moves(), 0, "nothing compacted yet");

            // Head pops until the dead slots are the larger part.
            let mut popped = 0;
            while q.removal_moves() == 0 {
                remove_nth(&mut q, 0);
                popped += 1;
            }
            // 25 interior tombstones and 28 popped: 53 dead of 104.
            assert_eq!(popped, 28);
            assert_eq!((q.head, q.jobs.len(), q.len()), (0, 51, 51), "compacted");
            assert_eq!(
                q.removal_moves(),
                51,
                "every waiting job sat behind a tombstone"
            );
            assert_eq!(ids(&q), expect[popped..], "live order preserved");

            crate::store::tests::assert_aligned(&q.jobs);
            assert!(q.jobs.live().iter().all(|&live| live));
            let ranks: Vec<u64> = q
                .waiting()
                .iter()
                .map(|j| {
                    if j.id.0 % 2 == 1 {
                        0
                    } else {
                        (j.id.0 / 100) as u64
                    }
                })
                .collect();
            assert_eq!(q.ranks, ranks, "rank column moved with the jobs");
            assert_eq!(q.index, recount(&q));
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
        q.insert(spec(2, 0, 6, 8));
        q.insert(spec(3, 0, 2, 8));
        q.insert(spec(4, 0, 7, 8));
        remove_id(&mut q, 1).unwrap();
        remove_id(&mut q, 3).unwrap();
        // Stale: watermark still (1 node, 8 GB) though the true min is 6,
        // and job 3's tombstone sits between the two waiting jobs.
        assert_eq!((q.min_nodes, q.head, q.jobs.len()), (1, 1, 4));

        // Free nodes (1) ≥ stale watermark (1) → full scan; nothing fits,
        // so the scan re-tightens the watermark to the exact minima, which
        // the tombstone's maxima do not lower.
        assert!(!q.any_fits(&busy));
        assert_eq!(q.min_nodes, 6);
        assert_eq!(q.min_memory_gb, 8);
        // From now on the same saturated state is proved in O(1).
        assert!(!q.any_fits(&busy));
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
            .waiting()
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
            let held = r.allocation;
            (r.end, r.spec.nodes, held.memory_gb, held.by_class)
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
        /// inserts, ranked inserts, removals anywhere and probes at any
        /// free level, `any_fits`, `shortest` and `first_admitted` — for an
        /// arbitrary head, so for shadows now, among the walltimes, after
        /// them and never — are the brute-force answers over the waiting
        /// jobs; on the flat machine the watermarks never exceed the true
        /// column minima, on the classed one the index is a recount of the
        /// waiting jobs; and the shortest-first and arrival orders — each
        /// first asked for at whatever point the ops put it, over a deep
        /// queue, one with tombstones in it, or an empty one — are from
        /// then on, class by class, a rebuild from the waiting jobs, with
        /// no class left empty.
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
                        let nth = a as usize % q.len();
                        remove_nth(&mut q, nth);
                    }
                    2 => {}
                    3 => {
                        let cluster = cluster_at(classed, a, b, c);
                        let expect = q.waiting().iter().any(|j| cluster.can_fit(j));
                        prop_assert_eq!(q.any_fits(&cluster), expect);
                    }
                    4 => {
                        let cluster = cluster_at(classed, a, b, c);
                        let fitting = q.waiting().iter().filter(|j| cluster.can_fit(j));
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
                        let mut fitting = q.waiting().iter().filter(|j| cluster.can_fit(j));
                        let expect = fitting.find(|j| reservation.admits(j)).map(|j| j.id);
                        let (nodes, memory_gb, by_class) = free_now(&cluster);
                        let got = q.first_admitted((nodes, memory_gb, &by_class), &reservation);
                        prop_assert_eq!(got, expect);
                    }
                }
                let live = q.waiting();
                check_orders(&q)?;
                prop_assert_eq!(&q.index, &recount(&q));
                if !classed {
                    let min_nodes = live.iter().map(|j| j.nodes).min().unwrap_or(u32::MAX);
                    let min_memory_gb = live.iter().map(|j| j.memory_gb).min().unwrap_or(u64::MAX);
                    prop_assert!(q.min_nodes <= min_nodes);
                    prop_assert!(q.min_memory_gb <= min_memory_gb);
                }
            }
        }

        /// A batch leaves the queue one-job inserts leave. One queue is fed
        /// batches — none, one job, a spread over three ranks, all at the
        /// back, all at the front — and its twin the same jobs one at a
        /// time, as they came; removals fall anywhere, leaving tombstones a
        /// later batch merges over, a run of head pops forces a compaction,
        /// and `shortest` / `first_admitted` are first asked wherever the
        /// ops put them, so a batch meets the orders built or not.
        /// After every op the two agree slot for slot — live and dead — and
        /// on the rank column, the watermarks, the count index and both
        /// orders, each order is a rebuild from the waiting jobs with no
        /// class left empty, and every slot from the head on is in
        /// `(rank, submit, id)` order with its columns beside it.
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
                        shifts_bound += (q.jobs.len() - q.head) as u64;
                        q.arrive(&mut batch);
                    }
                    4 if !q.is_empty() => {
                        let nth = a as usize % q.len();
                        prop_assert_eq!(remove_nth(&mut q, nth), remove_nth(&mut twin, nth));
                    }
                    // Enough head pops that the dead slots outnumber the
                    // waiting jobs (or the queue drains).
                    5 => {
                        let mut compacted = q.is_empty();
                        for _ in 0..(q.len() / 2 + 1).max(33).min(q.len()) {
                            prop_assert_eq!(remove_nth(&mut q, 0), remove_nth(&mut twin, 0));
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
                prop_assert_eq!(q.waiting(), twin.waiting());
                prop_assert_eq!(q.jobs.specs(), twin.jobs.specs());
                prop_assert_eq!(q.jobs.live(), twin.jobs.live());
                prop_assert_eq!(&q.ranks, &twin.ranks);
                prop_assert_eq!(
                    (q.min_nodes, q.min_memory_gb),
                    (twin.min_nodes, twin.min_memory_gb)
                );
                prop_assert_eq!(&q.index, &twin.index);
                prop_assert_eq!(q.order.get(), twin.order.get());
                prop_assert_eq!(q.arrival.get(), twin.arrival.get());
                check_orders(&q)?;
                check_orders(&twin)?;
                crate::store::tests::assert_aligned(&q.jobs);
                prop_assert_eq!(q.ranks.len(), q.jobs.len());
                let slots = q.jobs.specs().iter().zip(&q.ranks).skip(q.head);
                let places: Vec<Place> = slots.map(|(j, &rank)| (rank, j.submit, j.id)).collect();
                prop_assert!(places.windows(2).all(|pair| pair[0] < pair[1]));
                // A slot moves at most once per batch.
                prop_assert!(q.arrival_shifts() <= shifts_bound);
                prop_assert!(q.arrival_shifts() <= twin.arrival_shifts());
            }
        }

        /// The queue against a plain `Vec` kept in `(rank, submit, id)`
        /// order, jobs inserted where that order puts them and removed where
        /// they stand: batches at three ranks, starts anywhere — one at a
        /// time or a run of them, enough to force compactions — and starts
        /// of the head. After every op the waiting jobs are the model's, in
        /// its order; no started job is found; and the slots, live or dead,
        /// never exceed twice the waiting jobs plus 33.
        #[test]
        fn the_queue_is_a_sorted_vec_that_forgets_started_jobs(
            classed in 0u8..2,
            ops in prop::collection::vec((0u8..4, 0u32..1000, 0u64..1000, 0u64..50), 1..120),
        ) {
            let classed = classed == 1;
            let mut q = WaitQueue::new(cluster_at(classed, 0, 0, 0).config().topology);
            let mut model: Vec<(Place, JobSpec)> = Vec::new();
            let mut started: Vec<JobId> = Vec::new();
            let mut next_id = 0u32;
            for (kind, a, b, c) in ops {
                let starts = match kind {
                    0 => {
                        let len = a % 12;
                        let mut batch: Vec<(JobSpec, u64)> = (0..len)
                            .map(|i| {
                                let job = arbitrary_job(classed, next_id + i, a ^ i, b, c + u64::from(i % 5));
                                (job, (b + u64::from(i)) % 3)
                            })
                            .collect();
                        next_id += len;
                        for (job, rank) in &batch {
                            let place = (*rank, job.submit, job.id);
                            let at = model.partition_point(|(p, _)| *p < place);
                            model.insert(at, (place, job.clone()));
                        }
                        q.arrive(&mut batch);
                        0
                    }
                    1 => 1,
                    2 => b as usize % 48,
                    _ => usize::from(!model.is_empty()),
                };
                for _ in 0..starts.min(model.len()) {
                    let nth = if kind == 3 { 0 } else { a as usize % model.len() };
                    let (_, job) = model.remove(nth);
                    let slot = q.find(job.id).expect("a waiting job is found");
                    prop_assert_eq!(q.job(slot), &job);
                    q.remove(slot);
                    started.push(job.id);
                }
                prop_assert!(q.waiting().iter().eq(model.iter().map(|(_, job)| job)));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.waiting().first(), model.first().map(|(_, job)| job));
                for &id in &started {
                    prop_assert_eq!(q.find(id), None);
                }
                prop_assert!(q.jobs.len() <= 2 * q.len() + 33);
            }
        }
    }
}
