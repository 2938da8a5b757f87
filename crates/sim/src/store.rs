//! **`JobStore`** — the SoA-packed job arena behind the waiting queue.
//!
//! Million-job replays spend their time in placement scans: "does any
//! waiting job fit the free resources?" walks the queue until a fit or
//! the end. With jobs stored as an array of [`JobSpec`] structs, each
//! probe drags a whole ~96-byte spec through the cache to read 12 bytes
//! (`nodes`, `memory_gb`). The store keeps the full specs in one arena
//! *and* mirrors the scan-hot fields into dense parallel columns, so the
//! flat-cluster fit scan — exactly `nodes ≤ free_nodes && memory_gb ≤
//! free_memory_gb`, see `FirstFitAllocator::can_fit` — reads ~8× fewer
//! cache lines and vectorizes, and [`find`](JobStore::find) reads 4 bytes
//! of id per slot instead of a spec.
//!
//! A slot is **live** or **dead**. [`kill`](JobStore::kill) turns a live
//! slot into a tombstone in O(1): the spec and id stay where they were, so
//! the slots keep their order and a lookup of a started id still lands on
//! it, while the demand columns read `u32::MAX` / `u64::MAX` there, so no
//! fit scan fits it (only a machine whose free levels are both at those
//! maxima would — and that one fits every live job too) and no minimum
//! reads it. `retain_live` drops every tombstone
//! in one pass. A live slot's columns mirror its spec exactly, so scans
//! over them are bit-identical to scans over the specs.
//!
//! The store is position-indexed and order-preserving: it is the backing
//! storage of the simulator's wait queue, which layers its head cursor,
//! rank column, and sorted-merge logic on top. Room for arrivals is made
//! by `shift_right`, one run of slots at a time,
//! and filled by [`set`](JobStore::set). [`insert`](JobStore::insert)
//! (their one-job case) and [`remove`](JobStore::remove) (a hole closed by
//! shifting the tail) are what the benchmark package's store probe times;
//! the queue calls neither.

use rsched_cluster::{JobId, JobSpec};

/// An order-preserving arena of [`JobSpec`]s with dense mirrors of the
/// scan-hot columns (`nodes`, `memory_gb`, the id) and a liveness column.
///
/// All mutators keep the columns aligned with the specs; there is no way
/// to update one without the others.
#[derive(Debug, Default, Clone)]
pub struct JobStore {
    specs: Vec<JobSpec>,
    nodes: Vec<u32>,
    memory_gb: Vec<u64>,
    ids: Vec<u32>,
    live: Vec<bool>,
}

/// Ids compared per step of `JobStore::find`: a fixed-width block the
/// compiler turns into a few vector compares and one reduction.
const FIND_CHUNK: usize = 32;

impl JobStore {
    /// An empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// An empty store with room for `n` jobs in every column.
    pub fn with_capacity(n: usize) -> Self {
        JobStore {
            specs: Vec::with_capacity(n),
            nodes: Vec::with_capacity(n),
            memory_gb: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
        }
    }

    /// Number of slots, live or dead.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the store has no slots.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The full specs, in storage order — dead slots included.
    pub fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// The dense node-demand column, aligned with [`specs`](Self::specs);
    /// `u32::MAX` at a dead slot.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The dense memory-demand column, aligned with
    /// [`specs`](Self::specs); `u64::MAX` at a dead slot.
    pub fn memory_gb(&self) -> &[u64] {
        &self.memory_gb
    }

    /// The liveness column, aligned with [`specs`](Self::specs).
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Append a live job.
    pub fn push(&mut self, job: JobSpec) {
        self.nodes.push(job.nodes);
        self.memory_gb.push(job.memory_gb);
        self.ids.push(job.id.0);
        self.live.push(true);
        self.specs.push(job);
    }

    /// Insert a live job at `at`, shifting the tail right: the one-job case
    /// of `shift_right` and [`set`](Self::set).
    ///
    /// # Panics
    /// Panics if `at > len()`.
    pub fn insert(&mut self, at: usize, job: JobSpec) {
        let end = self.len();
        self.push(job.clone());
        self.shift_right(at, end, 1);
        self.set(at, job);
    }

    /// Move the slots at `[from..to)` right by `by` in every column, over
    /// whatever `[to..to + by)` held; a dead slot moves as a dead slot.
    /// `[from..from + by)` is left holding stale entries for the caller to
    /// [`set`](Self::set): this is how the wait queue opens the gaps a
    /// batch of arrivals merges into, each run of slots moving once.
    ///
    /// # Panics
    /// Panics if `from > to` or `to + by > len()`.
    pub(crate) fn shift_right(&mut self, from: usize, to: usize, by: usize) {
        // Back to front, so that a run longer than `by` never overwrites
        // what it has yet to move (a rotation would also carry the `by`
        // stale slots across the run, once per run).
        for at in (from..to).rev() {
            self.specs[at + by] = self.specs[at].clone();
        }
        self.nodes.copy_within(from..to, from + by);
        self.memory_gb.copy_within(from..to, from + by);
        self.ids.copy_within(from..to, from + by);
        self.live.copy_within(from..to, from + by);
    }

    /// Overwrite the slot at `at` with a live job, in every column.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn set(&mut self, at: usize, job: JobSpec) {
        self.nodes[at] = job.nodes;
        self.memory_gb[at] = job.memory_gb;
        self.ids[at] = job.id.0;
        self.live[at] = true;
        self.specs[at] = job;
    }

    /// Remove and return the job at `at`, shifting the tail left.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn remove(&mut self, at: usize) -> JobSpec {
        self.nodes.remove(at);
        self.memory_gb.remove(at);
        self.ids.remove(at);
        self.live.remove(at);
        self.specs.remove(at)
    }

    /// Turn the slot at `at` into a tombstone: O(1), nothing moves.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn kill(&mut self, at: usize) {
        self.live[at] = false;
        self.nodes[at] = u32::MAX;
        self.memory_gb[at] = u64::MAX;
    }

    /// The first live slot at or after `from` holding `id`, if any. The id
    /// column is compared in fixed blocks of 32 slots; only a block with a
    /// match is looked at slot by slot.
    ///
    /// # Panics
    /// Panics if `from > len()`.
    pub fn find(&self, from: usize, id: JobId) -> Option<usize> {
        let id = id.0;
        let live_match = |at: usize| self.ids[at] == id && self.live[at];
        let blocks = self.ids[from..].chunks_exact(FIND_CHUNK);
        let tail = from + blocks.len() * FIND_CHUNK;
        for (block, ids) in blocks.enumerate() {
            if ids.iter().fold(false, |hit, &x| hit | (x == id)) {
                let start = from + block * FIND_CHUNK;
                if let Some(at) = (start..start + FIND_CHUNK).find(|&at| live_match(at)) {
                    return Some(at);
                }
            }
        }
        (tail..self.len()).find(|&at| live_match(at))
    }

    /// Drop every dead slot from every column in one order-preserving pass,
    /// returning how many live jobs moved to a new slot.
    #[expect(
        clippy::expect_used,
        reason = "every column holds one entry per slot, as `live` does"
    )]
    pub(crate) fn retain_live(&mut self) -> u64 {
        let Some(first_dead) = self.live.iter().position(|&live| !live) else {
            return 0;
        };
        let moved = self.live[first_dead..].iter().filter(|&&live| live).count();
        let mut keep = self.live.iter().copied();
        self.specs.retain(|_| keep.next().expect("aligned columns"));
        let mut keep = self.live.iter().copied();
        self.nodes.retain(|_| keep.next().expect("aligned columns"));
        let mut keep = self.live.iter().copied();
        self.memory_gb
            .retain(|_| keep.next().expect("aligned columns"));
        let mut keep = self.live.iter().copied();
        self.ids.retain(|_| keep.next().expect("aligned columns"));
        self.live.retain(|&live| live);
        moved as u64
    }

    /// Remove everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.specs.clear();
        self.nodes.clear();
        self.memory_gb.clear();
        self.ids.clear();
        self.live.clear();
    }
}

impl FromIterator<JobSpec> for JobStore {
    fn from_iter<I: IntoIterator<Item = JobSpec>>(iter: I) -> Self {
        let mut store = JobStore::new();
        for job in iter {
            store.push(job);
        }
        store
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(id, 0, SimTime::ZERO, SimDuration::from_secs(60), nodes, mem)
    }

    /// Columns must mirror the specs after any mutation sequence: exactly
    /// at a live slot; the id, and the maxima for the demands, at a dead one.
    pub(crate) fn assert_aligned(store: &JobStore) {
        assert_eq!(store.nodes().len(), store.len());
        assert_eq!(store.memory_gb().len(), store.len());
        assert_eq!(store.ids.len(), store.len());
        assert_eq!(store.live().len(), store.len());
        for (i, job) in store.specs().iter().enumerate() {
            assert_eq!(store.ids[i], job.id.0, "id column at {i}");
            let (nodes, memory_gb) = if store.live()[i] {
                (job.nodes, job.memory_gb)
            } else {
                (u32::MAX, u64::MAX)
            };
            assert_eq!(store.nodes()[i], nodes, "nodes column at {i}");
            assert_eq!(store.memory_gb()[i], memory_gb, "memory column at {i}");
        }
    }

    #[test]
    fn columns_stay_aligned_through_mutations() {
        let mut store = JobStore::with_capacity(8);
        assert!(store.is_empty());
        for i in 0..6u32 {
            store.push(spec(i, i + 1, (i as u64 + 1) * 10));
        }
        assert_aligned(&store);

        store.insert(2, spec(99, 40, 400));
        assert_aligned(&store);
        assert_eq!(store.specs()[2].nodes, 40);

        let removed = store.remove(2);
        assert_eq!(removed.nodes, 40);
        assert_aligned(&store);

        store.kill(0);
        store.kill(3);
        assert_aligned(&store);
        store.shift_right(2, 5, 1);
        assert_aligned(&store);
        assert!(!store.live()[4], "a dead slot moves as a dead slot");

        store.clear();
        assert!(store.is_empty());
        assert_aligned(&store);
    }

    #[test]
    fn collects_from_an_iterator() {
        let store: JobStore = (0..5u32).map(|i| spec(i, 2, 8)).collect();
        assert_eq!(store.len(), 5);
        assert_eq!(store.nodes(), &[2, 2, 2, 2, 2]);
    }

    /// Every id, live or dead, at either side of a block edge and in the
    /// tail the blocks leave: a live slot is found, a dead one is not, and
    /// a search from past a slot does not see it.
    #[test]
    fn find_sees_live_slots_only() {
        let mut store: JobStore = (0..100u32).map(|i| spec(i * 3, 1, 1)).collect();
        for at in [0, 31, 32, 63, 64, 95, 99] {
            store.kill(at);
        }
        for at in 0..100 {
            let id = JobId(at as u32 * 3);
            let found = store.find(0, id);
            assert_eq!(found, store.live()[at].then_some(at), "slot {at}");
            assert_eq!(store.find(at + 1, id), None, "slot {at} from past it");
        }
        assert_eq!(store.find(0, JobId(1)), None, "never stored");
        assert_eq!(store.find(100, JobId(3)), None, "an empty range");
    }

    #[test]
    fn retain_live_drops_tombstones_in_order_and_counts_what_moved() {
        let mut store: JobStore = (0..10u32).map(|i| spec(i, i + 1, 8)).collect();
        assert_eq!(store.retain_live(), 0, "nothing dead, nothing moves");
        for at in [3, 4, 8] {
            store.kill(at);
        }
        assert_eq!(store.retain_live(), 4, "slots 5, 6, 7 and 9 move");
        let ids: Vec<u32> = store.specs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, [0, 1, 2, 5, 6, 7, 9]);
        assert!(store.live().iter().all(|&live| live));
        assert_aligned(&store);
    }
}
