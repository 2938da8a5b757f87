//! **`JobStore`** — the SoA-packed job arena behind the waiting queue.
//!
//! Million-job replays spend their time in placement scans: "does any
//! waiting job fit the free resources?" walks the queue until a fit or
//! the end. With jobs stored as an array of [`JobSpec`] structs, each
//! probe drags a whole ~96-byte spec through the cache to read 12 bytes
//! (`nodes`, `memory_gb`). The store keeps the full specs in one arena
//! *and* mirrors the two scan-hot fields into dense parallel columns, so
//! the flat-cluster fit scan — exactly `nodes ≤ free_nodes && memory_gb ≤
//! free_memory_gb`, see `FirstFitAllocator::can_fit` — reads ~8× fewer
//! cache lines and vectorizes. The columns are an internal mirror, never
//! independently mutated, so scans over them are bit-identical to scans
//! over the specs by construction.
//!
//! The store is position-indexed and order-preserving: it is the backing
//! storage of the simulator's wait queue, which layers its head offset,
//! rank column, and sorted-merge logic on top. Room for arrivals is made
//! by [`shift_right`](JobStore::shift_right), one run of jobs at a time,
//! and filled by [`set`](JobStore::set); [`insert`](JobStore::insert) is
//! their one-job case.

use rsched_cluster::JobSpec;

/// An order-preserving arena of [`JobSpec`]s with dense mirrors of the
/// scan-hot columns (`nodes`, `memory_gb`).
///
/// All mutators keep the columns aligned with the specs; there is no way
/// to update one without the other.
#[derive(Debug, Default, Clone)]
pub struct JobStore {
    specs: Vec<JobSpec>,
    nodes: Vec<u32>,
    memory_gb: Vec<u64>,
}

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
        }
    }

    /// Number of stored jobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The full specs, in storage order.
    pub fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// The dense node-demand column, aligned with [`specs`](Self::specs).
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The dense memory-demand column, aligned with
    /// [`specs`](Self::specs).
    pub fn memory_gb(&self) -> &[u64] {
        &self.memory_gb
    }

    /// Append a job.
    pub fn push(&mut self, job: JobSpec) {
        self.nodes.push(job.nodes);
        self.memory_gb.push(job.memory_gb);
        self.specs.push(job);
    }

    /// Insert a job at `at`, shifting the tail right: the one-job case of
    /// [`shift_right`](Self::shift_right) and [`set`](Self::set).
    ///
    /// # Panics
    /// Panics if `at > len()`.
    pub fn insert(&mut self, at: usize, job: JobSpec) {
        let end = self.len();
        self.push(job.clone());
        self.shift_right(at, end, 1);
        self.set(at, job);
    }

    /// Move the jobs at `[from..to)` right by `by` slots in every column,
    /// over whatever `[to..to + by)` held. `[from..from + by)` is left
    /// holding stale entries for the caller to [`set`](Self::set): this
    /// is how the wait queue opens the gaps a batch of arrivals merges
    /// into, each run of waiting jobs moving once.
    ///
    /// # Panics
    /// Panics if `from > to` or `to + by > len()`.
    pub fn shift_right(&mut self, from: usize, to: usize, by: usize) {
        // Back to front, so that a run longer than `by` never overwrites
        // what it has yet to move (a rotation would also carry the `by`
        // stale slots across the run, once per run).
        for at in (from..to).rev() {
            self.specs[at + by] = self.specs[at].clone();
        }
        self.nodes.copy_within(from..to, from + by);
        self.memory_gb.copy_within(from..to, from + by);
    }

    /// Overwrite the job at `at` in every column.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn set(&mut self, at: usize, job: JobSpec) {
        self.nodes[at] = job.nodes;
        self.memory_gb[at] = job.memory_gb;
        self.specs[at] = job;
    }

    /// Remove and return the job at `at`, shifting the tail left.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn remove(&mut self, at: usize) -> JobSpec {
        self.nodes.remove(at);
        self.memory_gb.remove(at);
        self.specs.remove(at)
    }

    /// Rotate `[from..=at]` right one slot in every column, parking the
    /// job previously at `at` into the `from` slot. O(at - from) — the
    /// wait queue uses this to remove an interior job near its head
    /// offset without shifting the (much longer) tail left.
    ///
    /// # Panics
    /// Panics if `from > at` or `at >= len()`.
    pub fn rotate_right_prefix(&mut self, from: usize, at: usize) {
        self.specs[from..=at].rotate_right(1);
        self.nodes[from..=at].rotate_right(1);
        self.memory_gb[from..=at].rotate_right(1);
    }

    /// Drop the first `n` jobs (a dead head prefix) from every column.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn drain_front(&mut self, n: usize) {
        self.specs.drain(..n);
        self.nodes.drain(..n);
        self.memory_gb.drain(..n);
    }

    /// Remove everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.specs.clear();
        self.nodes.clear();
        self.memory_gb.clear();
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

    /// Columns must mirror the specs after any mutation sequence.
    pub(crate) fn assert_aligned(store: &JobStore) {
        assert_eq!(store.nodes().len(), store.len());
        assert_eq!(store.memory_gb().len(), store.len());
        for (i, job) in store.specs().iter().enumerate() {
            assert_eq!(store.nodes()[i], job.nodes, "nodes column at {i}");
            assert_eq!(store.memory_gb()[i], job.memory_gb, "memory column at {i}");
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

        store.drain_front(3);
        assert_eq!(store.len(), 3);
        assert_aligned(&store);
        assert_eq!(store.specs()[0].nodes, 4, "head advanced past drained jobs");

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
}
