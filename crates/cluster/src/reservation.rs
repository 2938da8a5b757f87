//! Shadow-time reservations for backfilling validation.
//!
//! The agent's `BackfillJob(job_id=Y)` action (paper §2.2) opportunistically
//! runs a smaller job ahead of the blocked head of the queue. We validate it
//! EASY-style: the backfilled job must fit **now** and must not delay the
//! *shadow start* — the earliest time the head job could start given the
//! currently running jobs' completion times.

use rsched_simkit::SimTime;

use crate::allocator::PlacementRequest;
use crate::cluster::ClusterState;
use crate::job::JobSpec;
use crate::resources::ResourceVec;
use crate::topology::{NodeClass, Topology, MAX_CLASSES};

/// Resource demand used in reservation computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Nodes requested.
    pub nodes: u32,
    /// Memory (GB) requested.
    pub memory_gb: u64,
    /// Extended per-node demand (zero for scalar jobs; ignored on flat
    /// clusters).
    pub per_node: ResourceVec,
    /// Required node class, if any (ignored on flat clusters).
    pub class: Option<NodeClass>,
}

impl Demand {
    /// A scalar demand — the paper's `(n_j, m_j)` pair.
    pub fn new(nodes: u32, memory_gb: u64) -> Self {
        Demand {
            nodes,
            memory_gb,
            per_node: ResourceVec::ZERO,
            class: None,
        }
    }

    fn request(&self) -> PlacementRequest {
        PlacementRequest {
            nodes: self.nodes,
            memory_gb: self.memory_gb,
            per_node: self.per_node,
            class: self.class,
        }
    }

    /// `true` if the compatible classes of `topology` with `free` nodes
    /// available could host this demand right now — one class when
    /// possible, spanning classless demands across classes otherwise,
    /// exactly as [`ClassedAllocator::try_allocate`] would place it.
    ///
    /// [`ClassedAllocator::try_allocate`]: crate::allocator::ClassedAllocator::try_allocate
    pub fn fits_classes(&self, topology: &Topology, free: &[u32; MAX_CLASSES]) -> bool {
        crate::allocator::plan_take(topology, free, &self.request()).is_some()
    }
}

impl From<&JobSpec> for Demand {
    fn from(s: &JobSpec) -> Self {
        Demand {
            nodes: s.nodes,
            memory_gb: s.memory_gb,
            per_node: s.per_node,
            class: s.class,
        }
    }
}

/// The earliest time at which `demand` could start, assuming running jobs
/// release resources exactly at their recorded end times and nothing else
/// starts in between.
///
/// Runs a sweep over the completion schedule; `O(R log R)` in the number of
/// running jobs. Returns `now` if the demand already fits.
pub fn shadow_start(cluster: &ClusterState, now: SimTime, demand: Demand) -> SimTime {
    if !cluster.config().is_flat() {
        return shadow_start_classed(cluster, now, &demand);
    }
    let mut free_nodes = cluster.free_nodes();
    let mut free_mem = cluster.free_memory_gb();
    if demand.nodes <= free_nodes && demand.memory_gb <= free_mem {
        return now;
    }
    let mut completions: Vec<(SimTime, u32, u64)> = cluster
        .running()
        .map(|j| (j.end, j.spec.nodes, j.spec.memory_gb))
        .collect();
    completions.sort();
    for (end, nodes, mem) in completions {
        free_nodes += nodes;
        free_mem += mem;
        if demand.nodes <= free_nodes && demand.memory_gb <= free_mem {
            return end.max(now);
        }
    }
    // Demand exceeds total capacity; unreachable for validated jobs.
    SimTime::MAX
}

/// The per-slot node counts of one allocation's mask. Allocations may
/// span classes (wide classless jobs), so completions must return each
/// node to the class that actually hosted it. Public so the simulator's
/// capacity ledger can record per-class release columns at job start.
pub fn nodes_per_slot(topology: &Topology, nodes: &crate::node::NodeMask) -> [u32; MAX_CLASSES] {
    let mut out = [0u32; MAX_CLASSES];
    for idx in nodes.iter() {
        let slot = topology
            .slot_of_node(idx)
            .expect("allocated node belongs to a class");
        out[slot] += 1;
    }
    out
}

/// The classed shadow sweep: completions return nodes to the classes that
/// hosted them, and the demand starts as soon as the compatible classes
/// jointly have enough free nodes.
fn shadow_start_classed(cluster: &ClusterState, now: SimTime, demand: &Demand) -> SimTime {
    let topology = cluster.config().topology;
    let mut free = cluster.free_by_class();
    if demand.fits_classes(&topology, &free) {
        return now;
    }
    let mut completions: Vec<(SimTime, [u32; MAX_CLASSES])> = cluster
        .running()
        .map(|j| (j.end, nodes_per_slot(&topology, &j.allocation.nodes)))
        .collect();
    completions.sort();
    for (end, released) in completions {
        for (slot, n) in released.into_iter().enumerate() {
            free[slot] += n;
        }
        if demand.fits_classes(&topology, &free) {
            return end.max(now);
        }
    }
    SimTime::MAX
}

/// EASY backfilling test: may `candidate` start now without delaying the
/// shadow start of `head`?
///
/// `true` iff the candidate fits the current free resources and either
/// (a) it finishes (by its *walltime estimate*) no later than the head job's
/// shadow start, or (b) even while the candidate runs, the resources left at
/// the shadow time still cover the head job's demand.
pub fn backfill_is_safe(
    cluster: &ClusterState,
    now: SimTime,
    candidate: &JobSpec,
    head: &JobSpec,
) -> bool {
    if !cluster.can_fit(candidate) {
        return false;
    }
    let shadow = shadow_start(cluster, now, Demand::from(head));
    if shadow == SimTime::MAX {
        // Head can never run (exceeds capacity); nothing can delay it.
        return true;
    }
    let candidate_end = now + candidate.walltime;
    if candidate_end <= shadow {
        return true;
    }
    // Candidate overlaps the shadow time: check that at the shadow time the
    // head still fits with the candidate's resources subtracted from what
    // will be free then.
    if !cluster.config().is_flat() {
        return classed_overlap_is_safe(cluster, shadow, candidate, head);
    }
    let (free_nodes_at_shadow, free_mem_at_shadow) = free_at(cluster, shadow);
    free_nodes_at_shadow >= candidate.nodes + head.nodes
        && free_mem_at_shadow >= candidate.memory_gb + head.memory_gb
}

/// Classed overlap check: subtract the candidate's per-class node take —
/// exactly the grant [`try_allocate`] would make against the current free
/// counts — then ask whether the head still fits at the shadow time.
///
/// [`try_allocate`]: crate::allocator::ClassedAllocator::try_allocate
fn classed_overlap_is_safe(
    cluster: &ClusterState,
    shadow: SimTime,
    candidate: &JobSpec,
    head: &JobSpec,
) -> bool {
    let topology = cluster.config().topology;
    classed_overlap_fits(
        &topology,
        &cluster.free_by_class(),
        free_by_class_at(cluster, shadow),
        &Demand::from(candidate),
        &Demand::from(head),
    )
}

/// The core of the classed overlap check, over bare per-class free counts
/// so callers with their own availability structures (the simulator's
/// capacity calendar) share the exact arithmetic: plan the candidate's
/// per-class node take against `free_now` — exactly the grant
/// [`try_allocate`] would make — subtract it from `free_at_shadow`, and
/// ask whether the head still fits. A candidate whose plan cannot be made
/// (its fit vanished between checks) occupies nothing and is safe.
///
/// [`try_allocate`]: crate::allocator::ClassedAllocator::try_allocate
pub fn classed_overlap_fits(
    topology: &Topology,
    free_now: &[u32; MAX_CLASSES],
    mut free_at_shadow: [u32; MAX_CLASSES],
    candidate: &Demand,
    head: &Demand,
) -> bool {
    let Some(take) = crate::allocator::plan_take(topology, free_now, &candidate.request()) else {
        return true;
    };
    for (slot, n) in take.into_iter().enumerate() {
        free_at_shadow[slot] = free_at_shadow[slot].saturating_sub(n);
    }
    head.fits_classes(topology, &free_at_shadow)
}

/// Free resources at future time `t`, assuming only currently running jobs
/// (no new starts) and release at recorded end times. Jobs ending exactly at
/// `t` are counted as released.
pub fn free_at(cluster: &ClusterState, t: SimTime) -> (u32, u64) {
    let mut free_nodes = cluster.free_nodes();
    let mut free_mem = cluster.free_memory_gb();
    for j in cluster.running() {
        if j.end <= t {
            free_nodes += j.spec.nodes;
            free_mem += j.spec.memory_gb;
        }
    }
    (free_nodes, free_mem)
}

/// Free node counts per topology slot at future time `t`, under the same
/// assumptions as [`free_at`]. Classed clusters only; flat clusters have
/// no classes and always report zeros.
pub fn free_by_class_at(cluster: &ClusterState, t: SimTime) -> [u32; MAX_CLASSES] {
    let topology = cluster.config().topology;
    let mut free = cluster.free_by_class();
    for j in cluster.running() {
        if j.end <= t {
            let released = nodes_per_slot(&topology, &j.allocation.nodes);
            for (slot, n) in released.into_iter().enumerate() {
                free[slot] += n;
            }
        }
    }
    free
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterState};
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

    /// 8-node, 64 GB cluster with two running jobs: 6 nodes ending at t=100,
    /// 1 node ending at t=50.
    fn busy_cluster() -> ClusterState {
        let mut c = ClusterState::new(ClusterConfig::new(8, 64));
        c.start_job(&spec(1, 100, 6, 32), SimTime::ZERO)
            .expect("ok");
        c.start_job(&spec(2, 50, 1, 8), SimTime::ZERO).expect("ok");
        c
    }

    #[test]
    fn shadow_now_when_fits() {
        let c = busy_cluster();
        let t = shadow_start(&c, SimTime::ZERO, Demand::new(1, 8));
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn shadow_waits_for_enough_completions() {
        let c = busy_cluster();
        // 3 nodes free after job 2 (t=50): 1+1=2 — not enough; after job 1
        // (t=100): 8 free.
        let t = shadow_start(&c, SimTime::ZERO, Demand::new(4, 8));
        assert_eq!(t, SimTime::from_secs(100));
        let t = shadow_start(&c, SimTime::ZERO, Demand::new(2, 8));
        assert_eq!(t, SimTime::from_secs(50));
    }

    #[test]
    fn shadow_infeasible_demand_is_max() {
        let c = busy_cluster();
        let t = shadow_start(&c, SimTime::ZERO, Demand::new(9, 8));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn shadow_never_before_now() {
        let mut c = ClusterState::new(ClusterConfig::new(8, 64));
        c.start_job(&spec(1, 10, 8, 8), SimTime::ZERO).expect("ok");
        // At t=20 the job has already ended per schedule bookkeeping, but we
        // query with it still running: max(end, now) = now... construct a
        // case where end < now cannot happen in the simulator, so just check
        // the max() clamp with end == now.
        let t = shadow_start(&c, SimTime::from_secs(10), Demand::new(8, 8));
        assert_eq!(t, SimTime::from_secs(10));
    }

    #[test]
    fn backfill_short_job_is_safe() {
        let c = busy_cluster();
        // Head needs 4 nodes → shadow t=100. Candidate: 1 node, 30 s ends at
        // t=30 ≤ 100 → safe.
        let head = spec(10, 500, 4, 8);
        let cand = spec(11, 30, 1, 8);
        assert!(backfill_is_safe(&c, SimTime::ZERO, &cand, &head));
    }

    #[test]
    fn backfill_long_job_that_would_delay_head_is_rejected() {
        let c = busy_cluster();
        let head = spec(10, 500, 4, 8);
        // Candidate runs 500 s on 1 node: at shadow t=100, free = 8 nodes,
        // head needs 4 + candidate 1 = 5 ≤ 8 → actually safe (head can
        // coexist). Use a candidate big enough to collide: 5 nodes? 1 free
        // node only — won't fit now. Use memory collision instead: candidate
        // 1 node / 24 GB (fits now), head needs 48 GB; at shadow, free mem =
        // 64, head 48 + candidate 24 = 72 > 64 → delayed.
        let head = JobSpec {
            memory_gb: 48,
            ..head
        };
        let cand = spec(11, 500, 1, 24);
        assert!(!backfill_is_safe(&c, SimTime::ZERO, &cand, &head));
    }

    #[test]
    fn backfill_overlapping_but_coexisting_is_safe() {
        let c = busy_cluster();
        // Head needs 4 nodes (shadow t=100); candidate 1 node for 200 s.
        // At t=100 everything is free (8 nodes, 64 GB): 4+1 ≤ 8, coexists.
        let head = spec(10, 500, 4, 8);
        let cand = spec(11, 200, 1, 8);
        assert!(backfill_is_safe(&c, SimTime::ZERO, &cand, &head));
    }

    #[test]
    fn backfill_requires_fitting_now() {
        let c = busy_cluster();
        let head = spec(10, 500, 4, 8);
        let cand = spec(11, 10, 2, 8); // only 1 node free now
        assert!(!backfill_is_safe(&c, SimTime::ZERO, &cand, &head));
    }

    #[test]
    fn free_at_counts_exact_end_as_released() {
        let c = busy_cluster();
        let (n, m) = free_at(&c, SimTime::from_secs(50));
        assert_eq!((n, m), (2, 32));
        let (n, m) = free_at(&c, SimTime::from_secs(100));
        assert_eq!((n, m), (8, 64));
        let (n, m) = free_at(&c, SimTime::from_secs(49));
        assert_eq!((n, m), (1, 24));
    }

    // ----------------------------------------------- classed reservations

    use crate::cluster::ClusterConfig as Config;

    /// mixed_256 with the gpu class nearly full: 46 of 48 gpu nodes busy
    /// until t=100, 2 free; cpu and bigmem classes idle.
    fn busy_mixed() -> ClusterState {
        let mut c = ClusterState::new(Config::mixed_256());
        let gpu_job = spec(1, 100, 46, 0).with_per_node(ResourceVec::new(0, 1, 0, 0));
        c.start_job(&gpu_job, SimTime::ZERO).expect("starts");
        c
    }

    #[test]
    fn classed_shadow_waits_for_the_right_class() {
        let c = busy_mixed();
        // 8 GPU nodes: only 2 free now → shadow at the t=100 completion.
        let head = spec(10, 500, 8, 0).with_per_node(ResourceVec::new(0, 2, 0, 0));
        let t = shadow_start(&c, SimTime::ZERO, Demand::from(&head));
        assert_eq!(t, SimTime::from_secs(100));
        // 8 scalar nodes: the idle cpu class hosts them immediately, even
        // though the gpu class is congested.
        let scalar = spec(11, 500, 8, 8);
        let t = shadow_start(&c, SimTime::ZERO, Demand::from(&scalar));
        assert_eq!(t, SimTime::ZERO);
        // A demand no class can ever host is never reachable.
        let impossible = spec(12, 500, 1, 0).with_per_node(ResourceVec::new(0, 5, 0, 0));
        let t = shadow_start(&c, SimTime::ZERO, Demand::from(&impossible));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn classed_backfill_protects_the_gpu_head() {
        let c = busy_mixed();
        // Head: 8 GPU nodes, shadow t=100. Candidate: 2 GPU nodes for 30 s
        // (ends before the shadow) → safe.
        let head = spec(10, 500, 8, 0).with_per_node(ResourceVec::new(0, 2, 0, 0));
        let short = spec(11, 30, 2, 0).with_per_node(ResourceVec::new(0, 1, 0, 0));
        assert!(backfill_is_safe(&c, SimTime::ZERO, &short, &head));
        // The same candidate running 500 s overlaps the shadow: at t=100
        // the gpu class has 48 free minus the candidate's 2 = 46 ≥ 8 → the
        // head still fits, so coexistence is safe.
        let long = spec(12, 500, 2, 0).with_per_node(ResourceVec::new(0, 1, 0, 0));
        assert!(backfill_is_safe(&c, SimTime::ZERO, &long, &head));
        // A 42-node gpu head leaves no room: 48 - 2 = 46 ≥ 42 still safe,
        // but a 47-node head collides with the overlapping candidate.
        let wide_head = spec(13, 500, 47, 0).with_per_node(ResourceVec::new(0, 1, 0, 0));
        assert!(!backfill_is_safe(&c, SimTime::ZERO, &long, &wide_head));
        // The short candidate ends before the wide head's shadow → safe.
        assert!(backfill_is_safe(&c, SimTime::ZERO, &short, &wide_head));
    }

    #[test]
    fn classed_candidates_in_other_classes_never_delay_the_head() {
        let c = busy_mixed();
        let head = spec(10, 500, 8, 0).with_per_node(ResourceVec::new(0, 2, 0, 0));
        // A long cpu-class candidate overlaps the shadow but occupies a
        // different class than the head needs.
        let cpu_cand = spec(11, 900, 64, 64);
        assert!(backfill_is_safe(&c, SimTime::ZERO, &cpu_cand, &head));
    }

    #[test]
    fn spanning_demand_waits_for_joint_free_counts() {
        // Fill the whole mixed_256 machine with one spanning scalar job
        // (256 nodes > every class), plus verify the shadow math releases
        // nodes to the classes that actually hosted them.
        let mut c = ClusterState::new(Config::mixed_256());
        let wide = spec(1, 100, 200, 0);
        c.start_job(&wide, SimTime::ZERO).expect("spans classes");
        assert_eq!(c.free_by_class(), [0, 40, 16, 0]);
        // A 100-node scalar demand needs the spanning job's completion:
        // 56 joint free nodes now, 256 at t=100.
        let head = spec(10, 500, 100, 0);
        let t = shadow_start(&c, SimTime::ZERO, Demand::from(&head));
        assert_eq!(t, SimTime::from_secs(100));
        // A 40-node demand fits the joint gpu+bigmem free pool right now.
        let t = shadow_start(&c, SimTime::ZERO, Demand::from(&spec(11, 500, 40, 0)));
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(
            free_by_class_at(&c, SimTime::from_secs(100)),
            [192, 48, 16, 0]
        );
        c.check_invariants();
    }

    #[test]
    fn free_by_class_at_returns_nodes_to_their_class() {
        let c = busy_mixed();
        assert_eq!(
            free_by_class_at(&c, SimTime::from_secs(99)),
            [192, 2, 16, 0]
        );
        assert_eq!(
            free_by_class_at(&c, SimTime::from_secs(100)),
            [192, 48, 16, 0]
        );
    }
}
