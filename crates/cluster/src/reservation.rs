//! Backfill-validation arithmetic shared with the allocator.
//!
//! The agent's `BackfillJob(job_id=Y)` action (paper §2.2) opportunistically
//! runs a smaller job ahead of the blocked head of the queue. It is
//! validated EASY-style: the backfilled job must fit **now** and must not
//! delay the *shadow start* — the earliest time the head job could start
//! given the currently running jobs' completion times. The sweep over
//! those completions lives in the simulator's capacity calendar
//! (`rsched_sim::profile`); this module holds what it shares with the
//! allocator — the classed overlap test, over the allocator's own
//! [`PlacementRequest`] — and the per-class release columns.

use crate::allocator::{plan_take, PlacementRequest};
use crate::topology::{Topology, MAX_CLASSES};

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
    candidate: &PlacementRequest,
    head: &PlacementRequest,
) -> bool {
    let Some(take) = plan_take(topology, free_now, candidate) else {
        return true;
    };
    for (slot, n) in take.into_iter().enumerate() {
        free_at_shadow[slot] = free_at_shadow[slot].saturating_sub(n);
    }
    head.fits_classes(topology, &free_at_shadow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterState};
    use crate::job::JobSpec;
    use crate::resources::ResourceVec;
    use rsched_simkit::{SimDuration, SimTime};

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

    fn scalar(nodes: u32, memory_gb: u64) -> PlacementRequest {
        PlacementRequest::from(&spec(0, 500, nodes, memory_gb))
    }

    fn gpu(id: u32, nodes: u32, gpus_per_node: u32) -> PlacementRequest {
        PlacementRequest::from(&spec(id, 500, nodes, 0).with_per_node(ResourceVec::new(
            0,
            gpus_per_node,
            0,
            0,
        )))
    }

    /// mixed_256 with 46 of 48 gpu nodes busy until the shadow time: the
    /// per-class free counts now and once that job has ended.
    const FREE_NOW: [u32; MAX_CLASSES] = [192, 2, 16, 0];
    const FREE_AT_SHADOW: [u32; MAX_CLASSES] = [192, 48, 16, 0];

    #[test]
    fn classed_overlap_protects_the_gpu_head() {
        let topology = ClusterConfig::mixed_256().topology;
        let overlap = |candidate: &PlacementRequest, head: &PlacementRequest| {
            classed_overlap_fits(&topology, &FREE_NOW, FREE_AT_SHADOW, candidate, head)
        };
        // A 2-node gpu candidate overlapping the shadow leaves 48 - 2 = 46
        // gpu nodes: an 8-node head still fits, a 47-node head collides.
        let candidate = gpu(12, 2, 1);
        assert!(overlap(&candidate, &gpu(10, 8, 2)));
        assert!(!overlap(&candidate, &gpu(13, 47, 1)));
        // A cpu-class candidate occupies a different class than the head
        // needs, however wide it is.
        assert!(overlap(&scalar(64, 64), &gpu(10, 8, 2)));
        // A candidate that no longer fits now occupies nothing.
        assert!(overlap(&gpu(14, 3, 1), &gpu(13, 47, 1)));
    }

    #[test]
    fn fits_classes_spans_classless_demands_only() {
        let topology = ClusterConfig::mixed_256().topology;
        // 40 scalar nodes fit the joint gpu + bigmem pool; 100 do not.
        let free = [0, 40, 16, 0];
        assert!(scalar(40, 0).fits_classes(&topology, &free));
        assert!(!scalar(100, 0).fits_classes(&topology, &free));
        // No class ever hosts 5 GPUs per node.
        assert!(!gpu(12, 1, 5).fits_classes(&topology, &FREE_AT_SHADOW));
    }

    #[test]
    fn nodes_per_slot_returns_nodes_to_the_class_that_hosted_them() {
        // One spanning scalar job wider than every class.
        let mut c = ClusterState::new(ClusterConfig::mixed_256());
        c.start_job(&spec(1, 100, 200, 0), SimTime::ZERO)
            .expect("spans classes");
        assert_eq!(c.free_by_class(), [0, 40, 16, 0]);
        let topology = c.config().topology;
        let job = c.running().next().expect("one running job");
        assert_eq!(
            nodes_per_slot(&topology, &job.allocation.nodes),
            [192, 8, 0, 0]
        );
        c.check_invariants();
    }
}
