//! First-fit resource allocation.
//!
//! Paper §3.3: *"Our LLM scheduler operates at the job selection and
//! allocation level, using a first-fit strategy on a cluster (256 CPUs,
//! 2048 GB memory). A first-fit strategy allocates each selected job to the
//! first available set of resources that meet its requirements."*
//!
//! Nodes are exclusive (a node runs one job at a time) and exchangeable
//! within a class; memory is an aggregate pool. Together these realize the
//! paper's two capacity constraints. Because any free node of a class is as
//! good as any other, *which* nodes a job holds is never observable: no
//! record, decision, prompt or metric reads a node index, and the first-fit
//! choice is fully described by how many nodes each class gives. So an
//! [`Allocation`] is a count per class, not a node set, and both allocators
//! are counters:
//!
//! * [`FirstFitAllocator`] is the flat scalar machine: free nodes and free
//!   memory.
//! * [`ClassedAllocator`] is the multi-resource generalization: nodes carry
//!   [`ResourceVec`] capacities grouped into classes ([`Topology`]), and it
//!   keeps a free count per class plus free memory. A job's nodes come from
//!   **one** class when possible (the first compatible class with enough
//!   free nodes); when no single class can host a classless job, the grant
//!   spans compatible classes greedily in topology order, so wide scalar
//!   jobs calibrated against the flat machine still place on a mixed-class
//!   one. Feasibility and placement are the same `O(classes)` plan.
//!
//! `NodeAllocator` dispatches between the two.

use crate::cluster::ClusterConfig;
use crate::job::JobSpec;
use crate::resources::ResourceVec;
use crate::topology::{NodeClass, Topology, MAX_CLASSES};

/// A grant of resources to one job: how many nodes it holds, from which
/// classes, and how much memory was debited. Returned by the allocators'
/// `try_allocate` and passed back to their `release` exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Whole nodes held.
    pub nodes: u32,
    /// Memory debited from the pool, in GB.
    pub memory_gb: u64,
    /// Nodes held per topology slot — all zeros on a flat machine, which
    /// has no classes.
    pub by_class: [u32; MAX_CLASSES],
}

/// Tracks free nodes and free memory of the flat machine.
#[derive(Debug, Clone)]
pub struct FirstFitAllocator {
    total_nodes: u32,
    total_memory_gb: u64,
    free_nodes: u32,
    free_memory_gb: u64,
}

impl FirstFitAllocator {
    /// An allocator over `nodes` compute nodes and `memory_gb` GB of
    /// aggregate memory, all initially free.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u32, memory_gb: u64) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        FirstFitAllocator {
            total_nodes: nodes,
            total_memory_gb: memory_gb,
            free_nodes: nodes,
            free_memory_gb: memory_gb,
        }
    }

    /// Total node count.
    pub fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Total memory in GB.
    pub fn total_memory_gb(&self) -> u64 {
        self.total_memory_gb
    }

    /// Currently free nodes.
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Currently free memory in GB.
    pub fn free_memory_gb(&self) -> u64 {
        self.free_memory_gb
    }

    /// `true` if a request for `nodes`/`memory_gb` could be granted now.
    pub fn can_fit(&self, nodes: u32, memory_gb: u64) -> bool {
        nodes <= self.free_nodes && memory_gb <= self.free_memory_gb
    }

    /// `true` if the request could *ever* be granted on an empty cluster.
    pub(crate) fn fits_capacity(&self, nodes: u32, memory_gb: u64) -> bool {
        nodes <= self.total_nodes && memory_gb <= self.total_memory_gb
    }

    /// Grant `nodes` free nodes and reserve memory, or `None` if the request
    /// does not fit right now.
    ///
    /// Zero-node requests are legal (they only consume memory); the paper's
    /// workloads never produce them but traces might.
    pub fn try_allocate(&mut self, nodes: u32, memory_gb: u64) -> Option<Allocation> {
        if !self.can_fit(nodes, memory_gb) {
            return None;
        }
        self.free_nodes -= nodes;
        self.free_memory_gb -= memory_gb;
        Some(Allocation {
            nodes,
            memory_gb,
            by_class: [0; MAX_CLASSES],
        })
    }

    /// Return an allocation's resources to the pool.
    ///
    /// # Panics
    /// Panics if the node or memory return would exceed total capacity —
    /// a double release or a foreign allocation.
    pub fn release(&mut self, alloc: &Allocation) {
        assert!(
            alloc.nodes <= self.total_nodes - self.free_nodes,
            "release of nodes that are not allocated: {}",
            alloc.nodes
        );
        assert!(
            alloc.memory_gb <= self.total_memory_gb - self.free_memory_gb,
            "memory release would exceed capacity"
        );
        self.free_nodes += alloc.nodes;
        self.free_memory_gb += alloc.memory_gb;
    }

    /// Debug invariant: free counters never exceed the totals.
    pub fn check_invariants(&self) {
        assert!(self.free_nodes <= self.total_nodes);
        assert!(self.free_memory_gb <= self.total_memory_gb);
    }
}

/// One placement request, in the vocabulary both allocator kinds share.
///
/// Flat allocation reads only `nodes` and `memory_gb` — the paper's
/// abstract machine deliberately ignores per-node demands. Classed
/// allocation additionally matches `class` and the
/// effective per-node demand
/// against each class capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRequest {
    /// Whole nodes requested.
    pub nodes: u32,
    /// Aggregate memory requested, in GB.
    pub memory_gb: u64,
    /// Extended per-node demand (zero for scalar jobs).
    pub per_node: ResourceVec,
    /// Required node class, if any (`None` = any class whose capacity
    /// covers the demand).
    pub class: Option<NodeClass>,
}

impl PlacementRequest {
    /// The per-node demand used for class compatibility: the declared
    /// per-node vector, with memory raised to `ceil(memory_gb / nodes)` so
    /// the aggregate memory demand is covered by per-node capacities —
    /// this is what makes the per-class free-count watermark exact.
    pub(crate) fn effective_per_node(&self) -> ResourceVec {
        let spread = self.memory_gb.div_ceil(self.nodes.max(1) as u64);
        ResourceVec {
            memory_gb: self.per_node.memory_gb.max(spread),
            ..self.per_node
        }
    }

    /// `true` if the compatible classes of `topology` with `free` nodes
    /// available could host this request right now — one class when
    /// possible, spanning classless requests across classes otherwise,
    /// exactly as [`ClassedAllocator::try_allocate`] would place it.
    pub fn fits_classes(&self, topology: &Topology, free: &[u32; MAX_CLASSES]) -> bool {
        plan_take(topology, free, self).is_some()
    }
}

impl From<&JobSpec> for PlacementRequest {
    fn from(s: &JobSpec) -> Self {
        PlacementRequest {
            nodes: s.nodes,
            memory_gb: s.memory_gb,
            per_node: s.per_node,
            class: s.class,
        }
    }
}

/// Could `job` ever run on an *empty* machine of this configuration?
///
/// A flat machine checks the scalar node and memory totals. On a classed
/// machine a job is feasible exactly when some class combination could host
/// it with every node free. The one feasibility rule: the simulator checks
/// whole workloads with it upfront, the service daemon each submission at
/// its front door, and `rsched_workloads::Workload::validate` each generated
/// job.
pub fn job_is_feasible(config: ClusterConfig, job: &JobSpec) -> bool {
    if config.topology.is_flat() {
        job.nodes <= config.nodes && job.memory_gb <= config.memory_gb
    } else {
        PlacementRequest::from(job).fits_classes(&config.topology, &class_counts(&config.topology))
    }
}

/// `true` if `spec`'s nodes may host the request: the class pin matches
/// (or there is none) and the per-node capacity covers `demand`.
fn slot_compatible(
    req: &PlacementRequest,
    spec: &crate::topology::NodeClassSpec,
    demand: &ResourceVec,
) -> bool {
    req.class.is_none_or(|c| c == spec.class) && spec.capacity.dominates(demand)
}

/// A set of topology slots, one bit per slot — what
/// [`compatible_slots`] returns. `Ord`, so it can key an ordered index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotSet(u8);

const _: () = assert!(MAX_CLASSES <= u8::BITS as usize);

impl SlotSet {
    /// The set as a bit mask, bit `slot` set for each member — a compact,
    /// order-preserving form for packed index keys.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// `true` if `slot` is in the set.
    pub fn contains(self, slot: usize) -> bool {
        self.0 & (1 << slot) != 0
    }

    /// The free nodes of the set's slots, summed.
    pub fn free_nodes(self, free: &[u32; MAX_CLASSES]) -> u32 {
        (0..MAX_CLASSES)
            .filter(|&slot| self.contains(slot))
            .map(|slot| free[slot])
            .sum()
    }
}

/// The slots whose nodes may host `req`: the class pin matches (or there
/// is none) and the per-node capacity covers the
/// effective demand. A property of
/// the request and the topology alone — no free count enters it — and the
/// whole of feasibility: the request fits free counts `free` exactly when
/// `req.nodes <= compatible_slots(topology, req).free_nodes(free)`
/// (`plan_take` below decides only *where* the nodes come from). That is
/// what lets a wait queue answer "does anything fit?" from counts keyed by
/// slot set instead of probing each job.
pub fn compatible_slots(topology: &Topology, req: &PlacementRequest) -> SlotSet {
    let demand = req.effective_per_node();
    let mut slots = 0u8;
    for (slot, spec) in topology.classes() {
        if slot_compatible(req, &spec, &demand) {
            slots |= 1 << slot;
        }
    }
    SlotSet(slots)
}

/// The per-class node take for `req` against free counts `free`: the first
/// compatible class that can host the whole request (class-homogeneous,
/// the preferred shape), else a greedy topology-order span across
/// compatible classes (classless wide jobs on machines whose largest class
/// is smaller than the request). `None` means the request does not fit
/// right now. `O(classes)` — this is the shared feasibility kernel of
/// [`ClassedAllocator`] and the reservation shadow-time math, so "can it
/// fit" and "how many from each class" can never disagree.
pub(crate) fn plan_take(
    topology: &Topology,
    free: &[u32; MAX_CLASSES],
    req: &PlacementRequest,
) -> Option<[u32; MAX_CLASSES]> {
    let mut take = [0u32; MAX_CLASSES];
    if req.nodes == 0 {
        return Some(take);
    }
    let demand = req.effective_per_node();
    if let Some((slot, _)) = topology
        .classes()
        .find(|(slot, spec)| slot_compatible(req, spec, &demand) && free[*slot] >= req.nodes)
    {
        take[slot] = req.nodes;
        return Some(take);
    }
    let mut remaining = req.nodes;
    for (slot, spec) in topology.classes() {
        if slot_compatible(req, &spec, &demand) {
            let grab = remaining.min(free[slot]);
            take[slot] = grab;
            remaining -= grab;
            if remaining == 0 {
                return Some(take);
            }
        }
    }
    None
}

/// Multi-resource allocator over a classed [`Topology`]: a free-node count
/// per class and the free memory.
///
/// Placement prefers a **class-homogeneous** grant: all of a job's nodes
/// from the first class (in topology order) that is compatible — class
/// constraint matches and per-node capacity dominates the effective
/// demand — and has at least `nodes` free. When no single class can host
/// a classless request, the grant **spans** compatible classes greedily
/// in topology order (`plan_take`), so scalar jobs wider than the
/// largest class still place. Both `can_fit` and `try_allocate` are that
/// one `O(classes)` plan over the per-class free counts.
///
/// Memory accounting is capacity-based: an allocated node's whole memory
/// counts as busy (nodes are exclusive), so `free_memory_gb` is the sum of
/// free nodes' capacities.
#[derive(Debug, Clone)]
pub struct ClassedAllocator {
    topology: Topology,
    free_by_class: [u32; MAX_CLASSES],
    total_memory_gb: u64,
    free_memory_gb: u64,
}

impl ClassedAllocator {
    /// An allocator over `topology`, all nodes initially free.
    ///
    /// # Panics
    /// Panics if the topology is flat (use [`FirstFitAllocator`]).
    pub fn new(topology: Topology) -> Self {
        assert!(
            !topology.is_flat(),
            "classed allocator needs a non-flat topology"
        );
        let total_memory_gb = topology.total_memory_gb();
        ClassedAllocator {
            topology,
            free_by_class: class_counts(&topology),
            total_memory_gb,
            free_memory_gb: total_memory_gb,
        }
    }

    /// Total node count.
    pub fn total_nodes(&self) -> u32 {
        self.topology.total_nodes()
    }

    /// Total memory in GB.
    pub fn total_memory_gb(&self) -> u64 {
        self.total_memory_gb
    }

    /// Currently free nodes, across all classes.
    pub fn free_nodes(&self) -> u32 {
        self.free_by_class.iter().sum()
    }

    /// Currently free memory in GB (sum of free nodes' capacities).
    pub fn free_memory_gb(&self) -> u64 {
        self.free_memory_gb
    }

    /// Free node counts per topology slot.
    pub fn free_by_class(&self) -> [u32; MAX_CLASSES] {
        self.free_by_class
    }

    /// `true` if the request could be granted right now.
    pub fn can_fit(&self, req: &PlacementRequest) -> bool {
        plan_take(&self.topology, &self.free_by_class, req).is_some()
    }

    /// `true` if the request could *ever* be granted on an empty cluster.
    pub(crate) fn fits_capacity(&self, req: &PlacementRequest) -> bool {
        plan_take(&self.topology, &class_counts(&self.topology), req).is_some()
    }

    /// Grant nodes per `plan_take` — one compatible class when possible,
    /// a greedy topology-order span otherwise — or `None` if the request
    /// does not fit right now. The grant's `by_class` is the plan's take.
    ///
    /// Zero-node requests are legal and consume nothing (memory is
    /// node-attached in the classed model).
    pub fn try_allocate(&mut self, req: &PlacementRequest) -> Option<Allocation> {
        let take = plan_take(&self.topology, &self.free_by_class, req)?;
        let mut charged = 0u64;
        for (slot, spec) in self.topology.classes() {
            self.free_by_class[slot] -= take[slot];
            charged += take[slot] as u64 * spec.capacity.memory_gb;
        }
        self.free_memory_gb -= charged;
        Some(Allocation {
            nodes: req.nodes,
            memory_gb: charged,
            by_class: take,
        })
    }

    /// Return an allocation's resources to the pool, each node to the
    /// class that hosted it.
    ///
    /// # Panics
    /// Panics if any class would have more free nodes than it has, or the
    /// memory return would exceed total capacity — a double release or a
    /// foreign allocation.
    pub fn release(&mut self, alloc: &Allocation) {
        for (slot, spec) in self.topology.classes() {
            assert!(
                alloc.by_class[slot] <= spec.count - self.free_by_class[slot],
                "release of {} {} nodes that are not allocated",
                alloc.by_class[slot],
                spec.class
            );
        }
        assert!(
            alloc.memory_gb <= self.total_memory_gb - self.free_memory_gb,
            "memory release would exceed capacity"
        );
        for (free, held) in self.free_by_class.iter_mut().zip(alloc.by_class) {
            *free += held;
        }
        self.free_memory_gb += alloc.memory_gb;
    }

    /// Debug invariant: no class has more free nodes than it has, and the
    /// memory ledger agrees with the free counts.
    pub fn check_invariants(&self) {
        let mut expected_mem = 0u64;
        for (slot, spec) in self.topology.classes() {
            assert!(
                self.free_by_class[slot] <= spec.count,
                "class {} free count exceeds its size",
                spec.class
            );
            expected_mem += self.free_by_class[slot] as u64 * spec.capacity.memory_gb;
        }
        assert_eq!(self.free_memory_gb, expected_mem, "memory ledger drift");
    }
}

/// Every class's node count, by topology slot — the free counts of an
/// empty machine.
fn class_counts(topology: &Topology) -> [u32; MAX_CLASSES] {
    let mut counts = [0u32; MAX_CLASSES];
    for (slot, spec) in topology.classes() {
        counts[slot] = spec.count;
    }
    counts
}

/// The allocator behind [`ClusterState`](crate::cluster::ClusterState):
/// flat configs dispatch to [`FirstFitAllocator`], classed configs to
/// [`ClassedAllocator`].
#[derive(Debug, Clone)]
pub(crate) enum NodeAllocator {
    /// The paper's flat scalar machine.
    Flat(FirstFitAllocator),
    /// The multi-resource classed machine.
    Classed(ClassedAllocator),
}

impl NodeAllocator {
    /// `true` if the request could be granted right now.
    pub fn can_fit(&self, req: &PlacementRequest) -> bool {
        match self {
            NodeAllocator::Flat(a) => a.can_fit(req.nodes, req.memory_gb),
            NodeAllocator::Classed(a) => a.can_fit(req),
        }
    }

    /// `true` if the request could ever be granted on an empty cluster.
    pub(crate) fn fits_capacity(&self, req: &PlacementRequest) -> bool {
        match self {
            NodeAllocator::Flat(a) => a.fits_capacity(req.nodes, req.memory_gb),
            NodeAllocator::Classed(a) => a.fits_capacity(req),
        }
    }

    /// Grant the request, or `None` if it does not fit right now.
    pub fn try_allocate(&mut self, req: &PlacementRequest) -> Option<Allocation> {
        match self {
            NodeAllocator::Flat(a) => a.try_allocate(req.nodes, req.memory_gb),
            NodeAllocator::Classed(a) => a.try_allocate(req),
        }
    }

    /// Return an allocation's resources to the pool.
    pub fn release(&mut self, alloc: &Allocation) {
        match self {
            NodeAllocator::Flat(a) => a.release(alloc),
            NodeAllocator::Classed(a) => a.release(alloc),
        }
    }

    /// Currently free nodes.
    pub fn free_nodes(&self) -> u32 {
        match self {
            NodeAllocator::Flat(a) => a.free_nodes(),
            NodeAllocator::Classed(a) => a.free_nodes(),
        }
    }

    /// Currently free memory in GB.
    pub fn free_memory_gb(&self) -> u64 {
        match self {
            NodeAllocator::Flat(a) => a.free_memory_gb(),
            NodeAllocator::Classed(a) => a.free_memory_gb(),
        }
    }

    /// Free node counts per topology slot (all zeros on a flat cluster,
    /// which has no classes).
    pub fn free_by_class(&self) -> [u32; MAX_CLASSES] {
        match self {
            NodeAllocator::Flat(_) => [0; MAX_CLASSES],
            NodeAllocator::Classed(a) => a.free_by_class(),
        }
    }

    /// Debug invariants for whichever allocator is active.
    pub fn check_invariants(&self) {
        match self {
            NodeAllocator::Flat(a) => a.check_invariants(),
            NodeAllocator::Classed(a) => a.check_invariants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_grants_are_counts() {
        let mut a = FirstFitAllocator::new(8, 64);
        let g1 = a.try_allocate(3, 8).expect("fits");
        let g2 = a.try_allocate(2, 8).expect("fits");
        assert_eq!(
            (g2.nodes, g2.memory_gb, g2.by_class),
            (2, 8, [0; MAX_CLASSES])
        );
        assert_eq!((a.free_nodes(), a.free_memory_gb()), (3, 48));
        a.release(&g1);
        // Freed nodes are as good as never-used ones.
        let g3 = a.try_allocate(6, 8).expect("fits");
        assert_eq!(g3.nodes, 6);
        assert_eq!(a.free_nodes(), 0);
    }

    #[test]
    fn respects_node_capacity() {
        let mut a = FirstFitAllocator::new(4, 100);
        assert!(a.try_allocate(5, 1).is_none());
        let _g = a.try_allocate(4, 1).expect("fits");
        assert!(a.try_allocate(1, 1).is_none());
        assert_eq!(a.free_nodes(), 0);
    }

    #[test]
    fn respects_memory_capacity() {
        let mut a = FirstFitAllocator::new(16, 32);
        let g = a.try_allocate(1, 30).expect("fits");
        assert!(a.try_allocate(1, 3).is_none(), "memory pool exceeded");
        assert!(a.can_fit(1, 2));
        a.release(&g);
        assert_eq!(a.free_memory_gb(), 32);
    }

    #[test]
    fn fits_capacity_vs_can_fit() {
        let mut a = FirstFitAllocator::new(4, 16);
        let _g = a.try_allocate(4, 16).expect("fits");
        assert!(!a.can_fit(1, 1));
        assert!(a.fits_capacity(4, 16));
        assert!(!a.fits_capacity(5, 1));
        assert!(!a.fits_capacity(1, 17));
    }

    #[test]
    fn release_restores_exact_state() {
        let mut a = FirstFitAllocator::new(10, 100);
        let g1 = a.try_allocate(4, 40).expect("fits");
        let g2 = a.try_allocate(6, 60).expect("fits");
        assert_eq!(a.free_nodes(), 0);
        assert_eq!(a.free_memory_gb(), 0);
        a.release(&g2);
        a.release(&g1);
        assert_eq!(a.free_nodes(), 10);
        assert_eq!(a.free_memory_gb(), 100);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_release_panics() {
        let mut a = FirstFitAllocator::new(4, 16);
        let g = a.try_allocate(2, 4).expect("fits");
        a.release(&g);
        a.release(&g);
    }

    #[test]
    fn zero_node_memory_only_job() {
        let mut a = FirstFitAllocator::new(4, 16);
        let g = a.try_allocate(0, 10).expect("fits");
        assert_eq!(g.nodes, 0);
        assert_eq!(a.free_memory_gb(), 6);
        assert_eq!(a.free_nodes(), 4);
        a.release(&g);
        assert_eq!(a.free_memory_gb(), 16);
    }

    #[test]
    fn paper_scale_cluster() {
        // 256 nodes / 2048 GB, the paper's default partition.
        let mut a = FirstFitAllocator::new(256, 2048);
        // Job 7 from the Figure 2 trace: 256 nodes, 2048 GB.
        let g = a.try_allocate(256, 2048).expect("full-machine job fits");
        assert_eq!(a.free_nodes(), 0);
        assert_eq!(a.free_memory_gb(), 0);
        a.release(&g);
        assert!(a.can_fit(256, 2048));
    }

    // ------------------------------------------------- classed allocator

    use crate::topology::NodeClassSpec;

    /// 4 cpu (8 GB) + 3 gpu (4 GPUs, 64 GB) + 2 bigmem (128 GB) nodes.
    fn mixed_topology() -> Topology {
        Topology::flat()
            .with_class(NodeClassSpec {
                class: NodeClass::Cpu,
                count: 4,
                capacity: ResourceVec::new(64, 0, 8, 0),
            })
            .with_class(NodeClassSpec {
                class: NodeClass::Gpu,
                count: 3,
                capacity: ResourceVec::new(64, 4, 64, 2),
            })
            .with_class(NodeClassSpec {
                class: NodeClass::BigMem,
                count: 2,
                capacity: ResourceVec::new(64, 0, 128, 4),
            })
    }

    fn req(nodes: u32, memory_gb: u64) -> PlacementRequest {
        PlacementRequest {
            nodes,
            memory_gb,
            per_node: ResourceVec::ZERO,
            class: None,
        }
    }

    #[test]
    fn classed_first_compatible_class_wins() {
        let mut a = ClassedAllocator::new(mixed_topology());
        assert_eq!(a.free_by_class(), [4, 3, 2, 0]);
        // A scalar job lands in the cpu class (first compatible).
        let g = a.try_allocate(&req(2, 4)).expect("fits");
        assert_eq!(g.by_class, [2, 0, 0, 0]);
        assert_eq!(g.memory_gb, 2 * 8, "charged whole node capacities");
        assert_eq!(a.free_by_class(), [2, 3, 2, 0]);
        a.check_invariants();
    }

    #[test]
    fn gpu_demand_skips_to_the_gpu_class() {
        let mut a = ClassedAllocator::new(mixed_topology());
        let gpu = PlacementRequest {
            per_node: ResourceVec::new(0, 4, 0, 0),
            ..req(2, 0)
        };
        let g = a.try_allocate(&gpu).expect("fits");
        assert_eq!(g.by_class, [0, 2, 0, 0]);
        assert_eq!(a.free_by_class(), [4, 1, 2, 0]);
        // A fifth GPU per node fits nowhere.
        let too_many = PlacementRequest {
            per_node: ResourceVec::new(0, 5, 0, 0),
            ..req(1, 0)
        };
        assert!(!a.fits_capacity(&too_many));
    }

    #[test]
    fn class_constraint_restricts_placement() {
        let mut a = ClassedAllocator::new(mixed_topology());
        // A cpu-capable demand pinned to bigmem must land on bigmem nodes.
        let pinned = PlacementRequest {
            class: Some(NodeClass::BigMem),
            ..req(2, 4)
        };
        let g = a.try_allocate(&pinned).expect("fits");
        assert_eq!(g.by_class, [0, 0, 2, 0]);
        assert!(!a.can_fit(&pinned), "bigmem class exhausted");
        assert!(a.can_fit(&req(2, 4)), "other classes unaffected");
    }

    #[test]
    fn aggregate_memory_spreads_across_nodes() {
        let a = ClassedAllocator::new(mixed_topology());
        // 100 GB over 1 node: no class has a 100 GB node except bigmem.
        let r = req(1, 100);
        assert_eq!(r.effective_per_node().memory_gb, 100);
        assert!(a.can_fit(&r));
        // 100 GB over 2 nodes = 50 GB/node → gpu or bigmem.
        let r = req(2, 100);
        assert_eq!(r.effective_per_node().memory_gb, 50);
        assert!(a.can_fit(&r));
        // 1000 GB over 2 nodes exceeds every per-node capacity.
        assert!(!a.fits_capacity(&req(2, 1000)));
    }

    #[test]
    fn classless_request_spans_classes_when_no_single_class_fits() {
        // 9 nodes total (4 cpu + 3 gpu + 2 bigmem); a 6-node scalar job is
        // wider than every class, so the grant spans cpu + gpu.
        let mut a = ClassedAllocator::new(mixed_topology());
        assert!(a.can_fit(&req(6, 0)));
        assert!(a.fits_capacity(&req(9, 0)));
        assert!(!a.fits_capacity(&req(10, 0)));
        let g = a.try_allocate(&req(6, 0)).expect("spans");
        assert_eq!((g.nodes, g.by_class), (6, [4, 2, 0, 0]));
        assert_eq!(g.memory_gb, 4 * 8 + 2 * 64, "charged per hosting class");
        assert_eq!(a.free_by_class(), [0, 1, 2, 0]);
        a.check_invariants();
        a.release(&g);
        assert_eq!(a.free_by_class(), [4, 3, 2, 0]);
        assert_eq!(a.free_memory_gb(), a.total_memory_gb());
        a.check_invariants();
    }

    #[test]
    fn spanning_respects_per_node_demand_and_class_pins() {
        let mut a = ClassedAllocator::new(mixed_topology());
        // 32 GB/node excludes the cpu class: 4 nodes span gpu (3) + bigmem.
        let heavy = PlacementRequest {
            per_node: ResourceVec::new(0, 0, 32, 0),
            ..req(4, 0)
        };
        let g = a.try_allocate(&heavy).expect("spans gpu+bigmem");
        assert_eq!(g.by_class, [0, 3, 1, 0]);
        assert_eq!(g.memory_gb, 3 * 64 + 128);
        a.release(&g);
        // Class pins never span outside their class.
        let pinned = PlacementRequest {
            class: Some(NodeClass::Gpu),
            ..req(4, 0)
        };
        assert!(!a.fits_capacity(&pinned), "gpu class has only 3 nodes");
        a.check_invariants();
    }

    #[test]
    fn single_class_grant_is_still_preferred_over_spanning() {
        let mut a = ClassedAllocator::new(mixed_topology());
        // 3 nodes fit the cpu class outright even though spanning could
        // start lower: the grant stays class-homogeneous.
        let hole = a.try_allocate(&req(2, 0)).expect("fits"); // cpu 0,1
        let g = a.try_allocate(&req(3, 0)).expect("fits");
        // Only 2 cpu nodes free → the whole grant moves to the gpu class
        // (first class able to host all 3), not cpu+gpu.
        assert_eq!(g.by_class, [0, 3, 0, 0]);
        a.release(&g);
        a.release(&hole);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "gpu nodes that are not allocated")]
    fn classed_double_release_panics() {
        let mut a = ClassedAllocator::new(mixed_topology());
        let gpu = a
            .try_allocate(&PlacementRequest {
                per_node: ResourceVec::new(0, 1, 0, 0),
                ..req(2, 0)
            })
            .expect("fits");
        a.release(&gpu);
        a.release(&gpu);
    }

    #[test]
    fn classed_release_returns_nodes_to_their_classes() {
        let mut a = ClassedAllocator::new(mixed_topology());
        let cpu = a.try_allocate(&req(4, 0)).expect("fits");
        let gpu = a
            .try_allocate(&PlacementRequest {
                per_node: ResourceVec::new(0, 1, 0, 0),
                ..req(3, 0)
            })
            .expect("fits");
        assert_eq!(a.free_by_class(), [0, 0, 2, 0]);
        assert_eq!(a.free_memory_gb(), 2 * 128);
        a.release(&gpu);
        assert_eq!(a.free_by_class(), [0, 3, 2, 0]);
        a.release(&cpu);
        assert_eq!(a.free_by_class(), [4, 3, 2, 0]);
        a.check_invariants();
    }

    #[test]
    fn classed_zero_node_request_consumes_nothing() {
        let mut a = ClassedAllocator::new(mixed_topology());
        let g = a.try_allocate(&req(0, 50)).expect("legal");
        assert_eq!((g.nodes, g.by_class), (0, [0; MAX_CLASSES]));
        assert_eq!(g.memory_gb, 0, "memory is node-attached");
        assert_eq!(a.free_nodes(), 9);
        a.release(&g);
        a.check_invariants();
    }

    #[test]
    fn dispatch_routes_flat_and_classed() {
        let flat = NodeAllocator::Flat(FirstFitAllocator::new(8, 64));
        // Flat ignores extended demands entirely: a GPU request "fits" on a
        // GPU-less machine because the abstract machine has no GPU axis.
        let gpu = PlacementRequest {
            per_node: ResourceVec::new(0, 4, 0, 0),
            ..req(2, 8)
        };
        assert!(flat.can_fit(&gpu));
        assert_eq!(flat.free_by_class(), [0; MAX_CLASSES]);
        let classed = NodeAllocator::Classed(ClassedAllocator::new(mixed_topology()));
        assert!(classed.can_fit(&gpu));
        assert_eq!(classed.free_by_class(), [4, 3, 2, 0]);
        classed.check_invariants();
        flat.check_invariants();
    }

    use crate::reservation::classed_overlap_fits;
    use proptest::prelude::*;

    const KINDS: [NodeClass; 3] = [NodeClass::Cpu, NodeClass::Gpu, NodeClass::BigMem];

    /// Raw numbers for a request: memory, per-node demand (cpus in 32s),
    /// class pin (3 = none), and the class it is cut to fit.
    type Demand = (u64, (u32, u32, u64, u32), usize, usize);

    fn any_demand() -> impl Strategy<Value = Demand> {
        let per_node = (0u32..3, 0u32..5, 0u64..150, 0u32..5);
        (0u64..400, per_node, 0usize..4, 0usize..16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The identity a wait-queue index rests on, checked against the
        /// code that allocates: over any topology, free counts and request
        /// (zero nodes included), the request fits exactly when its node
        /// count is within the free nodes of its compatible slots — and a
        /// plan only ever takes from those slots. Nor does the plan read
        /// more of a request than that: a twin of equal compatible slots
        /// and node count, whatever its memory, per-node demand and class
        /// pin, is planned the same take, hence fits or fails beside any
        /// head with it — what lets the queue ask the EASY rule once per
        /// demand class.
        #[test]
        fn fits_iff_nodes_within_free_compatible_slots(
            classes in prop::collection::vec(
                (0usize..3, 1u32..12, (0u32..3, 0u32..5, 0u64..150, 0u32..5), 0u32..12, 0u32..12),
                1..MAX_CLASSES + 1,
            ),
            nodes in 0u32..16,
            demand in any_demand(),
            twin in any_demand(),
            head_nodes in 0u32..8,
            head in any_demand(),
        ) {
            let mut topology = Topology::flat();
            let mut free = [0u32; MAX_CLASSES];
            let mut free_at_shadow = [0u32; MAX_CLASSES];
            for (slot, &(kind, count, (cpus, gpus, mem, bb), busy, later)) in
                classes.iter().enumerate()
            {
                topology = topology.with_class(NodeClassSpec {
                    class: KINDS[kind],
                    count,
                    capacity: ResourceVec::new(cpus * 32, gpus, mem, bb),
                });
                free[slot] = count - busy % (count + 1);
                free_at_shadow[slot] = count - later % (count + 1);
            }
            // Three requests in four are cut down to what one class offers,
            // pinned to it or not: left raw, most have nowhere to go, and
            // two that share their slots share the empty set.
            let request = |nodes: u32, (memory_gb, per_node, pin, host): Demand| {
                let (cpus, gpus, mem, bb) = per_node;
                let (kind, _, (host_cpus, host_gpus, host_mem, host_bb), ..) =
                    classes[host % classes.len()];
                if host / 4 == 0 {
                    return PlacementRequest {
                        nodes,
                        memory_gb,
                        per_node: ResourceVec::new(cpus * 32, gpus, mem, bb),
                        class: KINDS.get(pin).copied(),
                    };
                }
                PlacementRequest {
                    nodes,
                    memory_gb: memory_gb % (host_mem * u64::from(nodes.max(1)) + 1),
                    per_node: ResourceVec::new(
                        cpus % (host_cpus + 1) * 32,
                        gpus % (host_gpus + 1),
                        mem % (host_mem + 1),
                        bb % (host_bb + 1),
                    ),
                    class: (pin % 2 == 0).then_some(KINDS[kind]),
                }
            };
            let req = request(nodes, demand);
            let (twin, head) = (request(nodes, twin), request(head_nodes, head));
            let slots = compatible_slots(&topology, &req);
            let plan = plan_take(&topology, &free, &req);
            prop_assert_eq!(nodes <= slots.free_nodes(&free), plan.is_some());
            if let Some(take) = plan {
                prop_assert_eq!(take.iter().sum::<u32>(), nodes);
                for slot in 0..MAX_CLASSES {
                    prop_assert!(take[slot] <= free[slot]);
                    prop_assert!(take[slot] == 0 || slots.contains(slot));
                }
            }
            if compatible_slots(&topology, &twin) == slots {
                prop_assert_eq!(plan_take(&topology, &free, &twin), plan);
                let beside = |candidate| {
                    classed_overlap_fits(&topology, &free, free_at_shadow, candidate, &head)
                };
                prop_assert_eq!(beside(&twin), beside(&req));
            }
        }
    }
}
