//! # rsched-cluster
//!
//! The HPC cluster substrate for the `reasoned-scheduler` workspace: the
//! machine model that the paper's discrete-event simulator (paper §3.1)
//! schedules onto.
//!
//! The simulated partition follows the paper's configuration — by default
//! **256 compute nodes and 2048 GB of aggregate memory** (the Polaris
//! experiment uses 560 nodes × 512 GB). Jobs occupy whole nodes exclusively
//! and draw from the shared memory pool, giving exactly the paper's two
//! feasibility constraints:
//!
//! * `Σ nodes(j) ≤ N_total` over active jobs, and
//! * `Σ memory(j) ≤ M_total` over active jobs.
//!
//! Beyond the paper's flat machine, the crate also models **classed**
//! clusters: node classes (`cpu`, `gpu`, `bigmem`) with per-node
//! [`ResourceVec`] capacities ([`topology`]), a class-aware first-fit
//! placement scan ([`allocator::ClassedAllocator`]), and vector-valued
//! shadow-time math ([`reservation`]). Flat configurations bypass all of
//! it and reproduce the scalar kernel bit for bit.
//!
//! Modules:
//!
//! * [`job`] — job identifiers, specifications, lifecycle records.
//! * [`node`] — the node bitmask used for placement.
//! * [`resources`] — per-node resource vectors (cores, GPUs, memory,
//!   burst-buffer slots).
//! * [`topology`] — node classes and their contiguous index ranges.
//! * [`allocator`] — first-fit node-level placement (paper §3.3: "a
//!   first-fit strategy allocates each selected job to the first available
//!   set of resources"), flat and classed.
//! * [`cluster`] — the live capacity ledger with invariant checking.
//! * [`reservation`] — shadow-time reservations used to validate EASY-style
//!   backfilling.
//! * [`utilization`] — step-function resource integrals for the utilization
//!   objectives.
//!
//! ```
//! use rsched_cluster::{ClusterConfig, FirstFitAllocator};
//!
//! let config = ClusterConfig::paper_default();
//! let mut alloc = FirstFitAllocator::new(config.nodes, config.memory_gb);
//!
//! // First-fit placement against both capacity constraints.
//! let grant = alloc.try_allocate(16, 64).expect("machine is empty");
//! assert_eq!(grant.node_count(), 16);
//! assert_eq!(alloc.free_nodes(), config.nodes - 16);
//!
//! alloc.release(&grant);
//! assert_eq!(alloc.free_nodes(), config.nodes);
//! assert_eq!(alloc.free_memory_gb(), config.memory_gb);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod allocator;
pub mod cluster;
pub mod job;
pub mod node;
pub mod reservation;
pub mod resources;
pub mod topology;
pub mod utilization;

pub use allocator::{
    compatible_slots, Allocation, ClassedAllocator, FirstFitAllocator, NodeAllocator,
    PlacementRequest, SlotSet,
};
pub use cluster::{ClusterConfig, ClusterState, CompletedStats, RunningJob, StartError};
pub use job::{GroupId, JobId, JobRecord, JobSpec, UserId};
pub use node::NodeMask;
pub use reservation::{classed_overlap_fits, nodes_per_slot};
pub use resources::ResourceVec;
pub use topology::{NodeClass, NodeClassSpec, Topology, MAX_CLASSES};
pub use utilization::StepIntegral;
