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
//! Nodes are exchangeable within a class, so capacity is kept as counts:
//! a grant ([`Allocation`]) is how many nodes each class gives and how much
//! memory is debited, never a set of node indices.
//!
//! Beyond the paper's flat machine, the crate also models **classed**
//! clusters: node classes (`cpu`, `gpu`, `bigmem`) with per-node
//! [`ResourceVec`] capacities ([`topology`]), class-aware first-fit
//! placement over per-class free counts ([`allocator::ClassedAllocator`]),
//! and vector-valued shadow-time math ([`reservation`]). Flat
//! configurations bypass all of it.
//!
//! Modules:
//!
//! * [`job`] — job identifiers, specifications, lifecycle records.
//! * [`resources`] — per-node resource vectors (cores, GPUs, memory,
//!   burst-buffer slots).
//! * [`topology`] — node classes: a kind, a count and a per-node capacity.
//! * [`allocator`] — first-fit placement (paper §3.3: "a first-fit
//!   strategy allocates each selected job to the first available set of
//!   resources"), flat and classed.
//! * [`cluster`] — the live capacity ledger: the running jobs' slot table
//!   and the completed records, with invariant checking.
//! * [`reservation`] — shadow-time reservations used to validate EASY-style
//!   backfilling.
//!
//! ```
//! use rsched_cluster::{ClusterConfig, FirstFitAllocator};
//!
//! let config = ClusterConfig::paper_default();
//! let mut alloc = FirstFitAllocator::new(config.nodes, config.memory_gb);
//!
//! // First-fit placement against both capacity constraints.
//! let grant = alloc.try_allocate(16, 64).expect("machine is empty");
//! assert_eq!(grant.nodes, 16);
//! assert_eq!(alloc.free_nodes(), config.nodes - 16);
//!
//! alloc.release(&grant);
//! assert_eq!(alloc.free_nodes(), config.nodes);
//! assert_eq!(alloc.free_memory_gb(), config.memory_gb);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod allocator;
pub mod cluster;
pub mod job;
pub mod reservation;
pub mod resources;
pub mod topology;

pub use allocator::{
    compatible_slots, job_is_feasible, Allocation, ClassedAllocator, FirstFitAllocator,
    PlacementRequest, SlotSet,
};
pub use cluster::{ClusterConfig, ClusterState, RunningIn, RunningJob, RunningOrder, StartError};
pub use job::{GroupId, JobId, JobRecord, JobSpec, UserId};
pub use reservation::classed_overlap_fits;
pub use resources::ResourceVec;
pub use topology::{NodeClass, NodeClassSpec, Topology, MAX_CLASSES};
