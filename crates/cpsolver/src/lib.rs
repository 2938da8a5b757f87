//! # rsched-cpsolver
//!
//! A from-scratch cumulative-resource scheduling solver, standing in for the
//! **Google OR-Tools** baseline of the paper (§3.3):
//!
//! *"Google OR-Tools provides an optimization-based scheduling solution,
//! which we use as a strong baseline; it computes globally optimal or
//! near-optimal schedules for small-to-medium workloads, offering a
//! performance upper bound for comparison."*
//!
//! The problem is makespan minimization for non-preemptive jobs with two
//! cumulative resources (nodes, memory) and release times — an RCPSP
//! variant. The solver reproduces the OR-Tools baseline's observable
//! properties:
//!
//! * **provably optimal** schedules wherever a decoding meets the
//!   [`bounds::lower_bound`] (the proof every shipped run that has one
//!   gets),
//! * **near-optimal** schedules otherwise ([`anneal`] over serial-SGS
//!   decodings, checked against exhaustive search in tests),
//! * **utilization-focused, fairness-blind** objectives — there is no
//!   fairness term, exactly like the paper's OR-Tools runs.
//!
//! [`portfolio::Solver`] runs the stages under a deterministic iteration
//! budget.
//!
//! ```
//! use rsched_cpsolver::{Instance, Solver, SolverConfig, Task};
//!
//! // Two 4-node tasks and one 8-node task on an 8-node machine: the pair
//! // can run together, so the optimum beats serial execution.
//! let task = |id, nodes| Task { id, duration: 100, nodes, memory: 1, release: 0 };
//! let instance = Instance::new(vec![task(0, 4), task(1, 4), task(2, 8)], 8, 64);
//!
//! let solution = Solver::new(SolverConfig::default()).solve(&instance);
//! assert!(solution.schedule.is_feasible(&instance));
//! assert_eq!(solution.makespan, 200, "pair packed in parallel");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod anneal;
pub mod bounds;
pub(crate) mod listsched;
pub mod model;
pub(crate) mod portfolio;
pub mod sgs;

pub use model::{Instance, Schedule, Task};
pub use portfolio::{Solution, SolveMethod, Solver, SolverConfig};
