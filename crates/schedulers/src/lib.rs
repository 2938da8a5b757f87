//! # rsched-schedulers
//!
//! The baseline scheduling policies the paper compares against (§3.3):
//!
//! * [`Fcfs`] — *"the simplest scheduling algorithm that executes jobs
//!   strictly in their arrival order, subject to resource constraints."*
//! * [`Sjf`] — *"prioritizes jobs with the shortest estimated runtime,
//!   typically reducing average turnaround time but potentially starving
//!   longer jobs, compromising fairness."*
//! * [`OrToolsPolicy`] — the optimization-based baseline: an offline
//!   makespan-minimizing solve (via `rsched-cpsolver`, our OR-Tools
//!   substitute) replayed against the live cluster. Utilization-focused
//!   and fairness-blind, as the paper observes.
//!
//! Plus the extensions used by the ablation studies:
//!
//! * [`EasyBackfill`] — FCFS with EASY backfilling; isolates how much of
//!   the LLM agent's win is "just backfilling". Its
//!   [`sjbf`](EasyBackfill::sjbf) variant backfills shortest-walltime
//!   first.
//! * [`ConservativeBackfill`] — FCFS with conservative backfilling (a
//!   reservation for every waiting job, not just the head), also with an
//!   [`sjbf`](ConservativeBackfill::sjbf) variant. Together with EASY
//!   these form the backfilling policy family swept by the heterogeneous
//!   campaigns.
//! * [`RandomPolicy`] — a seeded random eligible-job picker, the sanity
//!   floor.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod conservative;
pub mod easy;
pub mod fcfs;
pub(crate) mod ortools;
pub mod random;
pub mod sjf;

pub use conservative::ConservativeBackfill;
pub use easy::EasyBackfill;
pub use fcfs::Fcfs;
pub use ortools::OrToolsPolicy;
pub use random::RandomPolicy;
pub use sjf::Sjf;
