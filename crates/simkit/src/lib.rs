//! # rsched-simkit
//!
//! Discrete-event simulation kernel and numerical substrate for the
//! `reasoned-scheduler` workspace.
//!
//! This crate is dependency-free and provides:
//!
//! * [`time`] — integer-millisecond simulation time ([`SimTime`],
//!   [`SimDuration`]) with total ordering and no floating-point drift.
//! * [`event`] — a stable, FIFO-within-timestamp event queue
//!   ([`EventQueue`]) backing the discrete-event loop.
//! * [`rng`] — deterministic pseudo-random generation: `SplitMix64` for
//!   seed derivation, [`Xoshiro256PlusPlus`] as the workhorse generator, and
//!   [`SeedTree`] for reproducible per-component seed derivation.
//! * [`dist`] — probability distributions (uniform, exponential, gamma,
//!   normal, log-normal, Pareto, categorical, …) implemented from
//!   scratch; the workload scenarios and the LLM latency models sample from
//!   these.
//! * [`stats`] — streaming and descriptive statistics (Welford moments,
//!   quantiles, box plots, Kahan summation) used by the metric
//!   and experiment crates.
//! * [`csv`] — a minimal, RFC-4180-compatible CSV reader/writer used for
//!   trace and result files.
//! * [`json`] — the byte-stable JSON fragment rules (string escaping,
//!   six-decimal floats) shared by every JSON writer.
//! * [`timetable`] — tentative reservations over a free-capacity step
//!   function ([`ReservationProfile`]): the earliest-window search and
//!   splice shared by conservative backfilling and the solver's serial
//!   schedule generation.
//!
//! Everything here is deterministic given a seed: the same root seed
//! reproduces every experiment in the workspace bit-for-bit.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod dist;
pub mod event;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timetable;

pub use event::EventQueue;
pub use rng::{Rng, RngExt, SeedTree, Xoshiro256PlusPlus};
pub use stats::{BoxplotStats, RunningStats};
pub use time::{SimDuration, SimTime};
pub use timetable::{BasePoint, ReservationProfile, ReservedStep};

/// Commonly used items, for glob import in downstream crates.
pub mod prelude {
    pub use crate::dist::Sample;
    pub use crate::event::EventQueue;
    pub use crate::rng::{Rng, RngExt, SeedTree, Xoshiro256PlusPlus};
    pub use crate::stats::RunningStats;
    pub use crate::time::{SimDuration, SimTime};
}
