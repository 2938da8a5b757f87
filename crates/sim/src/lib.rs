//! # rsched-sim
//!
//! The discrete-event HPC scheduling simulator of paper §3.1.
//!
//! *"The simulator operates as a discrete event system, advancing simulation
//! time only at key events such as job arrivals and job completions. At each
//! step, the simulator injects any newly arrived jobs into the waiting
//! queue, updates the status of running jobs (releasing resources for those
//! that have finished), and then determines the next scheduling action. If
//! there are jobs ready to be scheduled, the agent queries the LLM for a
//! decision; otherwise, it advances time to the next event."*
//!
//! That step is [`KernelState`]'s, written once: a driver delivers the
//! arrivals, calls [`advance_to(now)`](KernelState::advance_to), then
//! [`run_epoch`](KernelState::run_epoch). The simulator here and the
//! `rsched-service` daemon are two arrival sources over it.
//!
//! The simulator drives any [`SchedulingPolicy`] — the baselines in
//! `rsched-schedulers` or the ReAct agent in `rsched-core` — through exactly
//! that loop, validating every proposed action against the live cluster
//! ledger (the constraint-enforcement module of paper §2.4) and reporting
//! structured rejection reasons that the agent renders as natural-language
//! feedback.
//!
//! The public entry point is the [`Simulation`] builder; [`run_simulation`]
//! is a thin compatibility wrapper over it. A run is written down once, in
//! the [`SimOutcome`] it returns (`records`, `epochs`, `stats`, and the
//! per-query `decisions` when the run asks for them with
//! [`Simulation::record_decisions`]); timing and counters go to an
//! attached [`TelemetrySink`].
//!
//! The kernel is zero-copy: policies receive a lifetime-parameterized
//! [`SystemView`] that *borrows* the simulator's incrementally-maintained
//! queue and the cluster's slot table of running jobs (and the count of the
//! completed ones), so a policy query costs nothing in allocation no
//! matter how deep the queue is. "Does anything waiting fit?" is answered by one
//! serial column [`scan`] behind O(1) min-demand watermarks on a flat
//! machine, and by a lookup in an exact per-compatibility index on a
//! classed one. Backfilling policies read free capacity over time as a
//! [`CapacityCalendar`], built when they ask for it
//! ([`SystemView::capacity_calendar`]) into a buffer they keep.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod builder;
pub mod kernel;
pub mod outcome;
pub mod policy;
pub mod profile;
mod queue;
pub mod scan;
pub mod simulator;
pub mod store;
pub mod view;

pub use builder::Simulation;
pub use kernel::KernelState;
pub use outcome::{DecisionRecord, SimOutcome, SimStats};
pub use policy::{Action, ActionOutcome, OverheadReport, RejectReason, SchedulingPolicy};
pub use profile::{
    CalendarPoint, CapacityCalendar, HeadReservation, ReservationProfile, ReservedStep,
};
pub use queue::WaitQueue;
pub use scan::ScanOutcome;
pub use simulator::{run_simulation, validate_workload, SimError, SimOptions};
pub use store::JobStore;
pub use view::{Running, RunningIter, RunningSummary, SystemView, Waiting, WaitingIter};

// Telemetry vocabulary re-exported so policies and drivers can name the
// provenance/sink types without a direct `rsched-telemetry` dependency.
pub use rsched_telemetry::{DelayReason, EpochOutcome, EpochTrace, TelemetrySink};
