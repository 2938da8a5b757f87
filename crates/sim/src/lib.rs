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
//! The simulator drives any [`SchedulingPolicy`] — the baselines in
//! `rsched-schedulers` or the ReAct agent in `rsched-core` — through exactly
//! that loop, validating every proposed action against the live cluster
//! ledger (the constraint-enforcement module of paper §2.4) and reporting
//! structured rejection reasons that the agent renders as natural-language
//! feedback.
//!
//! The public entry point is the [`Simulation`] builder; [`run_simulation`]
//! is a thin compatibility wrapper over it. A run is written down once, in
//! the [`SimOutcome`] it returns (`decisions`, `epochs`, `stats`); timing
//! and counters go to an attached [`TelemetrySink`].
//!
//! The kernel is zero-copy: policies receive a lifetime-parameterized
//! [`SystemView`] that *borrows* the simulator's incrementally-maintained
//! queue/running/completed state (plus the O(1) [`CompletedStats`]
//! aggregate), so a policy query costs nothing in allocation no matter how
//! deep the queue is. "Does anything waiting fit?" is answered by one
//! serial column [`scan`] behind O(1) min-demand watermarks on a flat
//! machine, and by a lookup in an exact per-compatibility index on a
//! classed one.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod events;
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
pub use events::SimEvent;
pub use kernel::KernelState;
pub use outcome::{DecisionRecord, SimOutcome, SimStats};
pub use policy::{Action, ActionOutcome, OverheadReport, RejectReason, SchedulingPolicy};
pub use profile::{
    CalendarPoint, CalendarRef, CalendarStamp, CapacityCalendar, CapacityLedger, HeadReservation,
    ReservationProfile, ReservedStep,
};
pub use queue::WaitQueue;
pub use scan::ScanOutcome;
pub use simulator::{job_is_feasible, run_simulation, validate_workload, SimError, SimOptions};
pub use store::JobStore;
pub use view::{CompletedStats, RunningSummary, SystemView};

// Telemetry vocabulary re-exported so policies and drivers can name the
// provenance/sink types without a direct `rsched-telemetry` dependency.
pub use rsched_telemetry::{DelayReason, EpochOutcome, EpochTrace, TelemetrySink};
