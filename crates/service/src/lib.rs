//! # rsched-service
//!
//! The decision kernel as a long-running, multi-tenant scheduler service.
//!
//! Everything below the policy boundary is shared with the virtual-time
//! simulator: both drivers advance the *same* [`rsched_sim::KernelState`]
//! (waiting queue, running set, cluster ledger, utilization integrals,
//! decision log) through the same `deliver events → observe time → decide`
//! contract. The simulator drives it with a cursor over a pre-known
//! workload; this crate drives it from a live submission queue on a
//! pluggable [`ServiceClock`] — either way arrivals are the driver's to
//! deliver, and the kernel's event heap holds completions only:
//!
//! * [`SubmitHandle`] — cloneable front door for producers: a mutex-guarded
//!   queue the crate owns, which nothing parks on — a submit is lock, push,
//!   return (no wake-up system call), and waits there at most one tick
//!   before the core takes it with the rest of the tick's batch;
//! * [`AdmissionController`] — per-tenant token-bucket rate limits,
//!   queue-depth caps, and typed [`AdmissionError`] rejections;
//! * [`tenant::FairShare`] — usage-decayed tenant priority,
//!   folded into the kernel's ranked waiting queue;
//! * [`ServiceCore`] — the ingest → retire → decide tick loop;
//! * [`ServiceDaemon`] — the core on its own thread, with graceful drain;
//! * [`replay()`] — a trace pushed through the service driver at exact event
//!   times, bit-equivalent to `rsched_sim::run_simulation`;
//! * [`ServiceObserver`] / [`ServiceReport::tick_latency`] — streaming
//!   per-tick telemetry and decision-latency quantiles (a
//!   [`rsched_telemetry::LogHistogram`] summary).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod clock;
pub mod core;
pub mod daemon;
pub mod ingest;
pub mod observer;
pub mod replay;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionError};
pub use clock::{ManualClock, ServiceClock, WallClock};
pub use core::{ServiceConfig, ServiceCore, ServiceReport};
pub use daemon::ServiceDaemon;
pub use ingest::{ServiceRequest, ServiceStopped, Submission, SubmitHandle};
pub use observer::{CountingServiceObserver, ServiceObserver, TickStats};
pub use replay::{replay, replay_with_telemetry};
pub use tenant::{FairShare, FairShareConfig, RateLimit, TenantConfig, TenantId};
