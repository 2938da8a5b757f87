//! # rsched-service
//!
//! The decision kernel as a long-running, multi-tenant scheduler service.
//!
//! Everything below the policy boundary is shared with the virtual-time
//! simulator: both drivers advance the *same* [`rsched_sim::KernelState`]
//! (waiting queue, running set, cluster ledger, decision log) through the
//! same three calls per tick — deliver arrivals, `advance_to(now)`,
//! `run_epoch`. The simulator takes its arrivals from a
//! cursor over a pre-known workload; this crate takes them from a live
//! submission queue on a pluggable [`ServiceClock`]:
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
//!   times in replay mode ([`ServiceConfig::expected_jobs`] `Some`),
//!   bit-equivalent to `rsched_sim::run_simulation`: it stays as the proof
//!   that the front door is a pure re-driving of the kernel, and as the
//!   run `serve --metrics` scrapes the `service_*` families from;
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
pub use ingest::{ServiceStopped, Submission, SubmitHandle};
pub use observer::{CountingServiceObserver, ServiceObserver, TickStats};
pub use replay::replay;
pub use tenant::{FairShare, FairShareConfig, RateLimit, TenantConfig, TenantId};
