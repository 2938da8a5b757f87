//! # rsched-telemetry — workspace-wide observability
//!
//! One crate, four pieces:
//!
//! - **Span tracing** (`Tracer`, [`SpanRecord`]): nestable spans keyed by
//!   static call-site names, stamped with deterministic [`SimTime`]s and,
//!   optionally, wall-clock durations.
//! - **Metrics registry** ([`MetricsRegistry`]): named counters, gauges, and
//!   HDR-style log-bucketed histograms ([`LogHistogram`]) with a byte-stable
//!   snapshot API ([`MetricsSnapshot`]).
//! - **Decision provenance** ([`EpochTrace`], [`DelayReason`]): per-epoch
//!   records of *why* each scheduling outcome happened — head-shadow vetoes,
//!   watermark short-circuits, reservation blocks, admission rejections.
//! - **Exporters** ([`export`]): deterministic JSONL, Prometheus text
//!   exposition, and Chrome trace-event JSON.
//!
//! Everything hangs off a [`TelemetrySink`]: a cheaply cloneable handle that
//! is either disabled (every call is a single `Option` check — the sim
//! kernel's hot path pays nothing measurable) or backed by a shared
//! [`Telemetry`] hub so sim and service counters share one namespace.
//!
//! [`SimTime`]: rsched_simkit::SimTime

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod export;
pub(crate) mod hist;
pub mod metrics;
pub mod provenance;
pub mod sink;
pub mod span;

pub use hist::{HistSummary, LogHistogram};
pub use metrics::{MetricEntry, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use provenance::{DelayReason, EpochOutcome, EpochTrace};
pub use sink::{SpanGuard, Telemetry, TelemetrySink};
pub use span::SpanRecord;
