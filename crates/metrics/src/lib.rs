//! # rsched-metrics
//!
//! The scheduling objectives of paper §3.2, computed from completed
//! [`JobRecord`](rsched_cluster::JobRecord)s:
//!
//! * **Makespan** — earliest submission to last completion.
//! * **Average wait time** — mean queued time `w_j = x_j − s_j`.
//! * **Average turnaround time** — mean `x_j + d_j − s_j`.
//! * **Throughput** — jobs completed per unit time.
//! * **Node / memory utilization** — `Σ n_j·d_j / (C·makespan)` and
//!   `Σ m_j·d_j / (M·makespan)`.
//! * **Fairness** — Jain's index over per-job waits and per-user mean waits.
//!
//! Plus the paper's presentation machinery: normalization against the FCFS
//! baseline (with the 0/0 omission rule of §3.5), multi-run aggregation for
//! the robustness boxplots (Figure 7), plain-text table rendering, and the
//! [`pareto`] module's multiobjective dominance analysis (Pareto fronts,
//! non-dominated ranks, hypervolume) used by campaign sweeps.
//!
//! ```
//! use rsched_cluster::{ClusterConfig, JobRecord, JobSpec};
//! use rsched_metrics::{Metric, MetricsReport};
//! use rsched_simkit::{SimDuration, SimTime};
//!
//! // Four 2-node jobs started back to back.
//! let config = ClusterConfig::paper_default();
//! let records: Vec<JobRecord> = (0..4)
//!     .map(|i| {
//!         let spec = JobSpec::new(i, 0, SimTime::ZERO, SimDuration::from_secs(120), 2, 4);
//!         JobRecord::new(spec, SimTime::from_secs(30 * i as u64))
//!     })
//!     .collect();
//!
//! let report = MetricsReport::compute(&records, config);
//! assert_eq!(report.makespan_secs, 210.0); // last start (90) + 120
//! for metric in Metric::all() {
//!     assert!(report.get(metric).is_finite());
//! }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aggregate;
pub mod fairness;
pub mod normalize;
pub mod objectives;
pub mod pareto;
pub mod report;
pub mod table;

pub use aggregate::MetricDistributions;
pub use fairness::jain_index;
pub use normalize::{normalize_against, NormalizedReport};
pub use pareto::{dominates, hypervolume, pareto_front, pareto_ranks, ObjectiveSpace};
pub use report::{Metric, MetricsReport};
pub use table::TextTable;
