//! # rsched-workloads
//!
//! Scenario-driven HPC workload generation (paper §3.1) behind an **open,
//! string-keyed scenario registry** — the workload-side twin of the policy
//! registry in `rsched-registry`.
//!
//! Workloads are addressed by name through [`ScenarioRegistry`]: the
//! paper's seven synthetic scenarios (*Homogeneous Short*, *Heterogeneous
//! Mix*, *Long-Job Dominant*, *High Parallelism*, *Resource Sparse*,
//! *Bursty + Idle*, *Adversarial*), five extended ones (*Diurnal Wave*,
//! *Wide-Job Convoy*, *GPU-Skewed Hetmix*, *Long-Tail Runtime*, *BigMem
//! Burst*), the
//! Polaris trace substrate of paper §5, and — via the `swf:<path>` name
//! form — any [Standard Workload Format](swf) archive trace on disk.
//! Registering a new scenario is one [`ScenarioRegistry::register`] call;
//! no enum variant or `match` arm required.
//!
//! ```
//! use rsched_workloads::{names, scenario_builtins, ArrivalMode, ScenarioContext};
//!
//! // 20 Heterogeneous-Mix jobs with Poisson arrivals, by registry name.
//! let ctx = ScenarioContext::new(20)
//!     .with_mode(ArrivalMode::Dynamic)
//!     .with_seed(42);
//! let workload = scenario_builtins()
//!     .generate(names::HETEROGENEOUS_MIX, &ctx)
//!     .expect("builtin scenario");
//! assert_eq!(workload.len(), 20);
//! assert_eq!(workload.scenario, "heterogeneous_mix");
//!
//! // The registry knows every builtin by name (case-insensitively).
//! assert!(scenario_builtins().contains("Bursty-Idle"));
//! assert_eq!(scenario_builtins().len(), names::ALL_BUILTIN.len());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod arrivals;
pub mod error;
mod factorize;
pub mod polaris;
pub mod registry;
pub mod scenarios;
pub mod swf;
pub mod synth;
pub mod users;

pub use arrivals::ArrivalMode;
pub use error::WorkloadError;
pub use registry::{builtins as scenario_builtins, names, ScenarioContext, ScenarioRegistry};
pub use scenarios::Workload;
