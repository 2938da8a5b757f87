//! # rsched-campaign
//!
//! The **declarative sweep-campaign engine**: a small TOML-subset spec
//! names a grid of policies × scenarios × queue sizes × seeds (both axes
//! resolved through the open registries, so `swf:<path>` traces,
//! `polaris_synth` streams, and third-party registrations work for
//! free), and the engine turns it into a sharded, resumable, analyzed
//! experiment run:
//!
//! * **Spec** ([`CampaignSpec`]) — parsed and validated against the
//!   registries *before any cell runs*; unknown names fail fast.
//! * **Engine** ([`Campaign`]) — cells are content-hashed (grid
//!   coordinates + solver budget + cluster + workspace-version salt) and
//!   executed on the [`rsched_parallel::ThreadPool`]; results persist
//!   under `results/campaigns/<name>/cells/`, so a rerun skips every
//!   already-computed cell and merges deterministically in grid order
//!   regardless of completion order. A [`CampaignObserver`] streams
//!   per-cell progress.
//! * **Analysis** ([`CampaignSummary`]) — per-`(scenario, jobs)` Pareto
//!   fronts over the seed-averaged objective vectors with non-dominated
//!   ranks and hypervolume, written as byte-stable `summary.json` +
//!   `fronts.csv`.
//!
//! ```
//! use rsched_campaign::{Campaign, CampaignSpec, CountingCampaignObserver};
//! use rsched_parallel::ThreadPool;
//!
//! let spec = CampaignSpec::parse(r#"
//! name = "doctest"
//! policies = ["FCFS", "SJF"]
//! scenarios = ["heterogeneous_mix"]
//! jobs = [10]
//! seeds = [1, 2]
//! objectives = ["avg_wait", "node_util"]
//! "#).expect("valid spec");
//!
//! let out = std::env::temp_dir().join("rsched_campaign_doctest");
//! # let _ = std::fs::remove_dir_all(&out);
//! let campaign = Campaign::new(spec).out_root(&out);
//! let pool = ThreadPool::new(2);
//! let mut progress = CountingCampaignObserver::new();
//! let outcome = campaign.run_observed(&pool, &mut progress).expect("runs");
//!
//! assert_eq!(outcome.results.len(), 4); // 2 policies × 2 seeds
//! assert_eq!(progress.ran, 4);
//! let front = &outcome.summary.fronts[0];
//! assert!(!front.front().is_empty(), "somebody is non-dominated");
//!
//! // Rerun: every cell is a cache hit, the summary is byte-identical.
//! let again = campaign.run(&pool).expect("reruns");
//! assert_eq!(again.cached, 4);
//! assert_eq!(again.summary.to_json(), outcome.summary.to_json());
//! # let _ = std::fs::remove_dir_all(&out);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod cell;
pub mod engine;
pub mod error;
pub mod observer;
pub mod spec;
pub mod summary;
pub mod toml;

pub use cell::{canon, CellResult, CellSpec, CACHE_FORMAT};
pub use engine::{run_cell, run_policy, Campaign, CampaignOutcome, PolicyRun};
pub use error::CampaignError;
pub use observer::{
    CampaignObserver, CountingCampaignObserver, NullObserver, ProgressCampaignObserver,
};
pub use spec::CampaignSpec;
pub use summary::{CampaignSummary, GroupFront, PolicyRow};
