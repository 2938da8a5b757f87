//! # reasoned-scheduler
//!
//! A complete Rust implementation of **“Evaluating the Efficacy of
//! LLM-Based Reasoning for Multiobjective HPC Job Scheduling”** (SC 2025):
//! a ReAct-style LLM scheduling agent with persistent scratchpad memory and
//! simulator-side constraint enforcement, evaluated against FCFS, SJF, and
//! an optimization (OR-Tools-class) baseline on seven synthetic workload
//! scenarios and a Polaris-style trace.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace. See the individual crates for details:
//!
//! * [`simkit`] — discrete-event kernel, RNG, distributions, statistics.
//! * [`cluster`] — the HPC machine model (nodes, memory, first-fit).
//! * [`workloads`] — the open scenario registry: the seven paper
//!   scenarios, five extended ones, the Polaris substrate, and SWF trace
//!   ingestion (`swf:<path>`).
//! * [`sim`] — the event-driven scheduling simulator and policy interface.
//! * [`metrics`] — the eight evaluation objectives and normalization.
//! * [`schedulers`] — FCFS, SJF, EASY, Random, OR-Tools baselines.
//! * [`cpsolver`] — the cumulative-resource optimization solver.
//! * [`llm`] — the language-model substrate (simulated personas, scripted
//!   and external-process backends).
//! * [`agent`] — the paper's contribution: the ReAct scheduling agent.
//! * [`registry`] — the open, string-keyed policy registry.
//! * [`parallel`] — the std-only thread pool for experiment sweeps.
//! * [`service`] — the decision kernel as a long-running multi-tenant
//!   scheduler daemon: MPSC ingest, per-tenant admission control,
//!   fair-share ranking, graceful drain, and a replay driver that is
//!   bit-equivalent to the virtual-time simulator.
//! * [`campaign`] — the declarative sweep-campaign engine: TOML grid
//!   specs, content-addressed cell caching, Pareto-front analysis.
//! * [`telemetry`] — structured spans, the shared metrics registry,
//!   per-epoch decision provenance, and the deterministic JSONL /
//!   Prometheus / Chrome-trace exporters.
//! * [`experiments`] — the figure-regeneration harness.
//!
//! ## Quickstart
//!
//! Both axes of a run are resolved **by name** from open registries:
//! workloads from the [`ScenarioRegistry`](workloads::ScenarioRegistry)
//! (builtin scenarios, your own registrations, or `swf:<path>` archive
//! traces), policies from the [`registry`] (builtins plus anything you
//! [`register`](registry::PolicyRegistry::register)). Runs are described
//! with the [`Simulation`](sim::Simulation) builder; the
//! [`SimOutcome`](sim::SimOutcome) it returns is the record of the run —
//! every decision with its verdict, every epoch with its reason:
//!
//! ```
//! use reasoned_scheduler::prelude::*;
//!
//! // 20 Heterogeneous-Mix jobs with Poisson arrivals (paper §3.1), by
//! // scenario name.
//! let cluster = ClusterConfig::paper_default();
//! let workload = scenario_builtins()
//!     .generate("heterogeneous_mix", &ScenarioContext::new(20).with_seed(42))
//!     .expect("builtin scenario");
//!
//! // The simulated Claude 3.7 ReAct agent (paper §3.3), by registry name.
//! let registry = PolicyRegistry::with_builtins();
//! let ctx = PolicyContext::new(&workload.jobs, cluster).with_seed(42);
//! let mut agent = registry.build("Claude-3.7", &ctx).expect("builtin policy");
//!
//! let outcome = Simulation::new(cluster)
//!     .jobs(&workload.jobs)
//!     .run(agent.as_mut())
//!     .expect("workload completes");
//! assert_eq!(outcome.decisions.len(), outcome.stats.queries);
//!
//! let report = MetricsReport::compute(&outcome.records, cluster);
//! assert!(report.makespan_secs > 0.0);
//! println!("{report}");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use rsched_campaign as campaign;
pub use rsched_cluster as cluster;
pub use rsched_core as agent;
pub use rsched_cpsolver as cpsolver;
pub use rsched_experiments as experiments;
pub use rsched_llm as llm;
pub use rsched_metrics as metrics;
pub use rsched_parallel as parallel;
pub use rsched_registry as registry;
pub use rsched_schedulers as schedulers;
pub use rsched_service as service;
pub use rsched_sim as sim;
pub use rsched_simkit as simkit;
pub use rsched_telemetry as telemetry;
pub use rsched_workloads as workloads;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use rsched_campaign::{
        Campaign, CampaignObserver, CampaignSpec, CampaignSummary, CellResult, CellSpec,
        CountingCampaignObserver, ProgressCampaignObserver,
    };
    pub use rsched_cluster::{ClusterConfig, JobId, JobRecord, JobSpec, UserId};
    pub use rsched_core::{CallRecord, LlmSchedulingPolicy};
    pub use rsched_llm::{LanguageModel, SimulatedLlm};
    pub use rsched_metrics::{
        dominates, hypervolume, pareto_front, pareto_ranks, Metric, MetricsReport, ObjectiveSpace,
    };
    pub use rsched_registry::{PolicyContext, PolicyRegistry};
    pub use rsched_schedulers::{
        ConservativeBackfill, EasyBackfill, Fcfs, OrToolsPolicy, RandomPolicy, Sjf,
    };
    pub use rsched_service::{
        AdmissionConfig, AdmissionController, AdmissionError, ManualClock, ServiceClock,
        ServiceConfig, ServiceCore, ServiceDaemon, ServiceObserver, ServiceReport, SubmitHandle,
        TenantConfig, TenantId, WallClock,
    };
    pub use rsched_sim::{
        run_simulation, Action, CompletedStats, DecisionRecord, RunningSummary, SchedulingPolicy,
        SimOptions, SimOutcome, Simulation, SystemView,
    };
    pub use rsched_simkit::{SimDuration, SimTime};
    pub use rsched_telemetry::{
        DelayReason, EpochOutcome, EpochTrace, LogHistogram, MetricsRegistry, MetricsSnapshot,
        TelemetrySink,
    };
    pub use rsched_workloads::{
        scenario_builtins, ArrivalMode, ScenarioContext, ScenarioRegistry, Workload, WorkloadError,
    };
}
