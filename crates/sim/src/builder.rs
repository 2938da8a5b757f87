//! The [`Simulation`] builder — the public entry point for running a
//! policy through the validated decision loop.
//!
//! ```
//! use rsched_cluster::{ClusterConfig, JobSpec};
//! use rsched_sim::{Simulation, SchedulingPolicy, SystemView, Action};
//! use rsched_simkit::{SimDuration, SimTime};
//!
//! struct Greedy;
//! impl SchedulingPolicy for Greedy {
//!     fn name(&self) -> &str { "greedy" }
//!     fn decide(&mut self, view: &SystemView<'_>) -> Action {
//!         if view.all_jobs_started() { return Action::Stop; }
//!         match view.eligible_now().next() {
//!             Some(j) => Action::StartJob(j.id),
//!             None => Action::Delay,
//!         }
//!     }
//! }
//!
//! let jobs = vec![JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(60), 2, 8)];
//! let outcome = Simulation::new(ClusterConfig::new(8, 64))
//!     .jobs(&jobs)
//!     .run(&mut Greedy)
//!     .expect("completes");
//! assert_eq!(outcome.records.len(), 1);
//! assert_eq!(outcome.decisions.len(), outcome.stats.queries);
//! ```

use rsched_cluster::{ClusterConfig, JobSpec};

use crate::outcome::SimOutcome;
use crate::policy::SchedulingPolicy;
use crate::simulator::{SimError, SimOptions};

/// Builder for one simulation run: cluster, workload, knobs, and an
/// optional telemetry sink.
///
/// [`run_simulation`](crate::run_simulation) remains as a thin wrapper for
/// callers that need none of the builder's extras.
pub struct Simulation<'a> {
    config: ClusterConfig,
    jobs: &'a [JobSpec],
    /// `None` until [`options`](Self::options) is called: `run` then uses
    /// the defaults with the query budget sized to the workload.
    options: Option<SimOptions>,
    telemetry: rsched_telemetry::TelemetrySink,
}

impl<'a> Simulation<'a> {
    /// Start describing a run on a cluster of the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Simulation {
            config,
            jobs: &[],
            options: None,
            telemetry: rsched_telemetry::TelemetrySink::disabled(),
        }
    }

    /// The workload to schedule (borrowed; nothing is cloned).
    pub fn jobs(mut self, jobs: &'a [JobSpec]) -> Self {
        self.jobs = jobs;
        self
    }

    /// Override the simulator knobs; they are honoured verbatim. Without
    /// this call the run uses [`SimOptions::default`], except that the
    /// livelock budget [`max_queries`](SimOptions::max_queries) grows with
    /// the workload (`max(1_000_000, 16 × jobs)`) so that a trace-scale
    /// replay does not exhaust a budget meant to catch a stuck policy.
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Attach a telemetry sink (a cheap clone of the caller's handle). The
    /// kernel spans its epochs and mirrors its counters into the sink's
    /// metrics registry; policies see the same sink through
    /// [`SystemView::sink`](crate::SystemView::sink). The default is a
    /// disabled sink, which costs one pointer check per call site.
    pub fn telemetry(mut self, sink: &rsched_telemetry::TelemetrySink) -> Self {
        self.telemetry = sink.clone();
        self
    }

    /// Drive `policy` over the configured workload until every job
    /// completes (or the run fails).
    pub fn run(self, policy: &mut dyn SchedulingPolicy) -> Result<SimOutcome, SimError> {
        let options = self.options.unwrap_or_else(|| SimOptions {
            max_queries: query_budget_for(self.jobs.len()),
            ..SimOptions::default()
        });
        crate::simulator::simulate_with_telemetry(
            self.config,
            self.jobs,
            policy,
            &options,
            self.telemetry,
        )
    }
}

/// The query budget of a run that set no options: the default, or 16
/// queries per job once that is larger. A healthy policy spends one
/// placement query per job plus a bounded number of retries and epilogue
/// queries, so 16× leaves the budget what it is for — catching livelock.
fn query_budget_for(jobs: usize) -> usize {
    jobs.saturating_mul(16)
        .max(SimOptions::default().max_queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Action;
    use crate::view::SystemView;
    use rsched_simkit::{SimDuration, SimTime};

    struct Greedy;
    impl SchedulingPolicy for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn decide(&mut self, view: &SystemView<'_>) -> Action {
            if view.all_jobs_started() {
                return Action::Stop;
            }
            match view.eligible_now().next() {
                Some(j) => Action::StartJob(j.id),
                None => Action::Delay,
            }
        }
    }

    fn jobs() -> Vec<JobSpec> {
        (0..4)
            .map(|i| {
                JobSpec::new(
                    i,
                    i % 2,
                    SimTime::from_secs(u64::from(i) * 5),
                    SimDuration::from_secs(30),
                    2,
                    8,
                )
            })
            .collect()
    }

    #[test]
    fn builder_matches_bare_run_simulation() {
        let jobs = jobs();
        let config = ClusterConfig::new(8, 64);
        let a = Simulation::new(config)
            .jobs(&jobs)
            .run(&mut Greedy)
            .expect("builder run completes");
        let b = crate::run_simulation(config, &jobs, &mut Greedy, &SimOptions::default())
            .expect("wrapper run completes");
        assert_eq!(a.records, b.records);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn unset_options_size_the_query_budget_from_the_workload() {
        let floor = SimOptions::default().max_queries;
        assert_eq!(query_budget_for(0), floor);
        assert_eq!(query_budget_for(floor / 16), floor);
        assert_eq!(query_budget_for(1_000_000), 16_000_000);
        assert_eq!(query_budget_for(usize::MAX), usize::MAX);
    }

    #[test]
    fn explicit_query_budget_is_honoured_verbatim() {
        // Four jobs need four placement queries; a budget of 3 must trip
        // rather than be widened by the derivation.
        let jobs = jobs();
        let err = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(&jobs)
            .options(SimOptions {
                max_queries: 3,
                ..SimOptions::default()
            })
            .run(&mut Greedy)
            .unwrap_err();
        assert_eq!(err, SimError::QueryBudgetExhausted { limit: 3 });
    }

    #[test]
    fn the_outcome_is_the_record_of_the_run() {
        let jobs = jobs();
        let outcome = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(&jobs)
            .run(&mut Greedy)
            .expect("completes");
        assert_eq!(outcome.decisions.len(), outcome.stats.queries);
        let placed = outcome
            .decisions
            .iter()
            .filter(|d| d.accepted() && d.action.is_placement());
        assert_eq!(placed.count(), outcome.stats.placements);
        assert!(outcome.decisions.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn a_run_that_fails_validation_returns_no_outcome() {
        // Duplicate ids fail validation before the loop starts.
        let mut dup = jobs();
        dup.push(dup[0].clone());
        let err = Simulation::new(ClusterConfig::new(8, 64))
            .jobs(&dup)
            .run(&mut Greedy);
        assert_eq!(err.unwrap_err(), SimError::DuplicateJobId(dup[0].id));
    }
}
