//! Shared by the differential harnesses: the one driver they do not get
//! from the library, and a simulation that keeps its decision log for
//! them to compare.

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::service::FairShareConfig;
use reasoned_scheduler::sim::SimError;

/// [`run_simulation`] with the decision log kept.
pub fn run_logged(
    cluster: ClusterConfig,
    jobs: &[JobSpec],
    policy: &mut dyn SchedulingPolicy,
    options: &SimOptions,
) -> Result<SimOutcome, SimError> {
    Simulation::new(cluster)
        .jobs(jobs)
        .options(*options)
        .record_decisions()
        .run(policy)
}

/// `jobs` through the service core with fair-share ranking on — arrivals
/// reach the queue a tick's batch at a time, at their tenants' usage-decayed
/// ranks — ticked at every submit and completion instant, as
/// `rsched_service::replay` does with ranking off.
pub fn serve_with_fair_share(
    cluster: ClusterConfig,
    jobs: &[JobSpec],
    policy: Box<dyn SchedulingPolicy>,
) -> SimOutcome {
    let config = ServiceConfig {
        max_batch: usize::MAX,
        expected_jobs: Some(jobs.len()),
        admission: AdmissionConfig {
            fair_share: FairShareConfig {
                enabled: true,
                ..FairShareConfig::default()
            },
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::new(cluster)
    };
    let mut arrivals: Vec<&JobSpec> = jobs.iter().collect();
    arrivals.sort_by_key(|j| j.submit);
    let mut arrivals = arrivals.into_iter().peekable();
    let start = arrivals.peek().map_or(SimTime::ZERO, |j| j.submit);
    let (mut core, handle) = ServiceCore::new(config, policy, start);
    let mut reordered = false;
    while core.kernel().completed_len() < jobs.len() {
        let due = [
            arrivals.peek().map(|j| j.submit),
            core.kernel().next_event_time(),
        ];
        let now = due.into_iter().flatten().min().expect("work is pending");
        while let Some(job) = arrivals.next_if(|j| j.submit == now) {
            handle
                .submit(TenantId(job.user.0), job.clone())
                .expect("the core holds the receiver");
        }
        core.tick(now, &mut []).expect("tick");
        let waiting = core.kernel().waiting();
        reordered |= !waiting.iter().is_sorted_by_key(|j| (j.submit, j.id));
    }
    assert!(
        reordered,
        "the ranks never took the queue off arrival order"
    );
    core.into_outcome()
}
