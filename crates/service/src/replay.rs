//! Deterministic trace replay through the service driver.
//!
//! [`replay`] pushes a simulator workload through a [`ServiceCore`] on a
//! [`ManualClock`], ticking at **exactly** the virtual-time simulator's
//! event times (job arrivals and completions) with admission wide open and
//! fair-share off. Under those settings every admitted job lands in the
//! waiting queue at rank 0 — the queue order, the `SystemView` the policy
//! sees, and therefore every decision, record, and statistic are identical
//! to `rsched_sim::run_simulation` on the same inputs. The
//! `service_sim_equivalence` integration test pins this claim across the
//! whole builtin-policy registry.

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_sim::{validate_workload, SchedulingPolicy, SimError, SimOptions, SimOutcome};
use rsched_simkit::SimTime;

use crate::clock::{ManualClock, ServiceClock};
use crate::core::{ServiceConfig, ServiceCore};
use crate::observer::ServiceObserver;
use crate::tenant::TenantId;

/// Replay `jobs` through the service driver and return a simulator-shaped
/// [`SimOutcome`]. Tenant identity is taken from each job's `user` field;
/// admission is permissive (no rate limits, no caps, fair-share off), so
/// the run is bit-equivalent to the virtual-time simulator.
pub fn replay(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: Box<dyn SchedulingPolicy>,
    options: &SimOptions,
    observers: &mut [&mut dyn ServiceObserver],
) -> Result<SimOutcome, SimError> {
    replay_with_telemetry(
        config,
        jobs,
        policy,
        options,
        observers,
        &rsched_telemetry::TelemetrySink::disabled(),
    )
}

/// [`replay`] with a telemetry sink attached to the service core (and
/// through it the decision kernel): spans, metrics, and epoch provenance
/// accumulate in the sink while the outcome stays bit-equivalent to the
/// virtual-time simulator.
pub fn replay_with_telemetry(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: Box<dyn SchedulingPolicy>,
    options: &SimOptions,
    observers: &mut [&mut dyn ServiceObserver],
    telemetry: &rsched_telemetry::TelemetrySink,
) -> Result<SimOutcome, SimError> {
    validate_workload(config, jobs)?;
    let start = jobs.iter().map(|j| j.submit).min().unwrap_or(SimTime::ZERO);

    let service_config = ServiceConfig {
        sim: *options,
        // Ingest each burst whole, keep the trace's own submit stamps, and
        // retain the decision log for the outcome.
        max_batch: usize::MAX,
        restamp_submit: false,
        retain_history: true,
        expected_jobs: Some(jobs.len()),
        ..ServiceConfig::new(config)
    };
    let (mut core, handle) = ServiceCore::new(service_config, policy, start);
    core.set_telemetry(telemetry);

    // Submission order: by submit time, stable within ties — the exact
    // order the simulator's arrival cursor walks.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);
    let mut next_submit = 0usize;

    let clock = ManualClock::starting_at(start);
    while core.kernel().completed_len() < jobs.len() {
        let due_submit = order.get(next_submit).map(|&i| jobs[i].submit);
        let due_event = core.kernel().next_event_time();
        let now = match (due_submit, due_event) {
            (Some(s), Some(e)) => s.min(e),
            (Some(s), None) => s,
            (None, Some(e)) => e,
            (None, None) => {
                return Err(SimError::Stuck {
                    time: clock.now(),
                    waiting: core.kernel().waiting_len(),
                })
            }
        };
        clock.set(now);
        while next_submit < order.len() && jobs[order[next_submit]].submit == now {
            let job = jobs[order[next_submit]].clone();
            let tenant = TenantId(job.user.0);
            handle
                .submit(tenant, job)
                .expect("replay core holds the receiver");
            next_submit += 1;
        }
        core.tick(now, observers)?;
    }
    Ok(core.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_schedulers::Fcfs;
    use rsched_simkit::SimDuration;

    fn job(id: u32, submit_s: u64, dur_s: u64, nodes: u32, mem: u64) -> JobSpec {
        JobSpec::new(
            id,
            id % 3,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(dur_s),
            nodes,
            mem,
        )
    }

    #[test]
    fn replay_matches_direct_simulation() {
        let config = ClusterConfig::new(8, 64);
        let jobs = vec![
            job(1, 0, 100, 2, 8),
            job(2, 0, 50, 4, 16),
            job(3, 30, 10, 8, 32),
            job(4, 120, 5, 1, 4),
        ];
        let options = SimOptions::default();
        let sim =
            rsched_sim::run_simulation(config, &jobs, &mut Fcfs::default(), &options).unwrap();
        let svc = replay(config, &jobs, Box::new(Fcfs::default()), &options, &mut []).unwrap();
        assert_eq!(sim.decisions, svc.decisions);
        assert_eq!(sim.stats, svc.stats);
        assert_eq!(sim.records, svc.records);
        assert_eq!(sim.end_time, svc.end_time);
        assert!((sim.node_seconds - svc.node_seconds).abs() < 1e-12);
        assert!((sim.memory_gb_seconds - svc.memory_gb_seconds).abs() < 1e-12);
    }

    #[test]
    fn replay_of_empty_workload_is_empty() {
        let config = ClusterConfig::new(4, 8);
        let out = replay(
            config,
            &[],
            Box::new(Fcfs::default()),
            &SimOptions::default(),
            &mut [],
        )
        .unwrap();
        assert!(out.records.is_empty());
        assert!(out.decisions.is_empty());
    }
}
