//! Deterministic trace replay through the service driver.
//!
//! [`replay`] pushes a simulator workload through a [`ServiceCore`] on a
//! [`ManualClock`], ticking at **exactly** the virtual-time simulator's
//! event times (job arrivals and completions) with admission wide open and
//! fair-share off. The core runs in replay mode
//! ([`expected_jobs`](ServiceConfig::expected_jobs) `Some`), which shows
//! the policy the simulator's pending and total job counts and keeps the
//! kernel's logs for the outcome. Every job is ticked in at its own
//! `submit`, so the core's restamp leaves it unchanged, and every admitted
//! job lands in the waiting queue at rank 0: the queue order, the
//! `SystemView` the policy sees, and therefore every decision, record, and
//! statistic are identical to `rsched_sim::run_simulation` on the same
//! inputs. The `service_sim_equivalence` integration test pins this claim
//! across the whole builtin-policy registry.
//!
//! Replay and `run_simulation` are two arrival sources over the kernel's
//! one step, and replay stays for what only it shows: that the front door
//! (ingest queue, admission, batch merge) is a pure re-driving of the
//! kernel, and — with a recording sink — the `service_*` metric families
//! that `serve --metrics` exposes.

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_sim::{validate_workload, SchedulingPolicy, SimError, SimOptions, SimOutcome};
use rsched_simkit::SimTime;
use rsched_telemetry::TelemetrySink;

use crate::clock::{ManualClock, ServiceClock};
use crate::core::{ServiceConfig, ServiceCore};
use crate::observer::ServiceObserver;
use crate::tenant::TenantId;

/// Replay `jobs` through the service driver and return a simulator-shaped
/// [`SimOutcome`]. Tenant identity is taken from each job's `user` field;
/// admission is permissive (no rate limits, no caps, fair-share off), so
/// the run is bit-equivalent to the virtual-time simulator. `telemetry` is
/// attached to the service core (and through it the decision kernel):
/// spans, metrics, and epoch provenance accumulate in it while the outcome
/// stays the same; pass [`TelemetrySink::disabled`] for none.
pub fn replay(
    config: ClusterConfig,
    jobs: &[JobSpec],
    policy: Box<dyn SchedulingPolicy>,
    options: &SimOptions,
    observers: &mut [&mut dyn ServiceObserver],
    telemetry: &TelemetrySink,
) -> Result<SimOutcome, SimError> {
    validate_workload(config, jobs)?;
    let start = jobs.iter().map(|j| j.submit).min().unwrap_or(SimTime::ZERO);

    let service_config = ServiceConfig {
        sim: *options,
        // Ingest each burst whole; replay mode keeps the logs.
        max_batch: usize::MAX,
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
        let sim = rsched_sim::Simulation::new(config)
            .jobs(&jobs)
            .options(options)
            .record_decisions()
            .run(&mut Fcfs::default())
            .unwrap();
        let svc = replay(
            config,
            &jobs,
            Box::new(Fcfs::default()),
            &options,
            &mut [],
            &TelemetrySink::disabled(),
        )
        .unwrap();
        assert_eq!(sim.decisions.len(), sim.stats.queries);
        assert_eq!(sim.decisions, svc.decisions);
        assert_eq!(sim.stats, svc.stats);
        assert_eq!(sim.records, svc.records);
        assert_eq!(sim.end_time, svc.end_time);
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
            &TelemetrySink::disabled(),
        )
        .unwrap();
        assert!(out.records.is_empty());
        assert!(out.decisions.is_empty());
    }
}
