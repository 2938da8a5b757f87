//! `service_burst`: the scheduler as a service, three phases per pass on
//! the paper's machine under FCFS.
//!
//! (a) *front door*: a `ServiceCore` with fair share on takes submissions
//!     from three tenants — unlimited, token-bucket limited, queue-capped —
//!     through the channel, and ticks in explicit 100 ms steps until the
//!     channel is empty. This is `submit_per_s`: channel → admission →
//!     ranked insert.
//! (b) a `ServiceDaemon` on a `ManualClock` absorbs a burst from the main
//!     thread while it ticks on its own, then drains.
//! (c) steady state: ticks at each next completion against a queue that
//!     starts 3× as deep as the tick count and ends at its floor.
//!
//! The only workload where ingest, admission, fair share and the
//! cross-thread hand-off run at all. It is a closed loop on virtual time:
//! an open loop on `WallClock` would measure the configured 100 ms sleep,
//! not the program.

use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobSpec};
use rsched_schedulers::Fcfs;
use rsched_service::{
    AdmissionError, ManualClock, RateLimit, ServiceConfig, ServiceCore, ServiceDaemon,
    ServiceObserver, TenantConfig, TenantId,
};
use rsched_sim::SchedulingPolicy;
use rsched_simkit::rng::{Rng, Xoshiro256PlusPlus};
use rsched_simkit::{SimDuration, SimTime};

use crate::check::combine_fnv48;
use crate::harness::{PassClock, PassOutput, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{TimedPolicy, FCFS};

const FRONT_DOOR_SUBMISSIONS: usize = 150_000;
const DAEMON_BURST: usize = 12_000;
const STEADY_TICKS: usize = 2_000;
/// Queue depth phase (c) ends at; it starts `STEADY_TICKS` deeper.
const STEADY_FLOOR: usize = 10_000;

const UNLIMITED: TenantId = TenantId(0);
const RATE_LIMITED: TenantId = TenantId(1);
const QUEUE_CAPPED: TenantId = TenantId(2);

pub struct ServiceBurst {
    /// One 1-node job per front-door submission, durations drawn from the
    /// seed; the other phases take prefixes of the same list.
    jobs: Vec<JobSpec>,
    daemon_burst: usize,
    steady_ticks: usize,
    steady_floor: usize,
}

impl ServiceBurst {
    pub fn new(seed: u64, scale: usize) -> Self {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let jobs = (0..FRONT_DOOR_SUBMISSIONS / scale)
            .map(|i| {
                let id = i as u32 + 1;
                let secs = rng.gen_range_inclusive(30, 600);
                JobSpec::new(
                    id,
                    id % 3,
                    SimTime::ZERO,
                    SimDuration::from_secs(secs),
                    1,
                    1,
                )
            })
            .collect();
        ServiceBurst {
            jobs,
            daemon_burst: DAEMON_BURST / scale,
            steady_ticks: STEADY_TICKS / scale,
            steady_floor: STEADY_FLOOR / scale,
        }
    }

    fn policy(traced: bool) -> Box<dyn SchedulingPolicy> {
        let policy: Box<dyn SchedulingPolicy> = Box::new(Fcfs::default());
        if traced {
            Box::new(TimedPolicy::new(policy, &FCFS))
        } else {
            policy
        }
    }

    fn front_door(&self, clock: &mut PassClock, traced: bool, out: &mut PassOutput) -> u64 {
        let mut config = ServiceConfig::new(ClusterConfig::paper_default());
        config.admission.fair_share.enabled = true;
        let (mut core, handle) = ServiceCore::new(config, Self::policy(traced), SimTime::ZERO);
        let share = self.jobs.len() / 3;
        core.admission_mut().set_tenant(
            RATE_LIMITED,
            TenantConfig {
                rate: Some(RateLimit {
                    burst: (share / 10).max(1) as u32,
                    per_sec: (share / 5).max(1) as u32,
                }),
                ..TenantConfig::default()
            },
        );
        core.admission_mut().set_tenant(
            QUEUE_CAPPED,
            TenantConfig {
                max_queued: Some((share / 4).max(1)),
                ..TenantConfig::default()
            },
        );

        let mut reasons = RejectionCounter::default();
        let (mut admitted, mut rejected, mut ingested, mut ticks) = (0usize, 0usize, 0usize, 0u64);
        let started = Instant::now();
        let verdict = clock.region(|| {
            {
                let _span = trace::span("service.submit", Layer::Service);
                for job in &self.jobs {
                    handle
                        .submit(TenantId(job.user.0), job.clone())
                        .map_err(|_| "the core dropped its receiver".to_string())?;
                }
            }
            let mut now = SimTime::ZERO;
            while handle.backlog() > 0 {
                let _span = trace::span("service.ingest_tick", Layer::Service);
                let stats = if traced {
                    core.tick(now, &mut [&mut reasons])
                } else {
                    core.tick(now, &mut [])
                }
                .map_err(|e| e.to_string())?;
                admitted += stats.admitted;
                rejected += stats.rejected;
                ingested += stats.submitted;
                ticks += 1;
                now += config.tick;
            }
            Ok::<_, String>(())
        });
        out.front_door_s = Some(started.elapsed().as_secs_f64());
        out.submitted += self.jobs.len() as u64;
        out.attempted += self.jobs.len() as u64;
        if let Err(e) = verdict {
            out.fail(self.jobs.len() as u64, format!("front door: {e}"));
        }
        if ingested != self.jobs.len() || admitted + rejected != ingested {
            out.fail(
                (self.jobs.len() - ingested.min(self.jobs.len())) as u64,
                format!(
                    "front door: {} submitted, {ingested} ingested, {admitted} admitted + {rejected} rejected",
                    self.jobs.len()
                ),
            );
        }
        if core.kernel().waiting_len() + core.kernel().running_count() != admitted {
            out.fail(
                1,
                "front door: admitted jobs are neither waiting nor running".to_string(),
            );
        }
        out.exact.insert("service.admitted", admitted as f64);
        if traced {
            if reasons.rate_limited + reasons.queue_full != rejected as u64 {
                out.fail(
                    1,
                    "front door: rejections by reason do not add up".to_string(),
                );
            }
            out.exact
                .insert("service.rejected_rate_limited", reasons.rate_limited as f64);
            out.exact
                .insert("service.rejected_queue_cap", reasons.queue_full as f64);
        }
        out.fingerprint = combine_fnv48(out.fingerprint, (admitted as u64) << 24 | rejected as u64);
        ticks
    }

    fn daemon_burst(&self, clock: &mut PassClock, out: &mut PassOutput) {
        let burst = &self.jobs[..self.daemon_burst];
        let config = ServiceConfig::new(ClusterConfig::paper_default());
        let report = clock.region(|| {
            // The daemon thread is the program's own and runs beside this
            // one: its policy stays bare, its time is the drain's.
            let daemon = ServiceDaemon::spawn(config, ManualClock::new(), || Self::policy(false));
            let handle = daemon.handle();
            {
                let _span = trace::span("service.submit", Layer::Service);
                for job in burst {
                    handle
                        .submit(TenantId(job.user.0), job.clone())
                        .map_err(|_| "the daemon stopped early".to_string())?;
                }
            }
            let _span = trace::span("service.drain", Layer::Service);
            daemon.drain().map_err(|e| e.to_string())
        });
        out.attempted += burst.len() as u64;
        match report {
            Err(e) => out.fail(burst.len() as u64, format!("daemon: {e}")),
            Ok(report) => {
                if report.completed != report.admitted || report.admitted != burst.len() {
                    out.fail(
                        (burst.len() - report.completed.min(burst.len())) as u64,
                        format!(
                            "daemon: {} submitted, {} admitted, {} completed",
                            burst.len(),
                            report.admitted,
                            report.completed
                        ),
                    );
                }
                if report.dropped_requests != 0 {
                    out.fail(
                        report.dropped_requests as u64,
                        format!("daemon: {} requests dropped", report.dropped_requests),
                    );
                }
                out.exact
                    .insert("service.completed", report.completed as f64);
                out.exact
                    .insert("service.dropped_requests", report.dropped_requests as f64);
            }
        }
    }

    /// A core in decision steady state: every node busy with a staggered
    /// long-runner and a deep queue behind them, so that each tick at the
    /// next completion retires one job and places one.
    fn steady_state(&self, clock: &mut PassClock, traced: bool, out: &mut PassOutput) -> u64 {
        let mut config = ServiceConfig::new(ClusterConfig::paper_default());
        config.max_batch = usize::MAX;
        let nodes = config.cluster.nodes as usize;
        let depth = self.steady_floor + self.steady_ticks;
        let (mut core, handle) = ServiceCore::new(config, Self::policy(traced), SimTime::ZERO);
        for (i, job) in self.jobs.iter().take(nodes + depth).enumerate() {
            let mut job = job.clone();
            // Completions one second apart from one hour in; queued jobs
            // outlast the phase.
            job.duration = SimDuration::from_secs(if i < nodes { 3_600 + i as u64 } else { 7_200 });
            job.walltime = job.duration;
            if handle.submit(UNLIMITED, job).is_err() {
                out.fail(1, "steady state: the core dropped its receiver".to_string());
                return 0;
            }
        }
        // Priming is construction: the decisions about an empty machine
        // are not the steady state this phase measures.
        trace::pause_while(|| core.tick(SimTime::ZERO, &mut []))
            .unwrap_or_else(|e| panic!("steady state priming tick: {e}"));
        let primed = core.kernel().running_count() == nodes.min(self.jobs.len())
            && core.kernel().waiting_len() == depth.min(self.jobs.len().saturating_sub(nodes));
        if !primed {
            out.fail(
                1,
                "steady state: the machine is not saturated after priming".to_string(),
            );
        }

        let mut completions = 0usize;
        let verdict = clock.region(|| {
            for _ in 0..self.steady_ticks {
                let Some(at) = core.kernel().next_event_time() else {
                    return Err("no next completion in steady state".to_string());
                };
                let _span = trace::span("service.tick", Layer::Service);
                completions += core
                    .tick(at, &mut [])
                    .map_err(|e| e.to_string())?
                    .completions;
            }
            Ok(())
        });
        out.attempted += self.steady_ticks as u64;
        if let Err(e) = verdict {
            out.fail(self.steady_ticks as u64, format!("steady state: {e}"));
        }
        if completions != self.steady_ticks {
            out.fail(
                1,
                format!(
                    "steady state: {completions} completions in {} ticks",
                    self.steady_ticks
                ),
            );
        }
        out.exact
            .insert("service.tick_samples", self.steady_ticks as f64);
        out.fingerprint = combine_fnv48(out.fingerprint, core.kernel().waiting_len() as u64);
        self.steady_ticks as u64
    }
}

impl Workload for ServiceBurst {
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let front_ticks = self.front_door(clock, traced, &mut out);
        self.daemon_burst(clock, &mut out);
        let steady_ticks = self.steady_state(clock, traced, &mut out);
        // The daemon's own tick count depends on how its thread interleaves
        // with the submitting one, so it is in no exact count.
        out.exact
            .insert("service.ticks", (front_ticks + steady_ticks) as f64);
        out
    }
}

#[derive(Default)]
struct RejectionCounter {
    rate_limited: u64,
    queue_full: u64,
}

impl ServiceObserver for RejectionCounter {
    fn on_reject(&mut self, _: TenantId, _: &JobSpec, reason: &AdmissionError, _: SimTime) {
        match reason {
            AdmissionError::RateLimited { .. } => self.rate_limited += 1,
            AdmissionError::QueueFull { .. } => self.queue_full += 1,
            _ => {}
        }
    }
}
