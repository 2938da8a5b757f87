//! The daemon's front door as work, not seconds: how many waiting jobs the
//! wait queue moves to make room for arrivals when a tick's admissions join
//! it in one merge, against the same submissions admitted one per tick —
//! and how often the core locks the ingest queue to get them.
//!
//! The input is phase (a) of the benchmark's `service_burst` workload at
//! seed 7: 150 000 one-node jobs from three tenants (`id % 3`) — one
//! unlimited, one behind a token bucket, one under a queue cap — with fair
//! share on, whose ranks interleave the tenants, so half of what is admitted
//! lands mid-queue.

use std::cell::Cell;
use std::rc::Rc;

use reasoned_scheduler::prelude::*;
use reasoned_scheduler::service::RateLimit;
use reasoned_scheduler::simkit::rng::{Rng, Xoshiro256PlusPlus};

const SUBMISSIONS: usize = 150_000;

fn jobs() -> Vec<JobSpec> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
    (1..=SUBMISSIONS as u32)
        .map(|id| {
            let secs = rng.gen_range_inclusive(30, 600);
            let walltime = SimDuration::from_secs(secs);
            JobSpec::new(id, id % 3, SimTime::ZERO, walltime, 1, 1)
        })
        .collect()
}

/// The workload's front door: a recording core and the handle to it.
fn front_door(policy: Box<dyn SchedulingPolicy>) -> (ServiceCore, SubmitHandle, TelemetrySink) {
    let mut config = ServiceConfig::new(ClusterConfig::paper_default());
    config.admission.fair_share.enabled = true;
    let (mut core, handle) = ServiceCore::new(config, policy, SimTime::ZERO);
    let share = SUBMISSIONS / 3;
    let rate = RateLimit {
        burst: (share / 10) as u32,
        per_sec: (share / 5) as u32,
    };
    let rate_limited = TenantConfig {
        rate: Some(rate),
        ..TenantConfig::default()
    };
    let queue_capped = TenantConfig {
        max_queued: Some(share / 4),
        ..TenantConfig::default()
    };
    core.admission_mut().set_tenant(TenantId(1), rate_limited);
    core.admission_mut().set_tenant(TenantId(2), queue_capped);
    let sink = TelemetrySink::recording();
    core.set_telemetry(&sink);
    (core, handle, sink)
}

/// FCFS that delays while the gate is shut, so that a core fed one
/// submission per tick decides where a core fed 4096 per tick does.
struct Gated {
    fcfs: Fcfs,
    open: Rc<Cell<bool>>,
}

impl SchedulingPolicy for Gated {
    fn name(&self) -> &str {
        self.fcfs.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if self.open.get() {
            self.fcfs.decide(view)
        } else {
            Action::Delay
        }
    }
}

fn counter(sink: &TelemetrySink, name: &str) -> u64 {
    let count = sink.with(|telemetry| telemetry.metrics.counter(name));
    count
        .flatten()
        .unwrap_or_else(|| panic!("no counter {name}"))
}

/// The kernel harvests its counters when an epoch closes and the machine is
/// full from the first tick on: tick once more, at the first completion.
fn arrival_shifts(core: &mut ServiceCore, sink: &TelemetrySink) -> u64 {
    let first_completion = core.kernel().next_event_time().expect("jobs are running");
    core.tick(first_completion, &mut []).expect("tick");
    counter(sink, "sim_queue_arrival_shifts_total")
}

#[test]
fn a_ticks_admissions_move_each_waiting_job_at_most_once() {
    let jobs = jobs();
    let tick = SimDuration::from_millis(100);

    // As the workload runs it: everything submitted, then ticks 100 ms
    // apart until the channel is empty.
    let (mut batched, handle, batched_sink) = front_door(Box::new(Fcfs::default()));
    for job in &jobs {
        let submitted = handle.submit(TenantId(job.user.0), job.clone());
        submitted.expect("the core holds its receiver");
    }
    let (mut now, mut ticks, mut live) = (SimTime::ZERO, 0u64, 0u64);
    let mut nows = Vec::new();
    while handle.backlog() > 0 {
        // No tick's merge can move more than what waited before it.
        live += batched.kernel().waiting_len() as u64;
        let ingested = batched.tick(now, &mut []).expect("tick").submitted;
        nows.extend(std::iter::repeat_n(now, ingested));
        ticks += 1;
        now += tick;
    }
    assert_eq!(ticks, 37);
    // One lock per tick moved its whole batch, and ids that only rise never
    // leave the ledger's run.
    assert_eq!(counter(&batched_sink, "service_ingest_takes_total"), 37);
    assert_eq!(counter(&batched_sink, "service_admitted_strays_total"), 0);
    assert_eq!(counter(&batched_sink, "service_admitted_total"), 103_437);

    // The twin: the same submissions at the same instants, one per tick —
    // a batch of one each, which is one-by-one insertion — deciding only
    // where the batched core decided.
    let open = Rc::new(Cell::new(false));
    let gated = Gated {
        fcfs: Fcfs::default(),
        open: Rc::clone(&open),
    };
    let (mut single, handle, single_sink) = front_door(Box::new(gated));
    for (at, (job, &now)) in jobs.iter().zip(&nows).enumerate() {
        let submitted = handle.submit(TenantId(job.user.0), job.clone());
        submitted.expect("the core holds its receiver");
        open.set(nows.get(at + 1) != Some(&now));
        single.tick(now, &mut []).expect("tick");
    }

    assert_eq!(batched.kernel().waiting(), single.kernel().waiting());
    let waiting = batched.kernel().waiting_len();
    assert_eq!(waiting + batched.kernel().running_count(), 103_437);

    let merged = arrival_shifts(&mut batched, &batched_sink);
    let one_by_one = arrival_shifts(&mut single, &single_sink);
    assert!(merged <= live && live <= 3_900_000, "{merged} of {live}");
    assert_eq!(merged, 119_202);
    // FCFS starts the head, which `find` answers without the id index.
    let builds = counter(&batched_sink, "sim_queue_slot_index_builds_total");
    assert_eq!(builds, 0);
    assert_eq!(one_by_one, 118_988_835);
}
