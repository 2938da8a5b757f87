//! The service core: the decision kernel wrapped in an ingest-admit-tick
//! loop.
//!
//! [`ServiceCore`] is the single-threaded heart of the daemon. Each
//! [`tick`](ServiceCore::tick) at service time `now`:
//!
//! 1. **ingests**: takes up to [`max_batch`](ServiceConfig::max_batch)
//!    submissions out of the ingest queue under one lock and rules on each
//!    in queue order — the admitted get a fair-share rank and a line in
//!    the ledger of admitted ids, the rest bounce with typed
//!    [`AdmissionError`]s — then hands the admitted jobs to the kernel's
//!    waiting queue in one merge ([`KernelState::arrive_batch`]): nothing
//!    reads the queue between two submissions of a tick, so a burst that
//!    lands mid-queue moves each waiting job once, not once per arrival;
//! 2. **retires** every completion event scheduled at or before `now`, at
//!    its exact event time (the cluster ledger audits this);
//! 3. runs **one decision epoch** — the same
//!    [`KernelState::run_epoch`] the virtual-time simulator uses — and
//!    streams the new decisions to the [`ServiceObserver`]s.
//!
//! With a recording sink each step's share of the tick is observed beside
//! `service_tick_nanos` (`service_ingest_nanos`, `service_retire_nanos`,
//! `service_epoch_nanos`), the jobs admitted as `service_ingest_batch`, and
//! the door's own work as counts: `service_ingest_takes_total` (takes that
//! moved requests), `service_admitted_strays_total` (ids admitted below an
//! earlier one) and the gauge `service_ingest_backlog` (requests the take
//! left queued — how much of a burst the door is still absorbing).
//!
//! Drive it with [`run`](ServiceCore::run) and a [`ServiceClock`] for a
//! long-running daemon, or call `tick` directly at chosen instants for
//! deterministic replays (`crate::replay`).

use std::collections::BTreeMap;
use std::time::Instant;

use rsched_cluster::{ClusterConfig, JobId, JobSpec};
use rsched_sim::kernel::KernelState;
use rsched_sim::{
    job_is_feasible, Action, SchedulingPolicy, SimError, SimEvent, SimOptions, SimOutcome, SimStats,
};
use rsched_simkit::{SimDuration, SimTime};
use rsched_telemetry::{HistSummary, LogHistogram, TelemetrySink};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionError};
use crate::clock::ServiceClock;
use crate::ingest::{
    ingest_queue, IngestReceiver, ServiceRequest, Submission, SubmitHandle, Taken,
};
use crate::observer::{ServiceObserver, TickStats};
use crate::tenant::TenantId;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The machine being scheduled.
    pub cluster: ClusterConfig,
    /// Tick interval: the bound on how long an ingested submission waits
    /// for its first decision epoch.
    pub tick: SimDuration,
    /// Maximum submissions ingested per tick. A saturated tick is
    /// followed by an immediate re-tick instead of a sleep, so a backlog
    /// drains at full speed while each epoch stays bounded.
    pub max_batch: usize,
    /// Kernel options. The default raises
    /// [`max_queries`](SimOptions::max_queries) to effectively unlimited —
    /// a daemon serves queries forever.
    pub sim: SimOptions,
    /// Admission control and fair-share settings.
    pub admission: AdmissionConfig,
    /// Overwrite each admitted job's `submit` with its admission time.
    /// Live daemons keep this `true` so client-supplied timestamps cannot
    /// reorder the queue or corrupt wait metrics; deterministic replays
    /// set it `false` to preserve the trace's own submit times.
    pub restamp_submit: bool,
    /// Keep the full decision log inside the kernel (for
    /// [`ServiceCore::into_outcome`]). Live daemons leave this `false` so
    /// the log is drained every tick and memory stays bounded.
    pub retain_history: bool,
    /// Replay mode: the exact number of jobs that will be submitted. With
    /// `Some(n)`, the policy sees the same `pending_arrivals`/`total_jobs`
    /// the simulator would show, enabling its final `Stop`; with `None`
    /// (live mode), arrivals are open-ended and `Stop` is only offered
    /// once the service is draining.
    pub expected_jobs: Option<usize>,
}

impl ServiceConfig {
    /// Defaults for a live daemon on the given machine: 100 ms ticks,
    /// 4096-request batches, permissive admission, unbounded queries.
    pub fn new(cluster: ClusterConfig) -> Self {
        ServiceConfig {
            cluster,
            tick: SimDuration::from_millis(100),
            max_batch: 4096,
            sim: SimOptions {
                max_queries: usize::MAX,
                ..SimOptions::default()
            },
            admission: AdmissionConfig::default(),
            restamp_submit: true,
            retain_history: false,
            expected_jobs: None,
        }
    }
}

/// Final accounting for a service run, delivered on drain.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Submissions ingested from the queue (admitted + rejected).
    pub submitted: usize,
    /// Submissions admitted to the waiting queue.
    pub admitted: usize,
    /// Submissions rejected with a typed [`AdmissionError`].
    pub rejected: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Requests left unread in the queue at shutdown (0 for a clean
    /// drain).
    pub dropped_requests: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Service time at shutdown.
    pub end_time: SimTime,
    /// Kernel counters (queries, placements, backfills, …).
    pub stats: SimStats,
    /// Wall-clock decision-tick latency aggregates, in nanoseconds.
    pub tick_latency: HistSummary,
}

/// Every id ever admitted, with its admitting tenant: duplicate detection
/// (mirroring the simulator's workload validation) and "whose slot does
/// this placement free?" from one structure.
#[derive(Default)]
struct AdmittedLedger {
    /// Strictly ascending in id and append-only: ids mostly arrive
    /// ascending, so an id above the last is absent without a search.
    run: Vec<(JobId, TenantId)>,
    /// Ids admitted below the run's last: a tenant counting down costs a
    /// tree insert per job and never shifts the run.
    strays: BTreeMap<JobId, TenantId>,
}

impl AdmittedLedger {
    fn tenant_of(&self, id: JobId) -> Option<TenantId> {
        match self.run.last() {
            Some(&(last, _)) if id <= last => match self.run.binary_search_by_key(&id, |e| e.0) {
                Ok(at) => Some(self.run[at].1),
                Err(_) => self.strays.get(&id).copied(),
            },
            _ => None,
        }
    }

    /// Record an id that [`tenant_of`](Self::tenant_of) does not know.
    fn admit(&mut self, id: JobId, tenant: TenantId) {
        match self.run.last() {
            Some(&(last, _)) if id < last => {
                self.strays.insert(id, tenant);
            }
            _ => self.run.push((id, tenant)),
        }
    }
}

/// The single-threaded scheduler service around one [`KernelState`].
pub struct ServiceCore {
    config: ServiceConfig,
    kernel: KernelState,
    admission: AdmissionController,
    policy: Box<dyn SchedulingPolicy>,
    rx: IngestReceiver,
    /// This tick's requests as taken from the queue; empty between ticks,
    /// its allocation kept.
    batch: Vec<ServiceRequest>,
    /// Takes that moved at least one request.
    takes: u64,
    ledger: AdmittedLedger,
    /// The jobs this tick's ingest has admitted so far, each with its
    /// rank: handed to the kernel when the ingest loop ends, so empty
    /// between ticks.
    arrivals: Vec<(JobSpec, u64)>,
    draining: bool,
    /// Whether the last take emptied the queue (vs. stopping at the batch
    /// cap).
    queue_drained: bool,
    /// Completed records already streamed to observers.
    completed_streamed: usize,
    submitted: usize,
    admitted: usize,
    rejected: usize,
    ticks: u64,
    latency: LogHistogram,
    last_now: SimTime,
    /// Shared telemetry sink; disabled by default (one pointer check per
    /// call site). [`set_telemetry`](ServiceCore::set_telemetry) installs a
    /// recording sink into both the service and its kernel.
    telemetry: TelemetrySink,
}

impl ServiceCore {
    /// A core plus the [`SubmitHandle`] clients use to reach it.
    pub fn new(
        config: ServiceConfig,
        policy: Box<dyn SchedulingPolicy>,
        start: SimTime,
    ) -> (Self, SubmitHandle) {
        let (handle, rx) = ingest_queue();
        (Self::with_receiver(config, policy, rx, start), handle)
    }

    /// A core over an existing ingest receiver (the daemon constructs the
    /// queue on the caller side and the core on its own thread).
    pub(crate) fn with_receiver(
        config: ServiceConfig,
        policy: Box<dyn SchedulingPolicy>,
        rx: IngestReceiver,
        start: SimTime,
    ) -> Self {
        ServiceCore {
            kernel: KernelState::new(config.cluster, start),
            admission: AdmissionController::new(config.admission),
            policy,
            rx,
            batch: Vec::new(),
            takes: 0,
            ledger: AdmittedLedger::default(),
            arrivals: Vec::new(),
            draining: false,
            queue_drained: true,
            completed_streamed: 0,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            ticks: 0,
            latency: LogHistogram::new(),
            last_now: start,
            telemetry: TelemetrySink::disabled(),
            config,
        }
    }

    /// Attach a telemetry sink (a cheap clone of the caller's handle) to
    /// both the service loop and the decision kernel, so tick latency,
    /// admission counters, and the kernel's epoch/placement families all
    /// land in one shared metrics namespace.
    pub fn set_telemetry(&mut self, sink: &TelemetrySink) {
        self.telemetry = sink.clone();
        self.kernel.set_telemetry(sink.clone());
    }

    /// The attached telemetry sink (disabled unless
    /// [`set_telemetry`](ServiceCore::set_telemetry) was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The kernel (read-only), for inspection and tests.
    pub fn kernel(&self) -> &KernelState {
        &self.kernel
    }

    /// The admission controller, e.g. to install tenant profiles before
    /// (or between) ticks.
    pub fn admission_mut(&mut self) -> &mut AdmissionController {
        &mut self.admission
    }

    /// `true` once a drain request has been seen (or every producer hung
    /// up).
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// `true` when the service has drained completely: no ingestable
    /// requests, nothing waiting, nothing running.
    pub fn finished(&self) -> bool {
        self.draining
            && self.queue_drained
            && self.rx.len() == 0
            && self.kernel.waiting_len() == 0
            && self.kernel.running_count() == 0
            && self.kernel.events_is_empty()
    }

    fn pending_hint(&self) -> usize {
        match self.config.expected_jobs {
            // Replay mode: exactly the simulator's pending-arrival count.
            Some(total) => total.saturating_sub(self.admitted),
            // Live mode: arrivals are open-ended until the drain finishes
            // emptying the queue; the nonzero sentinel keeps policies
            // from issuing their final `Stop` prematurely.
            None => {
                if self.draining && self.queue_drained && self.rx.len() == 0 {
                    0
                } else {
                    1
                }
            }
        }
    }

    fn total_jobs_hint(&self) -> usize {
        self.config.expected_jobs.unwrap_or(self.admitted)
    }

    fn handle_submission(
        &mut self,
        sub: Submission,
        now: SimTime,
        observers: &mut [&mut dyn ServiceObserver],
    ) -> bool {
        let Submission { tenant, mut job } = sub;
        let verdict = if self.draining {
            Err(AdmissionError::Draining)
        } else if self.ledger.tenant_of(job.id).is_some() {
            Err(AdmissionError::DuplicateId(job.id))
        } else if !job_is_feasible(self.config.cluster, &job) {
            Err(AdmissionError::Infeasible {
                id: job.id,
                nodes: job.nodes,
                memory_gb: job.memory_gb,
            })
        } else {
            self.admission.admit(tenant, &job, now)
        };
        match verdict {
            Ok(rank) => {
                if self.config.restamp_submit {
                    job.submit = now;
                }
                self.ledger.admit(job.id, tenant);
                for observer in observers.iter_mut() {
                    observer.on_admit(tenant, &job, now);
                }
                self.arrivals.push((job, rank));
                self.admitted += 1;
                true
            }
            Err(reason) => {
                for observer in observers.iter_mut() {
                    observer.on_reject(tenant, &job, &reason, now);
                }
                self.telemetry.count(reason.counter_name(), 1);
                self.rejected += 1;
                false
            }
        }
    }

    /// One service tick at time `now` (which must not move backwards).
    /// Returns the tick's aggregates; errors are kernel-level
    /// ([`SimError::QueryBudgetExhausted`] under a bounded query budget).
    pub fn tick(
        &mut self,
        now: SimTime,
        observers: &mut [&mut dyn ServiceObserver],
    ) -> Result<TickStats, SimError> {
        let wall_start = Instant::now();
        // Where each step ended, in nanoseconds into the tick: read only
        // when the sink records.
        let recording = self.telemetry.is_enabled();
        let lap = || {
            if recording {
                wall_start.elapsed().as_nanos() as u64
            } else {
                0
            }
        };
        let now = now.max(self.last_now);
        let _tick_span = self.telemetry.span("service.tick", now);
        self.ticks += 1;

        // 1. Take a bounded batch from the queue and rule on it in order.
        let mut batch = std::mem::take(&mut self.batch);
        let taken = self.rx.take(self.config.max_batch, &mut batch);
        self.takes += u64::from(!batch.is_empty());
        let mut ingested = 0usize;
        let mut tick_admitted = 0usize;
        for request in batch.drain(..) {
            match request {
                ServiceRequest::Submit(sub) => {
                    ingested += 1;
                    tick_admitted += usize::from(self.handle_submission(sub, now, observers));
                }
                ServiceRequest::Drain => self.draining = true,
            }
        }
        self.batch = batch;
        let tick_rejected = ingested - tick_admitted;
        // Every producer hung up: nothing can ever arrive, so finish what
        // we have and shut down.
        self.draining |= taken == Taken::Disconnected;
        self.queue_drained = taken != Taken::More;
        self.submitted += ingested;
        // The admitted jobs join the wait queue in one merge: nothing has
        // read the queue since the first of them was ruled on.
        self.kernel.arrive_batch(&mut self.arrivals);
        self.arrivals.clear();
        let ingested_at = lap();

        // 2. Retire completions at their exact event times (the cluster
        // ledger audits end-time exactness).
        let mut completions = 0usize;
        while let Some(t) = self.kernel.next_event_time().filter(|&t| t <= now) {
            while let Some(SimEvent::Completion(id)) = self.kernel.pop_event_at(t) {
                self.kernel.complete(id, t);
                completions += 1;
            }
            self.kernel.observe_time(t);
        }
        for record in &self.kernel.completed()[self.completed_streamed..] {
            for observer in observers.iter_mut() {
                observer.on_completion(record);
            }
        }
        self.completed_streamed = self.kernel.completed_len();
        self.kernel.observe_time(now);
        let retired_at = lap();

        // 3. One decision epoch, if the kernel wants one.
        let pending = self.pending_hint();
        let mut decisions = 0usize;
        let mut verdict = Ok(());
        if self.kernel.should_query(now, pending) {
            let first_new = self.kernel.decisions_len();
            verdict = self.kernel.run_epoch(
                now,
                pending,
                self.total_jobs_hint(),
                &mut *self.policy,
                &self.config.sim,
            );
            // Stream decisions (even on error) and release the queue-cap
            // slots of every accepted placement.
            for record in &self.kernel.decisions()[first_new..] {
                if record.accepted() {
                    if let Action::StartJob(id) | Action::BackfillJob(id) = record.action {
                        if let Some(tenant) = self.ledger.tenant_of(id) {
                            self.admission.job_started(tenant);
                        }
                    }
                }
                for observer in observers.iter_mut() {
                    observer.on_decision(record);
                }
            }
            decisions = self.kernel.decisions_len() - first_new;
            if !self.config.retain_history {
                let _ = self.kernel.drain_decisions();
                let _ = self.kernel.drain_epochs();
            }
        }

        let wall_nanos = wall_start.elapsed().as_nanos() as u64;
        self.latency.record(wall_nanos);
        if recording {
            self.telemetry.observe("service_tick_nanos", wall_nanos);
            self.telemetry.observe("service_ingest_nanos", ingested_at);
            self.telemetry
                .observe("service_retire_nanos", retired_at - ingested_at);
            self.telemetry
                .observe("service_epoch_nanos", wall_nanos - retired_at);
            self.telemetry
                .observe("service_ingest_batch", tick_admitted as u64);
            self.telemetry
                .set_counter("service_submitted_total", self.submitted as u64);
            self.telemetry
                .set_counter("service_admitted_total", self.admitted as u64);
            self.telemetry
                .set_counter("service_rejected_total", self.rejected as u64);
            self.telemetry.set_counter(
                "service_completed_total",
                self.kernel.completed_len() as u64,
            );
            self.telemetry
                .set_counter("service_ticks_total", self.ticks);
            self.telemetry
                .set_counter("service_ingest_takes_total", self.takes);
            self.telemetry.set_counter(
                "service_admitted_strays_total",
                self.ledger.strays.len() as u64,
            );
            self.telemetry
                .set_gauge("service_ingest_backlog", self.rx.len() as i64);
            self.telemetry
                .set_gauge("service_queue_depth", self.kernel.waiting_len() as i64);
            self.telemetry
                .set_gauge("service_running_jobs", self.kernel.running_count() as i64);
        }
        let stats = TickStats {
            now,
            submitted: ingested,
            admitted: tick_admitted,
            rejected: tick_rejected,
            completions,
            decisions,
            queue_depth: self.kernel.waiting_len(),
            running: self.kernel.running_count(),
            wall_nanos,
        };
        for observer in observers.iter_mut() {
            observer.on_tick(&stats);
        }
        self.last_now = now;
        verdict?;
        Ok(stats)
    }

    /// Run the service to completion on `clock`: tick, advance, repeat,
    /// until a drain finishes (or the kernel errors). Saturated ticks
    /// (full ingest batch) re-tick immediately instead of sleeping.
    pub fn run<C: ServiceClock>(
        mut self,
        clock: &mut C,
        observers: &mut [&mut dyn ServiceObserver],
    ) -> Result<ServiceReport, SimError> {
        loop {
            let now = clock.now().max(self.last_now);
            let stats = self.tick(now, observers)?;
            if self.finished() {
                break;
            }
            // Draining with jobs waiting, nothing running, and no future
            // events: no epoch will ever place them (the policy had its
            // chance this tick) — the same Stuck verdict the simulator
            // gives a policy that delays forever.
            if self.draining
                && self.queue_drained
                && self.rx.len() == 0
                && self.kernel.events_is_empty()
                && self.kernel.running_count() == 0
                && self.kernel.waiting_len() > 0
            {
                return Err(SimError::Stuck {
                    time: now,
                    waiting: self.kernel.waiting_len(),
                });
            }
            if stats.submitted >= self.config.max_batch {
                continue;
            }
            clock.advance(self.config.tick, self.kernel.next_event_time());
        }
        let report = self.finish();
        for observer in observers.iter_mut() {
            observer.on_drain(&report);
        }
        Ok(report)
    }

    fn finish(self) -> ServiceReport {
        ServiceReport {
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.kernel.completed_len(),
            dropped_requests: self.rx.len(),
            ticks: self.ticks,
            end_time: self.last_now,
            stats: *self.kernel.stats(),
            tick_latency: self.latency.summary(),
        }
    }

    /// Close the run and produce a simulator-shaped [`SimOutcome`]
    /// (requires [`retain_history`](ServiceConfig::retain_history) for a
    /// populated decision log). This is how the replay driver proves
    /// bit-equivalence with the virtual-time simulator.
    pub fn into_outcome(self) -> SimOutcome {
        let end = self.last_now;
        let name = self.policy.name().to_string();
        self.kernel.into_outcome(name, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsched_schedulers::Fcfs;

    /// Ids as tenants send them: a rising run, a falling run, two
    /// interleaved ranges, repeats of what went before, and the ends of
    /// the id space.
    fn id_order(kinds: &[(u32, u32)]) -> Vec<u32> {
        let mut ids = Vec::new();
        for &(kind, at) in kinds {
            match kind {
                0 => ids.extend(at..at + 6),
                1 => ids.extend((at..at + 6).rev()),
                2 => ids.extend((0..6).map(|i| at + i + 500 * (i % 2))),
                3 => ids.extend_from_within(..ids.len().min(4)),
                _ => ids.extend([u32::MAX, at, 0, u32::MAX - at]),
            }
        }
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ledger is a `BTreeMap<JobId, TenantId>`: after every insert
        /// it answers "seen?" and "whose?" as the map does, for the ids
        /// around everything sent so far.
        #[test]
        fn ledger_is_a_map_from_id_to_tenant(
            kinds in prop::collection::vec((0u32..5, 0u32..400), 1..12)
        ) {
            let ids = id_order(&kinds);
            let mut ledger = AdmittedLedger::default();
            let mut model = BTreeMap::new();
            for (n, &id) in ids.iter().enumerate() {
                let (id, tenant) = (JobId(id), TenantId(n as u32 % 3));
                // As `handle_submission` does: a known id is a duplicate.
                if ledger.tenant_of(id).is_none() {
                    ledger.admit(id, tenant);
                }
                model.entry(id).or_insert(tenant);
                for &probe in &ids {
                    for near in [probe.saturating_sub(1), probe, probe.saturating_add(1)] {
                        let near = JobId(near);
                        prop_assert_eq!(ledger.tenant_of(near), model.get(&near).copied());
                    }
                }
                prop_assert!(ledger.run.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert_eq!(ledger.run.len() + ledger.strays.len(), model.len());
            }
        }
    }

    #[test]
    fn descending_ids_never_shift_the_run() {
        const JOBS: u32 = 100_000;
        let mut config = ServiceConfig::new(ClusterConfig::new(4, 64));
        config.max_batch = usize::MAX;
        let (mut core, handle) = ServiceCore::new(config, Box::new(Fcfs::default()), SimTime::ZERO);
        for id in (1..=JOBS).rev() {
            let job = JobSpec::new(id, 0, SimTime::ZERO, SimDuration::from_secs(10), 1, 1);
            handle
                .submit(TenantId(id % 3), job)
                .expect("the core is live");
        }
        let stats = core.tick(SimTime::ZERO, &mut []).expect("tick");
        assert_eq!(stats.admitted, JOBS as usize);
        assert_eq!(core.ledger.run, [(JobId(JOBS), TenantId(JOBS % 3))]);
        assert_eq!(core.ledger.strays.len(), JOBS as usize - 1);
        assert_eq!(core.ledger.tenant_of(JobId(7)), Some(TenantId(1)));

        // Every one of them is a duplicate now.
        let job = JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(10), 1, 1);
        handle.submit(TenantId(0), job).expect("the core is live");
        assert_eq!(core.tick(SimTime::ZERO, &mut []).expect("tick").rejected, 1);
    }
}
