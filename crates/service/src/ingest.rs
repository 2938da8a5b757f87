//! The submission front-end: the one queue between any number of client
//! threads and the single scheduler loop — a `Mutex<VecDeque>` the service
//! owns, not a general-purpose channel.
//!
//! Producers hold cloneable [`SubmitHandle`]s: a submission locks, pushes
//! and returns. Nothing ever parks on the queue — the scheduler thread
//! sleeps on its [`ServiceClock`](crate::ServiceClock), not on arrivals — so
//! there is no condition variable and a submit makes no wake-up system
//! call. The contract that buys: a submission waits in the queue for at
//! most one tick interval, then the core moves it out with the rest of the
//! tick's batch under one lock (`IngestReceiver::take`), oldest first, and
//! its decision latency is that wait plus the epoch itself.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rsched_cluster::JobSpec;

use crate::tenant::TenantId;

/// One job submission from one tenant.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The job being submitted.
    pub job: JobSpec,
}

/// A message on the ingest queue.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// Submit a job.
    Submit(Submission),
    /// Stop accepting work, finish what is queued and running, then shut
    /// down. Submissions arriving after this are rejected as
    /// [`Draining`](crate::AdmissionError::Draining).
    Drain,
}

/// Sending a request failed: the service loop has exited and dropped its
/// receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStopped;

impl std::fmt::Display for ServiceStopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the scheduler service has stopped")
    }
}

impl std::error::Error for ServiceStopped {}

/// What both ends share.
struct IngestQueue {
    requests: VecDeque<ServiceRequest>,
    /// Live [`SubmitHandle`]s; at zero nothing can ever arrive again.
    handles: usize,
    /// Cleared when the core drops its receiver.
    core_alive: bool,
}

type Shared = Arc<Mutex<IngestQueue>>;

/// No code path panics while holding the lock (push, pop and two counters),
/// so a poisoned guard still holds a valid queue — and `Drop` must not
/// panic.
fn locked(shared: &Shared) -> MutexGuard<'_, IngestQueue> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A client-side handle for submitting jobs to a running service. Clone
/// freely; each clone is an independent producer.
pub struct SubmitHandle {
    shared: Shared,
}

impl SubmitHandle {
    fn push(&self, request: ServiceRequest) -> Result<(), ServiceStopped> {
        let mut queue = locked(&self.shared);
        if !queue.core_alive {
            return Err(ServiceStopped);
        }
        queue.requests.push_back(request);
        Ok(())
    }

    /// Submit one job on behalf of `tenant`.
    pub fn submit(&self, tenant: TenantId, job: JobSpec) -> Result<(), ServiceStopped> {
        self.push(ServiceRequest::Submit(Submission { tenant, job }))
    }

    /// Ask the service to drain: reject new work, finish queued and
    /// running jobs, then stop.
    pub fn drain(&self) -> Result<(), ServiceStopped> {
        self.push(ServiceRequest::Drain)
    }

    /// Requests currently queued (not yet ingested).
    pub fn backlog(&self) -> usize {
        locked(&self.shared).requests.len()
    }
}

impl Clone for SubmitHandle {
    fn clone(&self) -> Self {
        locked(&self.shared).handles += 1;
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for SubmitHandle {
    fn drop(&mut self) {
        locked(&self.shared).handles -= 1;
    }
}

/// What a [`take`](IngestReceiver::take) left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Taken {
    /// The batch filled; the queue was not looked at beyond it.
    More,
    /// The queue is empty (handles are still live).
    Empty,
    /// The queue is empty and every handle has been dropped.
    Disconnected,
}

/// The core's end of the queue.
pub(crate) struct IngestReceiver {
    shared: Shared,
}

impl IngestReceiver {
    /// Move the oldest requests into `out`, in order, under one lock:
    /// up to `max_submits` submissions and every [`Drain`] ahead of or
    /// among them (a drain is not counted against the batch).
    ///
    /// [`Drain`]: ServiceRequest::Drain
    pub(crate) fn take(&self, max_submits: usize, out: &mut Vec<ServiceRequest>) -> Taken {
        let mut queue = locked(&self.shared);
        let mut submits = 0;
        while submits < max_submits {
            match queue.requests.pop_front() {
                Some(request) => {
                    submits += usize::from(matches!(request, ServiceRequest::Submit(_)));
                    out.push(request);
                }
                None if queue.handles == 0 => return Taken::Disconnected,
                None => return Taken::Empty,
            }
        }
        Taken::More
    }

    /// Requests still queued.
    pub(crate) fn len(&self) -> usize {
        locked(&self.shared).requests.len()
    }
}

impl Drop for IngestReceiver {
    fn drop(&mut self) {
        locked(&self.shared).core_alive = false;
    }
}

/// Create the ingest queue: a handle for producers and the receiver the
/// service core takes its batches from.
pub(crate) fn ingest_queue() -> (SubmitHandle, IngestReceiver) {
    let shared = Arc::new(Mutex::new(IngestQueue {
        requests: VecDeque::new(),
        handles: 1,
        core_alive: true,
    }));
    let handle = SubmitHandle {
        shared: Arc::clone(&shared),
    };
    (handle, IngestReceiver { shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{ServiceConfig, ServiceCore};
    use crate::observer::ServiceObserver;
    use rsched_cluster::{ClusterConfig, JobId};
    use rsched_schedulers::Fcfs;
    use rsched_simkit::{SimDuration, SimTime};
    use std::sync::Barrier;

    fn job(id: u32) -> JobSpec {
        JobSpec::new(id, 0, SimTime::ZERO, SimDuration::from_secs(10), 1, 1)
    }

    /// The ids of a taken batch, a drain as `None`.
    fn ids(batch: &[ServiceRequest]) -> Vec<Option<u32>> {
        batch
            .iter()
            .map(|request| match request {
                ServiceRequest::Submit(sub) => Some(sub.job.id.0),
                ServiceRequest::Drain => None,
            })
            .collect()
    }

    #[test]
    fn take_is_fifo() {
        let (handle, rx) = ingest_queue();
        for id in 1..=10 {
            handle.submit(TenantId(0), job(id)).unwrap();
        }
        assert_eq!(handle.backlog(), 10);
        let mut batch = Vec::new();
        assert_eq!(rx.take(usize::MAX, &mut batch), Taken::Empty);
        assert_eq!(ids(&batch), (1..=10).map(Some).collect::<Vec<_>>());
        assert_eq!(handle.backlog(), 0);
    }

    #[test]
    fn take_counts_submissions_not_drains_and_leaves_the_rest_queued() {
        let (handle, rx) = ingest_queue();
        handle.submit(TenantId(0), job(1)).unwrap();
        handle.drain().unwrap();
        handle.submit(TenantId(0), job(2)).unwrap();
        handle.drain().unwrap();
        handle.submit(TenantId(0), job(3)).unwrap();
        let mut batch = Vec::new();
        assert_eq!(rx.take(2, &mut batch), Taken::More);
        // The drain behind the second submission is beyond the batch.
        assert_eq!(ids(&batch), [Some(1), None, Some(2)]);
        assert_eq!(rx.len(), 2);
        // A batch that fills exactly as the queue empties still reads More:
        // the queue is not looked at beyond it.
        assert_eq!(rx.take(1, &mut batch), Taken::More);
        assert_eq!(ids(&batch), [Some(1), None, Some(2), None, Some(3)]);
        assert_eq!(rx.take(1, &mut batch), Taken::Empty);
        assert_eq!(rx.take(0, &mut batch), Taken::More);
        assert_eq!(batch.len(), 5);
    }

    /// Admissions in the order the core ruled on them.
    #[derive(Default)]
    struct AdmitLog(Vec<(TenantId, JobId)>);

    impl ServiceObserver for AdmitLog {
        fn on_admit(&mut self, tenant: TenantId, job: &JobSpec, _: SimTime) {
            self.0.push((tenant, job.id));
        }
    }

    #[test]
    fn racing_producers_lose_nothing_and_keep_their_order() {
        const PRODUCERS: u32 = 4;
        const EACH: u32 = 25_000;
        let config = ServiceConfig::new(ClusterConfig::new(4, 64));
        let (mut core, handle) = ServiceCore::new(config, Box::new(Fcfs::default()), SimTime::ZERO);
        // Producers and core start together; the core ticks while they push.
        let start = Barrier::new(PRODUCERS as usize + 1);
        let mut log = AdmitLog::default();
        std::thread::scope(|scope| {
            for t in 0..PRODUCERS {
                let (handle, start) = (handle.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        handle.submit(TenantId(t), job(t * EACH + i)).unwrap();
                    }
                });
            }
            // The last producer's last handle gone is the end of input: the
            // core reads it as a drain once the queue is empty.
            drop(handle);
            start.wait();
            while !core.draining() {
                core.tick(SimTime::ZERO, &mut [&mut log]).expect("tick");
            }
        });
        assert_eq!(log.0.len(), (PRODUCERS * EACH) as usize);
        for t in 0..PRODUCERS {
            let of_t = log.0.iter().filter(|(tenant, _)| *tenant == TenantId(t));
            let ids: Vec<u32> = of_t.map(|(_, id)| id.0).collect();
            assert_eq!(ids, (t * EACH..(t + 1) * EACH).collect::<Vec<_>>());
        }
    }

    #[test]
    fn submit_after_service_exit_reports_stopped() {
        let (handle, rx) = ingest_queue();
        drop(rx);
        assert_eq!(handle.submit(TenantId(0), job(1)), Err(ServiceStopped));
        assert_eq!(handle.drain(), Err(ServiceStopped));
    }

    #[test]
    fn dropping_every_handle_disconnects_and_the_core_drains() {
        let (handle, rx) = ingest_queue();
        let clone = handle.clone();
        handle.submit(TenantId(0), job(1)).unwrap();
        drop(handle);
        let mut batch = Vec::new();
        assert_eq!(rx.take(8, &mut batch), Taken::Empty, "the clone is live");
        assert_eq!(batch.len(), 1, "queued requests survive their handle");
        drop(clone);
        assert_eq!(rx.take(8, &mut batch), Taken::Disconnected);

        let config = ServiceConfig::new(ClusterConfig::new(4, 64));
        let (core, handle) = ServiceCore::new(config, Box::new(Fcfs::default()), SimTime::ZERO);
        handle.submit(TenantId(0), job(1)).unwrap();
        drop(handle);
        let report = core
            .run(&mut crate::clock::ManualClock::new(), &mut [])
            .expect("drains without a drain request");
        assert_eq!((report.admitted, report.completed), (1, 1));
        assert_eq!(report.dropped_requests, 0);
    }
}
