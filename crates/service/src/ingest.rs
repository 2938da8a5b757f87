//! The submission front-end: a mutex-backed MPSC channel between any
//! number of client threads and the single scheduler loop.
//!
//! Producers hold cloneable [`SubmitHandle`]s; the service core drains the
//! channel in bounded batches at each tick, so a submission's decision
//! latency is bounded by one tick interval plus the epoch itself.

use crossbeam::channel::{self, Receiver, Sender};
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

/// A message on the ingest channel.
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

/// A client-side handle for submitting jobs to a running service. Clone
/// freely; each clone is an independent producer.
#[derive(Clone)]
pub struct SubmitHandle {
    tx: Sender<ServiceRequest>,
}

impl SubmitHandle {
    /// Submit one job on behalf of `tenant`.
    pub fn submit(&self, tenant: TenantId, job: JobSpec) -> Result<(), ServiceStopped> {
        self.tx
            .send(ServiceRequest::Submit(Submission { tenant, job }))
            .map_err(|_| ServiceStopped)
    }

    /// Ask the service to drain: reject new work, finish queued and
    /// running jobs, then stop.
    pub fn drain(&self) -> Result<(), ServiceStopped> {
        self.tx
            .send(ServiceRequest::Drain)
            .map_err(|_| ServiceStopped)
    }

    /// Requests currently buffered in the channel (not yet ingested).
    pub fn backlog(&self) -> usize {
        self.tx.len()
    }
}

/// Create the ingest channel: a handle for producers and the receiver the
/// service core drains.
pub(crate) fn ingest_channel() -> (SubmitHandle, Receiver<ServiceRequest>) {
    let (tx, rx) = channel::unbounded();
    (SubmitHandle { tx }, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::TryRecvError;
    use rsched_simkit::{SimDuration, SimTime};

    #[test]
    fn handle_feeds_the_receiver_across_threads() {
        let (handle, rx) = ingest_channel();
        let mut producers = Vec::new();
        for t in 0..3u32 {
            let h = handle.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let job = JobSpec::new(
                        t * 1000 + i,
                        t,
                        SimTime::ZERO,
                        SimDuration::from_secs(10),
                        1,
                        1,
                    );
                    h.submit(TenantId(t), job).unwrap();
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        handle.drain().unwrap();
        let mut submits = 0;
        let mut drains = 0;
        loop {
            match rx.try_recv() {
                Ok(ServiceRequest::Submit(_)) => submits += 1,
                Ok(ServiceRequest::Drain) => drains += 1,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        assert_eq!(submits, 300);
        assert_eq!(drains, 1);
    }

    #[test]
    fn submit_after_service_exit_reports_stopped() {
        let (handle, rx) = ingest_channel();
        drop(rx);
        let job = JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(1), 1, 1);
        assert_eq!(handle.submit(TenantId(0), job), Err(ServiceStopped));
        assert_eq!(handle.drain(), Err(ServiceStopped));
    }
}
