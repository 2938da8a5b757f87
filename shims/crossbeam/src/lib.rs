//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the one *subset* of crossbeam it actually uses:
//! [`channel`] — the unbounded MPSC channel (`unbounded`, `Sender`,
//! `Receiver` with `try_recv`/`recv`/`recv_timeout`), backing the
//! `rsched-service` submission front-end.
//!
//! The implementation trades crossbeam's lock-free structure for a
//! `Mutex`/`Condvar` pair — correct and contention-safe, just slower under
//! heavy contention. The service front-end drains in large batches per
//! tick, so the lock is not a practical bottleneck.
//!
//! Swap this path dependency for the real crate when a registry is
//! available; no call sites need to change.

#![deny(missing_docs)]

/// Multi-producer multi-consumer channels (API-compatible subset of
/// `crossbeam::channel`, covering the unbounded MPSC surface the service
/// daemon uses).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
    }

    impl<T> Shared<T> {
        fn locked(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Creates an unbounded FIFO channel, returning the sending and
    /// receiving halves.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The message could not be sent: the receiver was dropped. Carries the
    /// unsent message back to the caller.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders may still send).
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// Why a blocking receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvError {
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// Why a bounded-wait receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// The sending half; clone freely across producer threads.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueues a message, waking one blocked receiver. Fails (returning
        /// the message) only when the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.locked();
            if !inner.receiver_alive {
                return Err(SendError(msg));
            }
            inner.queue.push_back(msg);
            drop(inner);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.locked().queue.len()
        }

        /// Whether the channel is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.locked().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.locked().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.locked();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                // Wake receivers so they observe the disconnect.
                self.shared.ready.notify_all();
            }
        }
    }

    /// The receiving half (single consumer in this workspace's usage).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.locked();
            match inner.queue.pop_front() {
                Some(msg) => Ok(msg),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive: parks until a message arrives or every sender
        /// is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.locked();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvError::Disconnected);
                }
                inner = self
                    .shared
                    .ready
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Bounded-wait receive: parks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.locked();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(inner, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.locked().queue.len()
        }

        /// Whether the channel is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.locked().queue.is_empty()
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.locked().receiver_alive = false;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_through_the_channel() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn dropping_all_senders_disconnects() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(1), "buffered messages survive drops");
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "tx2 still live");
            drop(tx2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        }

        #[test]
        fn dropping_receiver_fails_sends() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn recv_timeout_times_out_then_succeeds() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        }

        #[test]
        fn cross_thread_producers_all_arrive() {
            let (tx, rx) = unbounded::<u32>();
            let mut handles = Vec::new();
            for t in 0..4u32 {
                let tx = tx.clone();
                handles.push(thread::spawn(move || {
                    for i in 0..250u32 {
                        tx.send(t * 1000 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(got.len(), 1000);
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), 1000, "no message duplicated or lost");
        }
    }
}
