//! The pool: one shared FIFO of boxed tasks behind a mutex, a condvar to
//! park idle workers on, and a shutdown flag under the same lock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wakeup: Condvar,
}

impl Shared {
    /// Tasks run outside the lock, so it is never poisoned by one; a
    /// poisoned guard is still taken rather than panicking inside `Drop`.
    fn locked(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size thread pool over one shared task queue.
///
/// Work goes in through [`ThreadPool::par_map`], which queues one
/// `'static` task per item and collects the results in input order.
/// Dropping the pool is the one way to stop it: the workers finish
/// whatever is still queued, then exit and are joined.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rsched-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// A pool sized to the machine: one worker per available hardware
    /// thread ([`std::thread::available_parallelism`]), clamped to at
    /// least 1 when the count cannot be determined.
    pub fn available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submit one fire-and-forget task.
    fn spawn<F: FnOnce() + Send + 'static>(&self, task: F) {
        self.shared.locked().tasks.push_back(Box::new(task));
        self.shared.wakeup.notify_one();
    }

    /// Map `f` over `items` in parallel, preserving order.
    ///
    /// # Panics
    /// If any task panics, the panic is re-raised here with its message.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        for (index, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                // The receiver may have bailed on an earlier panic; a send
                // failure is then expected and ignorable.
                let _ = tx.send((index, result));
            });
        }
        drop(tx);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (index, result) in rx {
            match result {
                Ok(value) => results[index] = Some(value),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} never delivered a result")))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.locked().shutdown = true;
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.locked();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            // A panicking task must not kill the worker; par_map transports
            // the payload separately.
            let _ = catch_unwind(AssertUnwindSafe(task));
            queue = shared.locked();
        } else if queue.shutdown {
            return;
        } else {
            // Both `spawn` and `Drop` change the queue under the lock this
            // guard holds, so no wake-up can fall between the checks above
            // and the wait: no timeout is needed.
            queue = shared
                .wakeup
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.par_map((0..200).collect(), |x: i32| x * x);
        assert_eq!(out, (0..200).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let pool = ThreadPool::new(8);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let out = pool.par_map((0..1000).collect::<Vec<u32>>(), move |_| {
            c.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn work_actually_runs_concurrently() {
        let pool = ThreadPool::new(4);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (inf, pk) = (Arc::clone(&in_flight), Arc::clone(&peak));
        pool.par_map((0..16).collect::<Vec<u32>>(), move |_| {
            let now = inf.fetch_add(1, Ordering::SeqCst) + 1;
            pk.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            inf.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "peak concurrency {} suggests serial execution",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let pool = ThreadPool::new(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![1], |_| panic!("first batch dies"))
        }));
        // The pool must still process subsequent work.
        let out = pool.par_map(vec![10, 20], |x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let out = pool.par_map((0..50).collect(), |x: u64| x * 2);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 98);
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        pool.par_map(vec![1, 2, 3], |x| x);
        drop(pool); // must not hang
    }

    #[test]
    fn spawn_wakes_a_fully_parked_pool_every_time() {
        // `par_map`'s path, one task at a time, into a pool whose workers
        // have all gone to sleep. No poll hides a lost wake-up, so each task
        // must report back promptly on its own.
        let pool = ThreadPool::new(2);
        let (tx, rx) = mpsc::channel::<usize>();
        for i in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver alive"));
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(1)),
                Ok(i),
                "task {i} was not picked up by a parked worker"
            );
        }
    }

    #[test]
    fn merge_order_is_input_order_for_every_worker_count() {
        // The sharded-campaign contract: results come back in input
        // (grid) order no matter how many workers race, because par_map
        // slots each result by index on the channel's receive side. Tasks
        // sleep in a scrambled pattern so completion order actively
        // disagrees with submission order.
        let reference: Vec<String> = (0..48u64).map(|i| format!("cell-{i}")).collect();
        let mut outputs = Vec::new();
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for workers in [1usize, 2, machine] {
            let pool = ThreadPool::new(workers);
            let out = pool.par_map((0..48u64).collect::<Vec<_>>(), |i| {
                // Later tasks finish earlier (up to pool width), inverting
                // arrival order within every stretch of concurrent tasks.
                std::thread::sleep(Duration::from_millis(7 - (i % 8).min(7)));
                format!("cell-{i}")
            });
            assert_eq!(out, reference, "workers {workers}");
            outputs.push(out);
        }
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "identical merge across 1, 2, and {machine} workers"
        );
    }

    #[test]
    fn default_parallelism_is_positive() {
        let pool = ThreadPool::available_parallelism();
        assert!(pool.threads() >= 1);
    }
}
