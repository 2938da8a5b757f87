//! The work-stealing pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
}

/// A fixed-size work-stealing thread pool.
///
/// Tasks are `'static` closures; results flow back through channels (see
/// [`ThreadPool::par_map`]). Dropping the pool drains nothing: it signals
/// shutdown and joins the workers, so submit-side code should finish its
/// batches (e.g. via `par_map`) before letting the pool go.
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
        let workers: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Task>> = workers.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rsched-worker-{index}"))
                    .spawn(move || worker_loop(index, local, shared))
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
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, task: F) {
        self.shared.injector.push(Box::new(task));
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

    /// Gracefully shut the pool down: signal the workers and join every
    /// thread. Queued tasks that a worker has already picked up (or can
    /// pick up before observing the signal) still run; parked workers wake
    /// and exit.
    ///
    /// Idempotent — a second call (or the implicit one in `Drop`) is a
    /// no-op. Long-lived owners like the service daemon call this
    /// explicitly so shutdown happens at a chosen point with any join
    /// panics surfaced here rather than during unwinding.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// `true` once [`shutdown`](Self::shutdown) has joined the workers.
    pub fn is_shut_down(&self) -> bool {
        self.handles.is_empty()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(index: usize, local: Worker<Task>, shared: Arc<Shared>) {
    loop {
        if let Some(task) = find_task(index, &local, &shared) {
            // A panicking task must not kill the worker; par_map transports
            // the payload separately.
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Nothing to do: park until a push or shutdown wakes us. The
        // timeout re-checks for missed wakeups.
        let mut guard = shared.sleep_lock.lock();
        if shared.shutdown.load(Ordering::SeqCst) || !shared.injector.is_empty() {
            continue;
        }
        shared.wakeup.wait_for(&mut guard, Duration::from_millis(5));
    }
}

fn find_task(index: usize, local: &Worker<Task>, shared: &Shared) -> Option<Task> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    // Refill from the injector (batch steal amortizes contention), then try
    // peers.
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(task) => return Some(task),
            crossbeam::deque::Steal::Empty => break,
            crossbeam::deque::Steal::Retry => continue,
        }
    }
    let peers = shared.stealers.len();
    for offset in 1..peers {
        let victim = (index + offset) % peers;
        loop {
            match shared.stealers[victim].steal() {
                crossbeam::deque::Steal::Success(task) => return Some(task),
                crossbeam::deque::Steal::Empty => break,
                crossbeam::deque::Steal::Retry => continue,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn explicit_shutdown_joins_and_is_idempotent() {
        let mut pool = ThreadPool::new(3);
        assert!(!pool.is_shut_down());
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.par_map((0..64).collect::<Vec<u32>>(), move |_| {
            c.fetch_add(1, Ordering::SeqCst)
        });
        pool.shutdown();
        assert!(pool.is_shut_down());
        assert_eq!(counter.load(Ordering::SeqCst), 64, "batch ran fully");
        // Second call (and the implicit Drop) must be no-ops, not hangs.
        pool.shutdown();
        assert!(pool.is_shut_down());
        drop(pool);
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
