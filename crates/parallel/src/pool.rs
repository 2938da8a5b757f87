//! The pool: a width. Each [`ThreadPool::par_map`] call spawns its workers
//! in a [`std::thread::scope`], they take items from one shared iterator
//! behind a mutex, and they are joined before the call returns.

use std::sync::{Mutex, PoisonError};

/// A fixed-width parallel map.
///
/// Work goes in through [`ThreadPool::par_map`], which runs up to
/// `threads` scoped workers over the items and collects the results in
/// input order. No thread outlives the call, so the closure and the items
/// may borrow from the caller.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool `threads` workers wide.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        ThreadPool { threads }
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
        self.threads
    }

    /// Map `f` over `items` on `min(threads, items)` scoped workers,
    /// preserving order.
    ///
    /// # Panics
    /// If any task panics, the panic is re-raised here with its payload.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let queue = Mutex::new(items.into_iter().enumerate());
        // Tasks run outside the lock, so no panic can leave it poisoned.
        let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let mut slotted: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        std::iter::from_fn(next)
                            .map(|(index, item)| (index, f(item)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| match handle.join() {
                    Ok(done) => done,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        slotted.sort_unstable_by_key(|&(index, _)| index);
        slotted.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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
        let counter = AtomicUsize::new(0);
        let out = pool.par_map((0..1000).collect::<Vec<u32>>(), |_| {
            counter.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn work_actually_runs_concurrently() {
        let pool = ThreadPool::new(4);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.par_map((0..16).collect::<Vec<u32>>(), |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            in_flight.fetch_sub(1, Ordering::SeqCst);
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
        let payload = result.expect_err("panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom on 2"),
            "the task's own payload is re-raised"
        );
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
    fn tasks_borrow_from_the_caller() {
        // Neither the items nor the closure's capture are `'static`, and
        // there are more items than workers.
        let names: Vec<String> = (0..24).map(|i| format!("cell-{i}")).collect();
        let suffix = String::from("!");
        let pool = ThreadPool::new(3);
        let out = pool.par_map(names.iter().collect(), |name: &String| {
            format!("{name}{suffix}")
        });
        let expected: Vec<String> = names.iter().map(|n| format!("{n}!")).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn merge_order_is_input_order_for_every_worker_count() {
        // The sharded-campaign contract: results come back in input
        // (grid) order no matter how many workers race, because par_map
        // slots each result by its index. Tasks sleep in a scrambled
        // pattern so completion order actively disagrees with submission
        // order.
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
