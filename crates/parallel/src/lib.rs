//! # rsched-parallel
//!
//! A small thread pool used to fan the experiment matrix (scheduler ×
//! scenario × size × seed) across cores. Each experiment cell stays
//! single-threaded and deterministic; only the sweep is parallel.
//!
//! Built on `std::sync` alone: one shared `VecDeque` of boxed tasks behind
//! a `Mutex`, a `Condvar` idle workers park on, and a shutdown flag under
//! the same lock. Every task the pool sees is a whole campaign or figure
//! cell (milliseconds of work) against a sub-microsecond queue operation,
//! so one lock is the whole design.
//!
//! [`ThreadPool::par_map`] returns results in **input order** no matter
//! which worker finished first — the foundation of the sharded campaign
//! contract: `summary.json` is byte-identical for every worker count.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod pool;

pub use pool::ThreadPool;
