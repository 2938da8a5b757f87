//! # rsched-parallel
//!
//! A parallel map used to fan the experiment matrix (scheduler ×
//! scenario × size × seed) across cores. Each experiment cell stays
//! single-threaded and deterministic; only the sweep is parallel.
//!
//! Built on `std` alone: a [`ThreadPool`] is a width, and each
//! [`ThreadPool::par_map`] call runs up to that many workers in a
//! [`std::thread::scope`], taking items from one iterator behind a
//! `Mutex`. Every item the pool sees is a whole campaign or figure cell
//! (milliseconds of work) against a sub-microsecond lock, so one lock is
//! the whole design, and the workers are spawned per call and joined
//! before it returns — tasks may borrow from the caller.
//!
//! [`ThreadPool::par_map`] returns results in **input order** no matter
//! which worker finished first — the foundation of the sharded campaign
//! contract: `summary.json` is byte-identical for every worker count.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod pool;

pub use pool::ThreadPool;
