//! A start holds counts, not nodes: once the cluster's slot table has grown
//! to the run's concurrency and the record log has room, starting and
//! completing a job touches no heap — on the flat Polaris machine and on
//! the classed `mixed_256` alike, and with the table's indices built as
//! without them. Nor does the agent's prompt, once its
//! builder has written one: each job line is copied from its line store or
//! formatted into room the buffers already have.
//!
//! The test binary counts allocations through its own global allocator.
//! The count is per thread, so tests running beside each other in the
//! harness do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use reasoned_scheduler::agent::{PromptBuilder, Scratchpad};
use reasoned_scheduler::cluster::{
    ClusterConfig, ClusterState, CompletedStats, JobSpec, NodeClass, ResourceVec, RunningOrder,
    MAX_CLASSES,
};
use reasoned_scheduler::sim::{RunningSummary, SystemView};
use reasoned_scheduler::simkit::{SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Jobs held at once: each start completes the job started `WINDOW`
/// starts before it, so slots are freed and refilled out of order.
const WINDOW: usize = 4;

/// The jobs a cycle starts: widths across the machine, a GPU demand and a
/// class pin that only the classed machine reads, and a job wider than the
/// gpu and bigmem classes together. Any `WINDOW + 1` in a row (the held
/// jobs and the one starting) fit both machines at once.
fn job(i: u32) -> JobSpec {
    let nodes = [1, 4, 16, 32, 120][i as usize % 5];
    let duration = SimDuration::from_secs(60 + u64::from(i % 7));
    let job = JobSpec::new(i, i % 3, SimTime::ZERO, duration, nodes, 8);
    match i % 4 {
        1 if nodes <= 16 => job.with_per_node(ResourceVec::new(0, 1, 0, 0)),
        2 if nodes <= 4 => job.with_class(NodeClass::BigMem),
        _ => job,
    }
}

/// `cycles` start→complete pairs on `config`, counted once a first round
/// has grown the slot table to `WINDOW` rows (and, `indexed`, every order's
/// index, read before the first start): they allocate nothing.
fn cycles_allocate_nothing(config: ClusterConfig, cycles: u32, indexed: bool) {
    let warm = 2 * WINDOW as u32;
    let mut cluster = ClusterState::new(config);
    cluster.reserve_completed((warm + cycles) as usize);
    if indexed {
        for order in [
            RunningOrder::Id,
            RunningOrder::ExpectedEnd,
            RunningOrder::End,
        ] {
            assert_eq!(cluster.running_in(order).len(), 0);
        }
    }
    let jobs: Vec<JobSpec> = (0..warm + cycles).map(job).collect();
    let mut held: VecDeque<(usize, SimTime)> = VecDeque::with_capacity(WINDOW + 1);
    let mut cycle = |cluster: &mut ClusterState, spec: &JobSpec| {
        let (slot, started) = cluster
            .start_job(spec, SimTime::ZERO)
            .expect("a window of jobs fits");
        held.push_back((slot, started.end));
        if held.len() > WINDOW {
            let (slot, end) = held.pop_front().expect("just pushed");
            cluster.complete_job(slot, end);
        }
    };
    for spec in &jobs[..warm as usize] {
        cycle(&mut cluster, spec);
    }
    let before = allocations();
    for spec in &jobs[warm as usize..] {
        cycle(&mut cluster, spec);
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{cycles} start→complete cycles allocated {allocated} times"
    );
    assert_eq!(cluster.running_count(), WINDOW);
    assert_eq!(cluster.completed().len(), jobs.len() - WINDOW);
    assert_eq!(cluster.running_in(RunningOrder::Id).len(), WINDOW);
    cluster.check_invariants();
}

#[test]
fn a_start_allocates_nothing_on_polaris() {
    cycles_allocate_nothing(ClusterConfig::polaris(), 1000, false);
    cycles_allocate_nothing(ClusterConfig::polaris(), 1000, true);
}

#[test]
fn a_start_allocates_nothing_on_mixed_256() {
    cycles_allocate_nothing(ClusterConfig::mixed_256(), 1000, false);
    cycles_allocate_nothing(ClusterConfig::mixed_256(), 1000, true);
}

/// The agent's prompt for 60 waiting and 10 running jobs under a short
/// history, asked 50 times as the clock moves: after the first two, which
/// grow the builder's buffers and its store, it is written without touching
/// the heap.
#[test]
fn a_warm_prompt_builder_allocates_nothing() {
    let waiting: Vec<JobSpec> = (0..60).map(job).collect();
    let running: Vec<RunningSummary> = (60..70)
        .map(job)
        .map(|spec| RunningSummary {
            id: spec.id,
            user: spec.user,
            nodes: spec.nodes,
            memory_gb: spec.memory_gb,
            start: SimTime::ZERO,
            submit: SimTime::ZERO,
            expected_end: SimTime::ZERO + spec.walltime,
            class: None,
        })
        .collect();
    let mut pad = Scratchpad::default();
    pad.push_thought(0, "job 3 has waited longest");
    pad.push_action(0, "StartJob(job_id=3)");
    let view = |now| SystemView {
        now: SimTime::from_secs(now),
        config: ClusterConfig::paper_default(),
        free_nodes: 100,
        free_memory_gb: 1000,
        free_by_class: [0; MAX_CLASSES],
        waiting: waiting.as_slice().into(),
        running: running.as_slice().into(),
        completed_stats: CompletedStats::default(),
        pending_arrivals: 0,
        total_jobs: 70,
        calendar: None,
        telemetry: None,
        queue: None,
    };
    let mut builder = PromptBuilder::default();
    let first = builder.prompt(&view(1000), &pad).to_string();
    builder.prompt(&view(1001), &pad);
    let before = allocations();
    for now in 1002..1050 {
        std::hint::black_box(builder.prompt(&view(now), &pad));
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "48 prompts allocated {allocated} times");
    let last = builder.prompt(&view(1000), &pad).to_string();
    assert_eq!(last, first);
    assert_eq!(last, PromptBuilder::render(&view(1000), &pad));
}

/// The counter works: a `Vec` that grows is seen.
#[test]
fn the_counter_sees_a_growing_vec() {
    let before = allocations();
    let v: Vec<u64> = (0..100).collect();
    assert!(allocations() > before);
    assert_eq!(v.len(), 100);
}
