//! Micro-probes: single public functions of a layer, timed in isolation
//! on fixed shapes. They run once per traced run, after the passes, and
//! say what one call of the thing costs — the number a change to that
//! layer should move first. Recording is paused while they run.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use rsched_cluster::{
    Allocation, ClassedAllocator, ClusterConfig, FirstFitAllocator, JobSpec, PlacementRequest,
    MAX_CLASSES,
};
use rsched_cpsolver::sgs::decode_with_makespan;
use rsched_cpsolver::{Instance, Task};
use rsched_schedulers::ConservativeBackfill;
use rsched_sim::scan::{first_fit_flat, first_fit_flat_serial, scan_workers};
use rsched_sim::{CapacityCalendar, JobStore, Simulation};
use rsched_simkit::{SimDuration, SimTime};
use rsched_telemetry::{export, TelemetrySink};
use rsched_workloads::ArrivalMode;

use crate::stats::median;
use crate::workloads::scenario_jobs;

/// Rows in the scan probe's columns: twice the parallel-scan threshold,
/// so `first_fit_flat` takes whichever path the kernel would.
const SCAN_ROWS: usize = 16_384;
const BATCHES: usize = 9;

/// Times one probe: the median over [`BATCHES`] batches of the mean
/// nanoseconds per call of `f`. `scale` divides the calls in a batch, so
/// that the tests' unoptimised build gets through the probes quickly.
fn ns_per_call(scale: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let calls = (calls / scale).max(1);
    f();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

pub fn run_all(seed: u64, scale: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    scan(scale, &mut out);
    calendar(scale, &mut out);
    store(scale, &mut out);
    allocators(seed, scale, &mut out);
    sgs(scale, &mut out);
    telemetry(seed, scale, &mut out);
    out
}

/// A full no-fit scan of 16 384 rows: the dispatching entry point (which
/// shards across scoped threads past the threshold when more than one
/// worker is available) against the serial loop over the same columns.
fn scan(scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let nodes: Vec<u32> = (0..SCAN_ROWS as u32).map(|i| 2 + i % 61).collect();
    let memory: Vec<u64> = (0..SCAN_ROWS as u64).map(|i| 2 + i % 253).collect();
    let workers = scan_workers();
    out.insert(
        "sim.scan_first_fit_ns",
        ns_per_call(scale, 40, || {
            let found = first_fit_flat(&nodes, &memory, 1, 1, workers);
            assert!(std::hint::black_box(found).first_fit.is_none());
        }),
    );
    out.insert(
        "sim.scan_first_fit_serial_ns",
        ns_per_call(scale, 40, || {
            let found = first_fit_flat_serial(&nodes, &memory, 1, 1);
            assert!(std::hint::black_box(found).first_fit.is_none());
        }),
    );
}

/// The capacity calendar on Polaris numbers: a build from 512 running-job
/// releases, and a reservation pass of `earliest_window` + `reserve`.
fn calendar(scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let releases: Vec<(SimTime, u32, u64, [u32; MAX_CLASSES])> = {
        let mut r: Vec<_> = (0..512u64)
            .map(|i| {
                (
                    SimTime::from_secs(60 + i * 37 % 50_000),
                    1 + (i as u32 * 13) % 8,
                    4 + i * 29 % 64,
                    [0; MAX_CLASSES],
                )
            })
            .collect();
        r.sort_by_key(|release| release.0);
        r
    };
    let build = || {
        CapacityCalendar::build(
            SimTime::ZERO,
            560,
            286_720,
            [0; MAX_CLASSES],
            releases.iter().copied(),
        )
    };
    out.insert(
        "sim.calendar_build_ns",
        ns_per_call(scale, 200, || {
            std::hint::black_box(build());
        }),
    );
    let base = build();
    let demands: Vec<(u32, u64, SimDuration)> = (0..1000u64)
        .map(|i| {
            (
                1 + (i as u32 * 31) % 64,
                1 + i * 97 % 256,
                SimDuration::from_secs(60 + i * 104_729 % 20_000),
            )
        })
        .collect();
    let per_pass = ns_per_call(scale, 3, || {
        let mut calendar = base.clone();
        for &(nodes, memory, wall) in &demands {
            let start = calendar.earliest_window(nodes, memory, wall);
            calendar.reserve(start, start + wall, nodes, memory);
        }
        std::hint::black_box(calendar.len());
    });
    out.insert("sim.calendar_place_ns", per_pass / demands.len() as f64);
}

/// One insert into and one removal from the middle of an 8000-job store:
/// what a policy that does not take the head pays per placement.
fn store(scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let job = |i: u32| {
        JobSpec::new(
            i,
            i % 97,
            SimTime::from_secs(u64::from(i)),
            SimDuration::from_secs(60 + u64::from(i) * 97 % 5000),
            1 + i * 13 % 64,
            1 + u64::from(i) * 31 % 256,
        )
    };
    let mut store = JobStore::with_capacity(8001);
    for i in 0..8000 {
        store.push(job(i));
    }
    let extra = job(8000);
    out.insert(
        "sim.store_insert_remove_ns",
        ns_per_call(scale, 2000, || {
            store.insert(4000, extra.clone());
            std::hint::black_box(store.remove(4000));
        }),
    );
}

/// Allocate until full, release the oldest, repeat: the flat first-fit
/// allocator on Polaris and the classed one on `mixed_256` with a
/// GPU-skewed request mix.
fn allocators(seed: u64, scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let requests: Vec<(u32, u64)> = (0..(2000 / scale) as u32)
        .map(|i| (1 + i * 13 % 48, 1 + u64::from(i) * 31 % 4096))
        .collect();
    let per_pass = ns_per_call(scale, 20, || {
        let mut allocator = FirstFitAllocator::new(560, 286_720);
        let mut held: VecDeque<Allocation> = VecDeque::new();
        for &(nodes, memory) in &requests {
            while !allocator.can_fit(nodes, memory) {
                allocator.release(
                    &held
                        .pop_front()
                        .expect("an empty machine fits every request"),
                );
            }
            held.push_back(
                allocator
                    .try_allocate(nodes, memory)
                    .expect("can_fit implies allocate"),
            );
        }
        std::hint::black_box(held.len());
    });
    out.insert(
        "cluster.flat_alloc_release_ns",
        per_pass / requests.len() as f64,
    );

    let cluster = ClusterConfig::mixed_256();
    let classed: Vec<PlacementRequest> = scenario_jobs(
        "gpu_skewed_hetmix",
        2000 / scale,
        ArrivalMode::Static,
        seed,
        cluster,
    )
    .iter()
    .map(PlacementRequest::from)
    .collect();
    let per_pass = ns_per_call(scale, 20, || {
        let mut allocator = ClassedAllocator::new(cluster.topology);
        let mut held: VecDeque<Allocation> = VecDeque::new();
        for request in &classed {
            while !allocator.can_fit(request) {
                allocator.release(
                    &held
                        .pop_front()
                        .expect("an empty machine fits every request"),
                );
            }
            held.push_back(
                allocator
                    .try_allocate(request)
                    .expect("can_fit implies allocate"),
            );
        }
        std::hint::black_box(held.len());
    });
    out.insert(
        "cluster.classed_alloc_release_ns",
        per_pass / classed.len() as f64,
    );
}

/// The solver's inner loop: one serial schedule-generation decode of a
/// 100-task priority order.
fn sgs(scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let tasks: Vec<Task> = (0..100u64)
        .map(|i| Task {
            id: i as u32,
            duration: 1_000 + (i * 7919) % 300_000,
            nodes: 1 + (i as u32 * 13) % 64,
            memory: 1 + (i * 31) % 512,
            release: (i * 997) % 50_000,
        })
        .collect();
    let instance = Instance::new(tasks, 256, 2048);
    let order: Vec<usize> = (0..instance.len()).collect();
    out.insert(
        "cpsolver.sgs_decode_ns",
        ns_per_call(scale, 200, || {
            std::hint::black_box(decode_with_makespan(&instance, &order));
        }),
    );
}

/// The program's own telemetry on the flat Conservative cell of
/// `backfill_8k`: what a recording sink costs over a disabled one (the
/// end-to-end runs keep it disabled), how many spans it records, and what
/// exporting them costs.
fn telemetry(seed: u64, scale: usize, out: &mut BTreeMap<&'static str, f64>) {
    let cluster = ClusterConfig::polaris();
    let jobs = scenario_jobs(
        "long_tail",
        8000 / scale,
        ArrivalMode::Static,
        seed,
        ClusterConfig::paper_default(),
    );
    let run = |sink: &TelemetrySink| -> f64 {
        let started = Instant::now();
        let outcome = Simulation::new(cluster)
            .jobs(&jobs)
            .telemetry(sink)
            .run(&mut ConservativeBackfill::new())
            .expect("the flat Conservative cell completes");
        std::hint::black_box(outcome);
        started.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = TelemetrySink::disabled();
    for _ in 0..3 {
        off.push(run(&TelemetrySink::disabled()));
        last = TelemetrySink::recording_with_wall();
        on.push(run(&last));
    }
    out.insert(
        "telemetry.recording_overhead_frac",
        median(&on) / median(&off) - 1.0,
    );
    let spans = last.spans().unwrap_or_default();
    out.insert("telemetry.spans", spans.len() as f64);
    let started = Instant::now();
    let bytes = export::chrome_trace(&spans).len()
        + export::spans_to_jsonl(&spans).len()
        + last
            .snapshot()
            .map_or(0, |snapshot| export::prometheus(&snapshot, "rsched_").len());
    out.insert("telemetry.export_s", started.elapsed().as_secs_f64());
    out.insert("telemetry.export_bytes", bytes as f64);
}
