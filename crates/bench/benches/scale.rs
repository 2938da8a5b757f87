//! The `scale` bench group: proof that the zero-copy incremental kernel
//! holds up at archive scale (10k jobs through the 1M streaming tier),
//! far beyond the paper's 75-job ceiling (§3.7).
//!
//! ```text
//! cargo bench -p rsched-bench --bench scale          # measure
//! cargo bench -p rsched-bench --bench scale -- --test # CI smoke (1 iter)
//! ```
//!
//! A full measurement run also rewrites `BENCH_scale.json` at the
//! workspace root, so every future PR inherits a perf trajectory to diff
//! against. The pre-refactor cloning kernel measured on the same workloads
//! is recorded there as the fixed baseline.

use criterion::Criterion;
use rsched_campaign::{Campaign, CampaignSpec};
use rsched_cluster::{
    Allocation, ClassedAllocator, ClusterConfig, CompletedStats, JobId, JobSpec, PlacementRequest,
    UserId,
};
use rsched_parallel::ThreadPool;
use rsched_schedulers::{ConservativeBackfill, EasyBackfill, Fcfs, Sjf};
use rsched_sim::{
    run_simulation, CapacityCalendar, RunningSummary, SimOptions, Simulation, SystemView,
};
use rsched_simkit::{SimDuration, SimTime};
use rsched_workloads::swf::{SwfJob, SwfReader, SwfTrace};
use rsched_workloads::synth::{polaris_synth_text, polaris_synth_workload};
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

fn heavy_tail_jobs(n: usize) -> Vec<JobSpec> {
    scenario_builtins()
        .generate(
            "long_tail",
            &ScenarioContext::new(n)
                .with_mode(ArrivalMode::Static)
                .with_seed(7),
        )
        .expect("builtin scenario")
        .jobs
}

/// A deterministic synthetic SWF archive, rendered to Standard Workload
/// Format text and re-ingested through the full parse → clean → `JobSpec`
/// pipeline — the same path `swf:<path>` scenario names take.
fn synthetic_swf_jobs(n: usize) -> Vec<JobSpec> {
    let jobs: Vec<SwfJob> = (0..n as i64)
        .map(|i| SwfJob {
            job_id: i + 1,
            submit_secs: i * 5 + (i * 7919) % 60,
            wait_secs: -1,
            run_secs: 60 + (i * 104_729) % 20_000,
            allocated_procs: 1 + (i * 31) % 128,
            avg_cpu_secs: -1.0,
            used_memory_kb: 1_000_000 + (i * 977) % 4_000_000,
            requested_procs: 1 + (i * 31) % 128,
            requested_secs: 120 + (i * 104_729) % 40_000,
            requested_memory_kb: -1,
            status: 1,
            user: i % 97,
            group: i % 11,
            executable: -1,
            queue: 1,
            partition: 1,
            preceding_job: -1,
            think_secs: -1,
        })
        .collect();
    let trace = SwfTrace {
        directives: vec![("MaxNodes".to_string(), "560".to_string())],
        jobs,
    };
    let reparsed = SwfTrace::parse(&trace.to_string()).expect("round trip");
    reparsed.to_jobs(0)
}

fn simulate_fcfs_10k(c: &mut Criterion) {
    let jobs = heavy_tail_jobs(10_000);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("simulate_fcfs_10k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(cluster, &jobs, &mut Fcfs::default(), &SimOptions::default())
                    .expect("completes"),
            )
        })
    });
    group.finish();
}

fn simulate_sjf_swf_replay(c: &mut Criterion) {
    let jobs = synthetic_swf_jobs(10_000);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("simulate_sjf_swf_replay_10k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(cluster, &jobs, &mut Sjf::default(), &SimOptions::default())
                    .expect("completes"),
            )
        })
    });
    group.finish();
}

/// The generalized placement kernel, isolated: 10k vector-demand
/// requests (GPU-skewed mix: pinned, spanning-classless, and
/// zero-demand jobs) scanned against the classed 256-node machine.
/// Each request allocates if it fits, releasing oldest grants first-fit
/// when it does not — a rolling-occupancy sweep over `plan_take`, the
/// per-class free watermarks, and the node-mask arithmetic.
fn placement_scan_mixed_class(c: &mut Criterion) {
    let cluster = ClusterConfig::mixed_256();
    let jobs = scenario_builtins()
        .generate(
            "gpu_skewed_hetmix",
            &ScenarioContext::new(10_000)
                .with_mode(ArrivalMode::Static)
                .with_seed(7)
                .with_cluster(cluster),
        )
        .expect("builtin scenario")
        .jobs;
    let requests: Vec<PlacementRequest> = jobs.iter().map(PlacementRequest::from).collect();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("placement_scan_mixed_class_10k", |b| {
        b.iter(|| {
            let mut allocator = ClassedAllocator::new(cluster.topology);
            let mut held: std::collections::VecDeque<Allocation> =
                std::collections::VecDeque::new();
            let mut placed = 0u64;
            for req in &requests {
                while !allocator.can_fit(req) {
                    let oldest = held.pop_front().expect("an empty machine fits every job");
                    allocator.release(&oldest);
                }
                held.push_back(
                    allocator
                        .try_allocate(req)
                        .expect("can_fit implies allocate"),
                );
                placed += 1;
            }
            std::hint::black_box(placed)
        })
    });
    group.finish();
}

/// The conservative reservation-list policy at 10k jobs — the worst-case
/// policy cost of the backfill family on the flat Polaris machine. Since
/// the capacity-calendar refactor each epoch clones the kernel's cached
/// skyline instead of rebuilding it from the running set; the
/// rebuild-per-decide figure is pinned as a baseline in
/// `BENCH_scale.json`.
fn simulate_conservative_backfill_10k(c: &mut Criterion) {
    let jobs = heavy_tail_jobs(10_000);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("simulate_conservative_backfill_10k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(
                    cluster,
                    &jobs,
                    &mut ConservativeBackfill::new(),
                    &SimOptions::default(),
                )
                .expect("completes"),
            )
        })
    });
    group.finish();
}

/// EASY with the strict shadow-time veto at 10k jobs: policy-side
/// candidate filtering plus the kernel-side `strict_backfill` validation
/// served from the actual-end capacity calendar.
fn simulate_easy_backfill_10k(c: &mut Criterion) {
    let jobs = heavy_tail_jobs(10_000);
    let cluster = ClusterConfig::polaris();
    let options = SimOptions {
        strict_backfill: true,
        ..SimOptions::default()
    };
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("simulate_easy_backfill_10k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(cluster, &jobs, &mut EasyBackfill::new(), &options)
                    .expect("completes"),
            )
        })
    });
    group.finish();
}

/// The new conservative-backfill scale tier: 100k heavy-tail jobs. Only
/// feasible at all because the per-epoch profile is a clone of the
/// kernel's incrementally-maintained calendar.
fn simulate_conservative_backfill_100k(c: &mut Criterion) {
    let jobs = heavy_tail_jobs(100_000);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(2);
    group.bench_function("simulate_conservative_backfill_100k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(
                    cluster,
                    &jobs,
                    &mut ConservativeBackfill::new(),
                    &SimOptions::default(),
                )
                .expect("completes"),
            )
        })
    });
    group.finish();
}

/// The calendar data structure, isolated: one deep reservation pass —
/// 10k `earliest_window` placements each followed by its binary-searched
/// `reserve` subtraction — over a skyline seeded with 512 running-job
/// releases. This is the O(log P + touched segments) claim, measured
/// without the simulator around it.
fn calendar_reserve_10k(c: &mut Criterion) {
    let base = CapacityCalendar::build(
        SimTime::ZERO,
        560,
        286_720,
        [0; rsched_cluster::MAX_CLASSES],
        (0..512u64).map(|i| {
            (
                SimTime::from_secs(60 + i * 37 % 50_000),
                1 + (i as u32 * 13) % 8,
                4 + i * 29 % 64,
                [0; rsched_cluster::MAX_CLASSES],
            )
        }),
    );
    let demands: Vec<(u32, u64, SimDuration)> = (0..10_000u64)
        .map(|i| {
            (
                1 + (i as u32 * 31) % 64,
                1 + i * 97 % 256,
                SimDuration::from_secs(60 + i * 104_729 % 20_000),
            )
        })
        .collect();
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.bench_function("calendar_reserve_10k", |b| {
        b.iter(|| {
            let mut cal = base.clone();
            let mut acc = 0u64;
            for &(nodes, mem, wall) in &demands {
                let start = cal.earliest_window(nodes, mem, wall);
                cal.reserve(start, start + wall, nodes, mem);
                acc = acc.wrapping_add(start.as_millis());
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn simulate_fcfs_heavy_tail_100k(c: &mut Criterion) {
    let jobs = heavy_tail_jobs(100_000);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(3);
    group.bench_function("simulate_fcfs_heavy_tail_100k", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_simulation(cluster, &jobs, &mut Fcfs::default(), &SimOptions::default())
                    .expect("completes"),
            )
        })
    });
    group.finish();
}

/// The zero-copy claim, isolated: constructing a borrowed view over a
/// 10k-deep queue costs the same as over an empty one.
fn view_build(c: &mut Criterion) {
    let waiting: Vec<JobSpec> = (0..10_000)
        .map(|i| {
            JobSpec::new(
                i as u32,
                (i % 97) as u32,
                SimTime::from_secs(i as u64),
                SimDuration::from_secs(60 + (i as u64 * 97) % 5000),
                1 + (i as u32 * 13) % 64,
                1 + (i as u64 * 31) % 256,
            )
        })
        .collect();
    let running: Vec<RunningSummary> = (0..256)
        .map(|i| RunningSummary {
            id: JobId(100_000 + i),
            user: UserId(i % 97),
            nodes: 1,
            memory_gb: 4,
            start: SimTime::ZERO,
            submit: SimTime::ZERO,
            expected_end: SimTime::from_secs(9_000),
            class: None,
        })
        .collect();
    let make_view = || SystemView {
        now: SimTime::from_secs(12_000),
        config: ClusterConfig::polaris(),
        free_nodes: 100,
        free_memory_gb: 1_000,
        free_by_class: [0; rsched_cluster::MAX_CLASSES],
        waiting: &waiting,
        running: &running,
        completed: &[],
        completed_stats: CompletedStats::default(),
        pending_arrivals: 5,
        total_jobs: waiting.len() + running.len() + 5,
        calendar: None,
        telemetry: None,
    };
    let mut group = c.benchmark_group("scale");
    group.bench_function("view_build_borrowed_10k", |b| {
        b.iter(|| std::hint::black_box(make_view()))
    });
    group.finish();
}

/// The campaign engine at the paper grid's 1k-job tier: a representative
/// three-scenario slice of `fixtures/campaigns/paper_grid.toml` — the
/// paper's seven-policy set minus OR-Tools (whose offline solve is budgeted
/// in seconds per cell and would swamp the engine signal), one seed,
/// cache disabled via a fresh scratch directory per iteration. Measures
/// grid expansion, hashing, pool dispatch, 18 × 1k-job simulations, and
/// the Pareto analysis end to end.
fn campaign_paper_grid_1k(c: &mut Criterion) {
    let spec = CampaignSpec::parse(
        r#"
name = "paper-grid-1k-bench"
policies = ["FCFS", "SJF", "OR-Tools", "Claude-3.7", "O4-Mini", "EASY", "Random"]
scenarios = ["heterogeneous_mix", "long_job_dominant", "long_tail"]
jobs = [1000]
seeds = [2025]
objectives = ["avg_wait", "avg_turnaround", "node_util", "wait_fairness"]
exclude = ["OR-Tools/1000"]
"#,
    )
    .expect("bench spec is valid");
    let root =
        std::env::temp_dir().join(format!("rsched_bench_campaign_1k_{}", std::process::id()));
    let pool = ThreadPool::available_parallelism();
    let mut group = c.benchmark_group("scale");
    group.sample_size(2);
    group.bench_function("campaign_paper_grid_1k", |b| {
        b.iter(|| {
            // Fresh scratch directory: every iteration executes the whole
            // grid, never the cache.
            let _ = std::fs::remove_dir_all(&root);
            let campaign = Campaign::new(spec.clone()).out_root(&root);
            std::hint::black_box(campaign.run(&pool).expect("completes"))
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// The streaming half of the 1M tier: `SwfReader` over a Polaris-scale
/// synthetic archive rendered to SWF text once up front (~90 MB), parsed
/// and converted line-at-a-time into `JobSpec`s — the exact pipeline
/// `examples/streaming_replay.rs` and the `polaris_synth:<n>` scenario
/// name drive.
fn swf_stream_ingest_1m(c: &mut Criterion) {
    let text = polaris_synth_text(1_000_000, 2025);
    let mut group = c.benchmark_group("scale");
    group.sample_size(2);
    group.bench_function("swf_stream_ingest_1m", |b| {
        b.iter(|| {
            let jobs = SwfReader::from_text(&text)
                .into_jobs(0)
                .expect("synthetic archive streams");
            assert_eq!(jobs.len(), 1_000_000);
            std::hint::black_box(jobs)
        })
    });
    group.finish();
}

/// The simulation half of the 1M tier: a full FCFS replay of the 1M-job
/// synthetic Polaris stream through the incremental kernel — SoA wait
/// queue, watermark short-circuit, and the flat-column placement scan.
/// The `#[ignore]`d smoke in `tests/scale_equivalence.rs` bounds the same
/// run at 30 s wall clock.
fn simulate_fcfs_polaris_synth_1m(c: &mut Criterion) {
    let jobs = polaris_synth_workload(1_000_000, 2025);
    let cluster = ClusterConfig::polaris();
    let mut group = c.benchmark_group("scale");
    group.sample_size(2);
    group.bench_function("simulate_fcfs_polaris_synth_1m", |b| {
        b.iter(|| {
            std::hint::black_box(
                Simulation::new(cluster)
                    .jobs(&jobs)
                    .run(&mut Fcfs::default())
                    .expect("completes"),
            )
        })
    });
    group.finish();
}

/// Timings the pre-refactor cloning kernel produced for the same
/// workloads on the reference container (measured immediately before the
/// zero-copy refactor landed) — the denominator of the speedup column in
/// `BENCH_scale.json`.
const BASELINE_CLONING_KERNEL_US: &[(&str, f64)] = &[
    ("scale/simulate_fcfs_10k", 943_000.0),
    ("scale/simulate_fcfs_heavy_tail_100k", 161_913_000.0),
];

/// Timing the rebuild-per-decide conservative backfill produced for the
/// same workload immediately before the capacity-calendar refactor — the
/// denominator of the backfill speedup column.
const BASELINE_REBUILD_BACKFILL_US: &[(&str, f64)] =
    &[("scale/simulate_conservative_backfill_10k", 379_276.797)];

fn write_trend_file(criterion: &Criterion) {
    if criterion.is_test_mode() || criterion.measurements().is_empty() {
        return; // --test smoke mode: nothing measured, keep the file as-is.
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let mut body = String::from("{\n  \"_comment\": \"scale-bench trend file; regenerate with `cargo bench -p rsched-bench --bench scale`. Baselines are the pre-refactor cloning kernel.\",\n  \"benches_us_per_iter\": {\n");
    let measurements = criterion.measurements();
    for (i, (label, t)) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{label}\": {:.3}{sep}\n",
            t.as_secs_f64() * 1e6
        ));
    }
    body.push_str("  },\n  \"baseline_cloning_kernel_us_per_iter\": {\n");
    for (i, (label, us)) in BASELINE_CLONING_KERNEL_US.iter().enumerate() {
        let sep = if i + 1 == BASELINE_CLONING_KERNEL_US.len() {
            ""
        } else {
            ","
        };
        body.push_str(&format!("    \"{label}\": {us:.1}{sep}\n"));
    }
    let speedups_against = |baselines: &[(&str, f64)]| -> Vec<(String, f64)> {
        baselines
            .iter()
            .filter_map(|(label, base)| {
                measurements
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, t)| (label.to_string(), base / (t.as_secs_f64() * 1e6)))
            })
            .collect()
    };
    body.push_str("  },\n  \"baseline_rebuild_backfill_us_per_iter\": {\n");
    for (i, (label, us)) in BASELINE_REBUILD_BACKFILL_US.iter().enumerate() {
        let sep = if i + 1 == BASELINE_REBUILD_BACKFILL_US.len() {
            ""
        } else {
            ","
        };
        body.push_str(&format!("    \"{label}\": {us:.1}{sep}\n"));
    }
    body.push_str("  },\n  \"speedup_vs_cloning_kernel\": {\n");
    let speedups = speedups_against(BASELINE_CLONING_KERNEL_US);
    for (i, (label, x)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { "," };
        body.push_str(&format!("    \"{label}\": {x:.1}{sep}\n"));
    }
    body.push_str("  },\n  \"speedup_vs_rebuild_backfill\": {\n");
    let speedups = speedups_against(BASELINE_REBUILD_BACKFILL_US);
    for (i, (label, x)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { "," };
        body.push_str(&format!("    \"{label}\": {x:.1}{sep}\n"));
    }
    body.push_str("  }\n}\n");
    match std::fs::write(path, &body) {
        Ok(()) => println!("wrote BENCH_scale.json"),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    simulate_fcfs_10k(&mut criterion);
    simulate_sjf_swf_replay(&mut criterion);
    placement_scan_mixed_class(&mut criterion);
    simulate_conservative_backfill_10k(&mut criterion);
    simulate_easy_backfill_10k(&mut criterion);
    simulate_conservative_backfill_100k(&mut criterion);
    calendar_reserve_10k(&mut criterion);
    simulate_fcfs_heavy_tail_100k(&mut criterion);
    view_build(&mut criterion);
    campaign_paper_grid_1k(&mut criterion);
    swf_stream_ingest_1m(&mut criterion);
    simulate_fcfs_polaris_synth_1m(&mut criterion);
    write_trend_file(&criterion);
}
