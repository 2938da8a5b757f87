//! Determinism and provenance pins for the telemetry subsystem:
//!
//! * identically-seeded runs emit **byte-identical** artifacts — the epoch
//!   JSONL trace, the span JSONL trace, the metrics snapshot JSON, the
//!   Prometheus exposition, and the Chrome trace-event document (wall-clock
//!   stamping off);
//! * every non-placement epoch in a trace carries a machine-readable
//!   [`DelayReason`], and placement/stop epochs never do;
//! * attaching a disabled (or recording) sink leaves the schedule — the
//!   decision log, job records, and provenance trace — bit-unchanged;
//! * the sink's harvested counters agree with the kernel's own stats.

use reasoned_scheduler::cluster::ClusterConfig;
use reasoned_scheduler::prelude::*;
use reasoned_scheduler::telemetry::{export, MetricValue};

const SCENARIO: &str = "heterogeneous_mix";
const JOBS: usize = 96;

fn workload_jobs(seed: u64) -> Vec<JobSpec> {
    scenario_builtins()
        .generate(
            SCENARIO,
            &ScenarioContext::new(JOBS)
                .with_mode(ArrivalMode::Dynamic)
                .with_seed(seed),
        )
        .expect("builtin scenario")
        .jobs
}

fn run_with_sink(policy_name: &str, seed: u64, sink: Option<&TelemetrySink>) -> SimOutcome {
    let cluster = ClusterConfig::paper_default();
    let jobs = workload_jobs(seed);
    let ctx = PolicyContext::new(&jobs, cluster).with_seed(seed);
    let mut policy = PolicyRegistry::with_builtins()
        .build(policy_name, &ctx)
        .expect("builtin policy");
    let mut sim = Simulation::new(cluster).jobs(&jobs);
    if let Some(sink) = sink {
        sim = sim.telemetry(sink);
    }
    sim.run(policy.as_mut()).expect("simulation completes")
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .entries()
        .iter()
        .find(|e| e.name == name)
        .and_then(|e| match e.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
}

/// One fully-instrumented run's exported artifacts, all as bytes.
fn artifacts(policy_name: &str, seed: u64) -> [String; 5] {
    let sink = TelemetrySink::recording();
    let outcome = run_with_sink(policy_name, seed, Some(&sink));
    let spans = sink.spans().expect("recording sink records spans");
    let snapshot = sink.snapshot().expect("recording sink snapshots");
    [
        export::epochs_to_jsonl(&outcome.epochs),
        export::spans_to_jsonl(&spans),
        snapshot.to_json(),
        export::prometheus(&snapshot, "rsched_"),
        export::chrome_trace(&spans),
    ]
}

#[test]
fn identical_seeds_emit_byte_identical_artifacts() {
    for policy in ["Conservative", "EASY", "FCFS", "SJF"] {
        let a = artifacts(policy, 7);
        let b = artifacts(policy, 7);
        for (name, (x, y)) in ["epochs", "spans", "metrics", "prometheus", "chrome"]
            .iter()
            .zip(a.iter().zip(b.iter()))
        {
            assert_eq!(x, y, "{policy}: {name} artifact not byte-stable");
            assert!(!x.is_empty(), "{policy}: {name} artifact empty");
        }
    }
}

#[test]
fn every_non_placement_epoch_carries_a_machine_readable_reason() {
    for policy in ["FCFS", "SJF", "EASY", "EASY-SJBF", "Conservative"] {
        let outcome = run_with_sink(policy, 7, None);
        assert!(!outcome.epochs.is_empty(), "{policy}: no epochs traced");
        let mut delays = 0usize;
        for epoch in &outcome.epochs {
            match epoch.outcome {
                EpochOutcome::Delay | EpochOutcome::ForcedDelay | EpochOutcome::Saturated => {
                    let reason = epoch
                        .reason
                        .as_ref()
                        .unwrap_or_else(|| panic!("{policy}: unexplained delay at {}", epoch.time));
                    assert!(!reason.code().is_empty());
                    delays += 1;
                }
                EpochOutcome::Placements { .. } | EpochOutcome::Stop => {
                    assert!(
                        epoch.reason.is_none(),
                        "{policy}: spurious reason on a productive epoch"
                    );
                }
            }
        }
        assert!(delays > 0, "{policy}: dynamic arrivals imply idle epochs");
    }
}

#[test]
fn sink_attachment_leaves_the_schedule_bit_unchanged() {
    let bare = run_with_sink("Conservative", 7, None);
    let disabled = run_with_sink("Conservative", 7, Some(&TelemetrySink::disabled()));
    let recording_sink = TelemetrySink::recording();
    let recording = run_with_sink("Conservative", 7, Some(&recording_sink));
    for (label, other) in [("disabled", &disabled), ("recording", &recording)] {
        assert_eq!(bare.decisions, other.decisions, "{label}: decision log");
        assert_eq!(bare.records, other.records, "{label}: job records");
        assert_eq!(bare.stats, other.stats, "{label}: kernel stats");
        assert_eq!(bare.end_time, other.end_time, "{label}: end time");
        assert_eq!(bare.epochs, other.epochs, "{label}: provenance trace");
    }
}

#[test]
fn harvested_counters_agree_with_kernel_stats() {
    let sink = TelemetrySink::recording();
    let outcome = run_with_sink("Conservative", 7, Some(&sink));
    let snapshot = sink.snapshot().expect("recording sink snapshots");
    let stats = &outcome.stats;
    assert_eq!(counter(&snapshot, "sim_epochs_total"), stats.epochs as u64);
    assert_eq!(
        counter(&snapshot, "sim_queries_total"),
        stats.queries as u64
    );
    assert_eq!(
        counter(&snapshot, "sim_placements_total"),
        stats.placements as u64
    );
    assert_eq!(
        counter(&snapshot, "sim_backfills_total"),
        stats.backfills as u64
    );
    assert_eq!(counter(&snapshot, "sim_delays_total"), stats.delays as u64);
    // Per-outcome epoch counters partition the epoch trace.
    let by_code = |code: &str| {
        outcome
            .epochs
            .iter()
            .filter(|e| e.outcome.code() == code)
            .count() as u64
    };
    for code in ["placements", "delay", "saturated"] {
        assert_eq!(
            counter(&snapshot, &format!("sim_epoch_{code}_total")),
            by_code(code),
            "sim_epoch_{code}_total"
        );
    }
    // The conservative policy's own instrumentation fired.
    assert!(counter(&snapshot, "sim_conservative_reservation_passes_total") > 0);
}

/// `long_tail` × `n` static jobs at seed 7 on Polaris under `policy`, a
/// recording sink attached: the jobs, the outcome, the metrics snapshot.
fn long_tail_run(
    policy: &mut dyn SchedulingPolicy,
    n: usize,
) -> (Vec<JobSpec>, SimOutcome, MetricsSnapshot) {
    let ctx = ScenarioContext::new(n)
        .with_mode(ArrivalMode::Static)
        .with_seed(7);
    let generated = scenario_builtins().generate("long_tail", &ctx);
    let jobs = generated.expect("builtin scenario").jobs;
    let sink = TelemetrySink::recording();
    let sim = Simulation::new(ClusterConfig::polaris()).jobs(&jobs);
    let outcome = sim.telemetry(&sink).run(policy);
    let snapshot = sink.snapshot().expect("recording sink snapshots");
    (jobs, outcome.expect("simulation completes"), snapshot)
}

/// The wait queue's shortest-first order, as work rather than seconds: SJF
/// builds it once, and a query examines at most one key per demand class
/// waiting (plus the one that ends a walk early) however deep the queue;
/// a policy that never asks "which job fits?" never builds it.
#[test]
fn queue_order_is_built_once_for_sjf_and_never_for_fcfs() {
    let order_counters = |policy: &mut dyn SchedulingPolicy| {
        let (jobs, outcome, snapshot) = long_tail_run(policy, 2000);
        let classes: std::collections::BTreeSet<(u64, u32)> =
            jobs.iter().map(|j| (j.memory_gb, j.nodes)).collect();
        (
            counter(&snapshot, "sim_queue_index_builds_total"),
            counter(&snapshot, "sim_queue_index_probes_total"),
            outcome.stats.queries as u64,
            classes.len() as u64,
        )
    };
    let (builds, probes, queries, classes) = order_counters(&mut Sjf::default());
    assert_eq!(builds, 1, "built at the first ask, maintained from then on");
    assert!(
        (1..=queries * (classes + 1)).contains(&probes),
        "{probes} probes over {queries} queries and {classes} demand classes"
    );
    let (builds, probes, ..) = order_counters(&mut Fcfs::default());
    assert_eq!((builds, probes), (0, 0), "FCFS never asks, so never pays");
}

/// Arrival-order EASY with the walk its pick replaced counted beside it:
/// behind a blocked head the linear walk read every waiting spec up to the
/// pick, the whole queue for a `Delay`.
struct WalkCounted {
    easy: EasyBackfill,
    specs: u64,
}

impl SchedulingPolicy for WalkCounted {
    fn name(&self) -> &str {
        self.easy.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        let action = self.easy.decide(view);
        let at = |id| view.waiting.iter().position(|j| j.id == id);
        self.specs += match action {
            Action::BackfillJob(id) => 1 + at(id).expect("the pick waits") as u64,
            Action::Delay => view.waiting.len() as u64,
            Action::StartJob(_) | Action::Stop => 0,
        };
        action
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.easy.provenance()
    }
}

/// The wait queue's arrival order, as work rather than seconds. EASY builds
/// it once; FCFS, SJF, Conservative and EASY-SJBF (a minimum over walltime,
/// which it does not answer) never do. And on the flat cell `backfill_8k`
/// times — `long_tail` × 8000 static jobs on Polaris — the index entries
/// EASY examines are an exact count, a fraction of the specs the walk read.
#[test]
fn arrival_order_is_built_once_for_easy_and_examines_a_fraction_of_the_walk() {
    let arrival_counters = |policy: &mut dyn SchedulingPolicy, n: usize| {
        let (.., snapshot) = long_tail_run(policy, n);
        (
            counter(&snapshot, "sim_queue_arrival_index_builds_total"),
            counter(&snapshot, "sim_queue_arrival_entries_total"),
        )
    };
    let (builds, entries) = arrival_counters(&mut EasyBackfill::new(), 2000);
    assert_eq!(builds, 1, "built at the first ask, maintained from then on");
    assert!(entries > 0);
    let never: [&mut dyn SchedulingPolicy; 4] = [
        &mut Fcfs::default(),
        &mut Sjf::default(),
        &mut ConservativeBackfill::new(),
        &mut EasyBackfill::sjbf(),
    ];
    for policy in never {
        let name = policy.name().to_owned();
        assert_eq!(arrival_counters(policy, 2000), (0, 0), "{name} never asks");
    }

    let mut counted = WalkCounted {
        easy: EasyBackfill::new(),
        specs: 0,
    };
    let (_, entries) = arrival_counters(&mut counted, 8000);
    let walked = counted.specs;
    assert!(walked > 10_000_000, "the walk read {walked} specs");
    assert!(
        entries * 100 <= walked * 30,
        "{entries} entries examined against {walked} specs walked"
    );
    let again = arrival_counters(&mut EasyBackfill::new(), 8000);
    assert_eq!(again, (1, entries), "exact counts");
}

/// The kernel's event heap, as a count rather than seconds: arrivals reach
/// the kernel from the driver's cursor, so the heap holds one completion
/// per running job — on a 5000-job Polaris replay never more than the
/// machine can run at once, where pre-loaded arrivals held all 5000 at
/// `t = 0`.
#[test]
fn event_heap_is_never_deeper_than_the_running_set() {
    use reasoned_scheduler::workloads::synth::polaris_synth_workload;

    let jobs = polaris_synth_workload(5000, 7);
    let sink = TelemetrySink::recording();
    let outcome = Simulation::new(ClusterConfig::polaris())
        .jobs(&jobs)
        .telemetry(&sink)
        .run(&mut Fcfs::default())
        .expect("simulation completes");
    let heap_peak = sink
        .with(|telemetry| telemetry.metrics.gauge("sim_event_heap_peak"))
        .flatten()
        .expect("the kernel harvests its heap peak");

    // Peak concurrency off the records: at one instant ends (-1) sort
    // ahead of starts (+1), as the driver retires before it places.
    let mut edges: Vec<(SimTime, i64)> = outcome
        .records
        .iter()
        .flat_map(|r| [(r.start, 1), (r.end, -1)])
        .collect();
    edges.sort_unstable();
    let running_peak = edges
        .iter()
        .scan(0i64, |running, &(_, step)| {
            *running += step;
            Some(*running)
        })
        .max()
        .expect("jobs ran");

    assert_eq!(
        heap_peak, running_peak,
        "one pending completion per running job"
    );
    assert!(
        (2..=560).contains(&running_peak),
        "{running_peak} jobs side by side"
    );
}
