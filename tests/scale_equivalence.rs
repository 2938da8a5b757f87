//! The **scale differential harness**: every fast path introduced for
//! million-job replays is pinned bit-identical to the reference path it
//! replaces.
//!
//! * streaming SWF parse/conversion vs the eager `SwfTrace` API, on the
//!   shipped fixture and on seeded Polaris-scale synthetic text;
//! * full simulations over streaming- vs eager-converted jobs, across
//!   3 policies × 2 scenarios × 2 seeds, compared field-for-field down to
//!   the f64 bit patterns of the integrated utilization curves;
//! * a campaign whose cells are sharded over a 2-worker pool vs the
//!   1-worker run of the same grid, compared as `summary.json` bytes;
//! * an `#[ignore]`d release-mode 1M-job FCFS replay smoke with a
//!   wall-clock bound (`cargo test --release -- --ignored million_job`),
//!   run by CI: a per-epoch fan-out in the kernel blows the bound on any
//!   multi-core runner.

use reasoned_scheduler::campaign::{Campaign, CampaignSpec, NullObserver};
use reasoned_scheduler::cluster::ClusterConfig;
use reasoned_scheduler::parallel::ThreadPool;
use reasoned_scheduler::registry::{PolicyContext, PolicyRegistry};
use reasoned_scheduler::sim::{SimOutcome, Simulation};
use reasoned_scheduler::workloads::swf::{SwfReader, SwfTrace};
use reasoned_scheduler::workloads::synth::{polaris_synth_text, polaris_synth_workload};

const POLICIES: [&str; 3] = ["FCFS", "SJF", "EASY"];
const SEEDS: [u64; 2] = [2025, 2026];

fn sample_swf_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/sample.swf");
    std::fs::read_to_string(path).expect("fixture readable")
}

/// Bit-level outcome comparison: every integer field must be equal and
/// every float field must carry the identical bit pattern.
fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{label}: policy name");
    assert_eq!(a.records, b.records, "{label}: job records");
    assert_eq!(a.decisions, b.decisions, "{label}: decision log");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.end_time, b.end_time, "{label}: end time");
    assert_eq!(
        a.node_seconds.to_bits(),
        b.node_seconds.to_bits(),
        "{label}: node-seconds bits"
    );
    assert_eq!(
        a.memory_gb_seconds.to_bits(),
        b.memory_gb_seconds.to_bits(),
        "{label}: memory-GB-seconds bits"
    );
}

#[test]
fn streaming_parse_is_identical_to_eager_on_the_shipped_fixture() {
    let text = sample_swf_text();
    let eager = SwfTrace::parse(&text).expect("fixture parses");

    let mut reader = SwfReader::from_text(&text);
    let streamed: Result<Vec<_>, _> = (&mut reader).collect();
    let streamed = streamed.expect("fixture streams");
    assert_eq!(streamed, eager.jobs, "same rows in the same order");
    assert_eq!(
        reader.into_directives(),
        eager.directives,
        "same header directives"
    );

    // Conversion parity across truncation limits, including "all".
    for limit in [0usize, 1, 3, 1000] {
        let converted = SwfReader::from_text(&text)
            .into_jobs(limit)
            .expect("streams");
        assert_eq!(converted, eager.to_jobs(limit), "limit {limit}");
    }
}

#[test]
fn streaming_parse_is_identical_to_eager_on_synthetic_polaris_text() {
    for seed in SEEDS {
        let text = polaris_synth_text(2_000, seed);
        let eager = SwfTrace::parse(&text).expect("synthetic text parses");
        let streamed = SwfReader::from_text(&text)
            .into_jobs(2_000)
            .expect("synthetic text streams");
        assert_eq!(streamed, eager.to_jobs(2_000), "seed {seed}");
        assert_eq!(
            streamed,
            polaris_synth_workload(2_000, seed),
            "seed {seed}: text round-trip equals the direct generator"
        );
    }
}

/// 3 policies × 2 scenarios × 2 seeds: a full simulation over the
/// streaming-converted jobs is bit-identical to one over the
/// eager-converted jobs.
#[test]
fn simulation_outcomes_are_bit_identical_streaming_vs_eager() {
    let registry = PolicyRegistry::with_builtins();
    let fixture = sample_swf_text();
    for seed in SEEDS {
        // Scenario A: the shipped archive fixture on its own derived
        // machine. Scenario B: seeded Polaris-scale synthetic text on the
        // Polaris machine.
        let scenarios: [(&str, String, ClusterConfig); 2] = [
            (
                "sample.swf",
                fixture.clone(),
                SwfTrace::parse(&fixture).expect("parses").cluster(),
            ),
            (
                "polaris_synth",
                polaris_synth_text(300, seed),
                ClusterConfig::polaris(),
            ),
        ];
        for (name, text, cluster) in scenarios {
            let eager_jobs = SwfTrace::parse(&text).expect("parses").to_jobs(0);
            let stream_jobs = SwfReader::from_text(&text).into_jobs(0).expect("streams");
            assert_eq!(eager_jobs, stream_jobs, "{name}/{seed}: converted jobs");
            for policy in POLICIES {
                let label = format!("{policy}/{name}/{seed}");
                let ctx = PolicyContext::new(&eager_jobs, cluster).with_seed(seed);
                let mut p1 = registry.build(policy, &ctx).expect("builtin policy");
                let a = Simulation::new(cluster)
                    .jobs(&eager_jobs)
                    .run(p1.as_mut())
                    .unwrap_or_else(|e| panic!("{label} (eager): {e}"));
                let ctx = PolicyContext::new(&stream_jobs, cluster).with_seed(seed);
                let mut p2 = registry.build(policy, &ctx).expect("builtin policy");
                let b = Simulation::new(cluster)
                    .jobs(&stream_jobs)
                    .run(p2.as_mut())
                    .unwrap_or_else(|e| panic!("{label} (streaming): {e}"));
                assert_outcomes_identical(&a, &b, &label);
            }
        }
    }
}

/// The sharded-campaign contract: the same grid run on 1 worker and on 2
/// workers produces byte-identical `summary.json` files (cells merge in
/// grid order regardless of completion order).
#[test]
fn sharded_campaign_summary_bytes_match_the_serial_run() {
    let spec_text = r#"
name = "scale-diff"
policies = ["FCFS", "SJF", "EASY"]
scenarios = ["homogeneous_short", "adversarial"]
jobs = [60]
seeds = [2025, 2026]
"#;
    let base = std::env::temp_dir().join(format!("rsched_scale_diff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut summaries = Vec::new();
    for workers in [1usize, 2] {
        let spec = CampaignSpec::parse(spec_text).expect("spec parses");
        let out_root = base.join(format!("w{workers}"));
        let pool = ThreadPool::new(workers);
        let outcome = Campaign::new(spec)
            .out_root(&out_root)
            .run_observed(&pool, &mut NullObserver)
            .expect("campaign runs");
        assert_eq!(
            outcome.results.len(),
            12,
            "3 policies × 2 scenarios × 2 seeds"
        );
        let bytes =
            std::fs::read(out_root.join("scale-diff/summary.json")).expect("summary written");
        summaries.push(bytes);
    }
    assert_eq!(
        summaries[0], summaries[1],
        "summary.json must be byte-identical across worker counts"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// Release-mode scale smoke: a 1M-job FCFS replay of the synthetic
/// Polaris stream must complete — correctly — inside a generous
/// wall-clock bound (`examples/streaming_replay -- 1000000` prints the
/// real figure). Run with:
///
/// ```text
/// cargo test --release --test scale_equivalence -- --ignored million_job
/// ```
#[test]
#[ignore = "release-mode scale smoke (~seconds in release, minutes in debug)"]
fn million_job_fcfs_replay_completes_within_bound() {
    let n = 1_000_000;
    let jobs = polaris_synth_workload(n, 2025);
    assert_eq!(jobs.len(), n);
    let cluster = ClusterConfig::polaris();
    let registry = PolicyRegistry::with_builtins();
    let mut policy = registry
        .build("FCFS", &PolicyContext::new(&jobs, cluster).with_seed(2025))
        .expect("builtin policy");
    let started = std::time::Instant::now();
    let outcome = Simulation::new(cluster)
        .jobs(&jobs)
        .run(policy.as_mut())
        .expect("replay completes");
    let elapsed = started.elapsed();
    assert_eq!(outcome.records.len(), n, "every job completed");
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "1M-job FCFS replay took {elapsed:?} (bound: 30 s)"
    );
}
