//! Run any registry policy as a scheduler *service* against a scenario or
//! SWF-replayed arrival stream:
//!
//! ```text
//! # Deterministic replay through the service driver (bit-identical to the
//! # virtual-time simulator), with the full metrics report:
//! cargo run --release -p rsched-experiments --bin serve -- \
//!     --policy EASY --scenario heterogeneous_mix --jobs 200 --seed 7
//!
//! # The same stream through the live multi-tenant daemon (own thread,
//! # manual clock, per-tenant admission control):
//! cargo run --release -p rsched-experiments --bin serve -- \
//!     --policy FCFS --scenario long_tail --jobs 500 --daemon \
//!     --rate 64/8 --max-queued 256 --fair-share
//! ```
//!
//! Scenario names resolve through the open scenario registry, so
//! `--scenario swf:<path>` replays a Standard Workload Format archive as
//! the arrival stream. Tenant identity is each job's submitting user.

use rsched_cluster::ClusterConfig;
use rsched_metrics::MetricsReport;
use rsched_registry::{PolicyContext, PolicyRegistry};
use rsched_service::{
    replay, FairShareConfig, ManualClock, RateLimit, ServiceClock, ServiceConfig, ServiceDaemon,
    TenantId,
};
use rsched_sim::SimOptions;
use rsched_simkit::{SimDuration, SimTime};
use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--policy <name>] [--scenario <name>|swf:<path>] [--jobs N] [--seed N]\n\
         \x20            [--daemon] [--tick-ms N] [--rate <burst>/<per_sec>] [--max-queued N]\n\
         \x20            [--fair-share] [--metrics]\n\
         \n\
         Default mode replays the arrival stream through the service driver at exact\n\
         event times (bit-identical to the virtual-time simulator) and prints the\n\
         metrics report. --daemon runs the stream through the live service thread\n\
         with admission control instead. --metrics (replay mode) attaches a recording\n\
         telemetry sink and prints a Prometheus text exposition scrape after the run."
    );
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr>(value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => usage(),
    }
}

fn main() {
    let mut policy_name = "FCFS".to_string();
    let mut scenario = "heterogeneous_mix".to_string();
    let mut jobs_n: usize = 64;
    let mut seed: u64 = 42;
    let mut daemon_mode = false;
    let mut tick_ms: u64 = 100;
    let mut rate: Option<RateLimit> = None;
    let mut max_queued: Option<usize> = None;
    let mut fair_share = false;
    let mut metrics = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => policy_name = parse_or_usage(args.next()),
            "--scenario" => scenario = parse_or_usage(args.next()),
            "--jobs" => jobs_n = parse_or_usage(args.next()),
            "--seed" => seed = parse_or_usage(args.next()),
            "--daemon" => daemon_mode = true,
            "--tick-ms" => tick_ms = parse_or_usage(args.next()),
            "--rate" => {
                let spec: String = parse_or_usage(args.next());
                let Some((burst, per_sec)) = spec.split_once('/') else {
                    usage()
                };
                let (Ok(burst), Ok(per_sec)) = (burst.parse(), per_sec.parse()) else {
                    usage()
                };
                rate = Some(RateLimit { burst, per_sec });
            }
            "--max-queued" => max_queued = Some(parse_or_usage(args.next())),
            "--fair-share" => fair_share = true,
            "--metrics" => metrics = true,
            _ => usage(),
        }
    }

    let cluster = ClusterConfig::paper_default();
    let workload = match scenario_builtins().generate(
        &scenario,
        &ScenarioContext::new(jobs_n)
            .with_mode(ArrivalMode::Dynamic)
            .with_seed(seed),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("scenario {scenario:?}: {e}");
            std::process::exit(1);
        }
    };
    let jobs = workload.jobs;
    let registry = PolicyRegistry::with_builtins();
    let ctx = PolicyContext::new(&jobs, cluster).with_seed(seed);
    let Ok(policy) = registry.build(&policy_name, &ctx) else {
        eprintln!(
            "unknown policy {policy_name:?}; builtins: {}",
            registry.names().join(", ")
        );
        std::process::exit(1);
    };
    println!(
        "serve: policy={} scenario={scenario} jobs={} seed={seed} mode={}",
        policy.name(),
        jobs.len(),
        if daemon_mode { "daemon" } else { "replay" },
    );

    if daemon_mode {
        let mut config = ServiceConfig::new(cluster);
        config.tick = SimDuration::from_millis(tick_ms);
        config.admission.default_tenant.rate = rate;
        config.admission.default_tenant.max_queued = max_queued;
        config.admission.fair_share = FairShareConfig {
            enabled: fair_share,
            ..FairShareConfig::default()
        };

        let start = jobs.iter().map(|j| j.submit).min().unwrap_or(SimTime::ZERO);
        let clock = ManualClock::starting_at(start);
        let feeder = clock.clone();
        let daemon = ServiceDaemon::spawn(config, clock, {
            // Rebuild the policy on the daemon thread: policy boxes are
            // deliberately not Send (LLM-backed policies hold Rc state).
            let jobs = jobs.clone();
            move || {
                let ctx = PolicyContext::new(&jobs, cluster).with_seed(seed);
                PolicyRegistry::with_builtins()
                    .build(&policy_name, &ctx)
                    .expect("policy name validated above")
            }
        });
        let handle = daemon.handle();
        let mut stream = jobs.clone();
        stream.sort_by_key(|j| (j.submit, j.id));
        for job in stream {
            // Walk the shared clock to each arrival so the daemon's ticks
            // interleave with the stream like wall time would.
            if job.submit > feeder.now() {
                feeder.set(job.submit);
            }
            let tenant = TenantId(job.user.0);
            if handle.submit(tenant, job).is_err() {
                eprintln!("daemon stopped early");
                std::process::exit(1);
            }
        }
        match daemon.drain() {
            Ok(report) => {
                println!(
                    "report: submitted={} admitted={} rejected={} completed={} dropped={} ticks={}",
                    report.submitted,
                    report.admitted,
                    report.rejected,
                    report.completed,
                    report.dropped_requests,
                    report.ticks,
                );
                let t = report.tick_latency;
                println!(
                    "tick latency: n={} mean={:.3}ms p50={:.3}ms p99={:.3}ms max={:.3}ms",
                    t.count,
                    t.sum as f64 / t.count.max(1) as f64 / 1e6,
                    t.p50 as f64 / 1e6,
                    t.p99 as f64 / 1e6,
                    t.max as f64 / 1e6,
                );
                println!(
                    "kernel: queries={} placements={} backfills={} delays={} epochs={}",
                    report.stats.queries,
                    report.stats.placements,
                    report.stats.backfills,
                    report.stats.delays,
                    report.stats.epochs,
                );
            }
            Err(e) => {
                eprintln!("service error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        // The daemon runs its core on another thread; the Rc-based sink is
        // deliberately single-threaded, so --metrics is a replay-mode flag.
        let sink = if metrics {
            rsched_sim::TelemetrySink::recording()
        } else {
            rsched_sim::TelemetrySink::disabled()
        };
        match replay(
            cluster,
            &jobs,
            policy,
            &SimOptions::default(),
            &mut [],
            &sink,
        ) {
            Ok(outcome) => {
                println!(
                    "outcome: completed={} decisions={} end={}s",
                    outcome.records.len(),
                    outcome.decisions.len(),
                    outcome.end_time.as_secs_f64(),
                );
                let report = MetricsReport::compute(&outcome.records, cluster);
                println!("{report}");
                if let Some(snapshot) = sink.snapshot() {
                    print!(
                        "{}",
                        rsched_telemetry::export::prometheus(&snapshot, "rsched_")
                    );
                }
            }
            Err(e) => {
                eprintln!("service error: {e}");
                std::process::exit(1);
            }
        }
    }
}
