//! From one traced run to the per-layer metrics of `BENCHMARK.json`.
//!
//! The same assembly serves every workload: a layer the workload bypasses
//! recorded no span and no count, and its metrics read 0 — which is the
//! statement "this workload does not exercise that layer", by name.

use std::collections::BTreeMap;

use crate::harness::{PassClock, PassOutput};
use crate::stats::{median, quantile_sorted};
use crate::trace::{NameTotals, Recording};
use crate::wrap::{
    PolicyKey, ALL_POLICY_KEYS, CLAUDE37, CONSERVATIVE, EASY, FCFS, O4_MINI, OR_TOOLS, SJF,
};

/// Policies that get the full `decide`/`observe` breakdown; the rest of
/// the paper's seven report `decide_s` only.
const DETAILED: [&PolicyKey; 4] = [&FCFS, &SJF, &EASY, &CONSERVATIVE];
const AGENTS: [&PolicyKey; 2] = [&CLAUDE37, &O4_MINI];

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn percentile_ns(totals: Option<&NameTotals>, q: f64) -> f64 {
    totals.map_or(0.0, |t| {
        let as_f64: Vec<f64> = t.durations_ns.iter().map(|&ns| ns as f64).collect();
        quantile_sorted(&as_f64, q)
    })
}

/// Per-layer metrics that are a function of the inputs alone — counts,
/// ratios of counts, simulated-time outputs, the outcome fingerprint.
/// Every traced pass must report the same value, and so must two run sets
/// of the same seed. Everything else is a measured time (or a process
/// counter the kernel keeps) and is reported as a median.
pub fn is_exact(metric: &str) -> bool {
    const EXACT: [&str; 33] = [
        "workloads.swf_rows",
        "workloads.swf_bytes",
        "workloads.swf_rows_unusable",
        "sim.epochs",
        "sim.queries",
        "sim.placements",
        "sim.backfills",
        "sim.delays",
        "sim.rejections",
        "sim.epochs_saturated",
        "sim.queue_len_max",
        "sim.makespan_s",
        "sim.avg_wait_s",
        "sim.node_util",
        "sim.outcome_fnv48",
        "core.prompt_bytes_mean",
        "core.prompt_bytes_max",
        "core.malformed_completions",
        "core.invalid_action_ratio",
        "llm.calls",
        "llm.prompt_tokens",
        "llm.completion_tokens",
        "llm.sim_latency_s",
        "campaign.cells",
        "campaign.cache_hits_warm",
        "service.admitted",
        "service.rejected_rate_limited",
        "service.rejected_queue_cap",
        "service.ticks",
        "service.tick_samples",
        "service.completed",
        "service.dropped_requests",
        "telemetry.spans",
    ];
    EXACT.contains(&metric)
        || (metric.starts_with("schedulers.")
            && (metric.ends_with(".decide_calls") || metric.ends_with(".placement_ratio")))
}

/// The metrics of one traced pass, split by whether they are measured
/// (times: the run reports their median over passes) or exact (counts and
/// outputs: every pass must give the same value).
struct PassMetrics {
    measured: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
}

fn pass_metrics(
    recording: &Recording,
    setup: &BTreeMap<&'static str, NameTotals>,
    pass: u32,
    clock: &PassClock,
    out: &PassOutput,
    untraced_wall_s: f64,
) -> PassMetrics {
    let names = recording.by_name(pass);
    let total = |name: &str| names.get(name).map_or(0.0, |t| secs(t.total_ns));
    let own = |name: &str| names.get(name).map_or(0.0, |t| secs(t.self_ns));
    let calls = |name: &str| names.get(name).map_or(0.0, |t| t.calls as f64);
    let setup_total = |name: &str| setup.get(name).map_or(0.0, |t| secs(t.total_ns));
    let counter = |name: &'static str| recording.counter(name, pass);
    let given = |name: &str| out.exact.get(name).copied();
    let timing = |name: &str| out.timings.get(name).copied().unwrap_or(0.0);
    let sum_over = |keys: &[&PolicyKey], pick: fn(&PolicyKey) -> &'static str| -> f64 {
        keys.iter().map(|k| counter(pick(k))).sum()
    };

    let mut measured = BTreeMap::new();
    let mut exact = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        let side = if is_exact(name) {
            &mut exact
        } else {
            &mut measured
        };
        side.insert(name.to_string(), value);
    };

    put("proc.user_s", clock.proc.user_s);
    put("proc.sys_s", clock.proc.sys_s);
    put("proc.minor_faults", clock.proc.minor_faults);
    put("proc.ctx_switches", clock.proc.ctx_switches);

    put(
        "workloads.synth_text_s",
        setup_total("workloads.synth_text"),
    );
    put(
        "workloads.scenario_generate_s",
        setup_total("workloads.scenario_generate") + total("workloads.scenario_generate"),
    );
    put("workloads.swf_parse_s", total("workloads.swf_parse"));
    put("workloads.swf_convert_s", total("workloads.swf_convert"));
    for name in [
        "workloads.swf_rows",
        "workloads.swf_bytes",
        "workloads.swf_rows_unusable",
    ] {
        put(name, given(name).unwrap_or(0.0));
    }

    // Kernel counts come from `SimOutcome::stats` where the workload
    // drives the simulator itself, and from what the policy wrappers saw
    // where the simulator runs inside the campaign engine.
    let epochs = given("sim.epochs").unwrap_or(0.0);
    put("sim.run_s", total("sim.run"));
    put("sim.kernel_self_s", own("sim.run"));
    put(
        "sim.kernel_self_ns_per_epoch",
        if epochs > 0.0 && calls("sim.run") > 0.0 {
            own("sim.run") * 1e9 / epochs
        } else {
            0.0
        },
    );
    put("sim.epochs", epochs);
    let all: &[&PolicyKey] = &ALL_POLICY_KEYS;
    put(
        "sim.queries",
        given("sim.queries").unwrap_or_else(|| sum_over(all, |k| k.queries)),
    );
    put(
        "sim.placements",
        given("sim.placements").unwrap_or_else(|| sum_over(all, |k| k.placements)),
    );
    put(
        "sim.backfills",
        given("sim.backfills").unwrap_or_else(|| sum_over(all, |k| k.backfills)),
    );
    put(
        "sim.delays",
        given("sim.delays").unwrap_or_else(|| sum_over(all, |k| k.delays)),
    );
    put(
        "sim.rejections",
        given("sim.rejections").unwrap_or_else(|| sum_over(all, |k| k.rejections)),
    );
    for name in [
        "sim.epochs_saturated",
        "sim.queue_len_max",
        "sim.makespan_s",
        "sim.avg_wait_s",
        "sim.node_util",
    ] {
        put(name, given(name).unwrap_or(0.0));
    }
    put("sim.outcome_fnv48", out.fingerprint as f64);

    for key in ALL_POLICY_KEYS {
        put(
            &format!("schedulers.{}.decide_s", key.key),
            total(key.decide),
        );
    }
    put("schedulers.or-tools.decide_calls", calls(OR_TOOLS.decide));
    for key in DETAILED {
        let p = key.key;
        put(&format!("schedulers.{p}.decide_calls"), calls(key.decide));
        put(
            &format!("schedulers.{p}.decide_p50_ns"),
            percentile_ns(names.get(key.decide), 0.5),
        );
        put(
            &format!("schedulers.{p}.decide_p99_ns"),
            percentile_ns(names.get(key.decide), 0.99),
        );
        put(&format!("schedulers.{p}.observe_s"), total(key.observe));
        let queries = counter(key.queries);
        put(
            &format!("schedulers.{p}.placement_ratio"),
            if queries > 0.0 {
                counter(key.placements) / queries
            } else {
                0.0
            },
        );
    }

    let agent_queries = sum_over(&AGENTS, |k| k.queries);
    let llm_calls = calls("llm.complete");
    put(
        "core.agent_self_s",
        AGENTS.iter().map(|k| own(k.decide) + own(k.observe)).sum(),
    );
    put(
        "core.prompt_bytes_mean",
        if llm_calls > 0.0 {
            counter("core.prompt_bytes") / llm_calls
        } else {
            0.0
        },
    );
    put("core.prompt_bytes_max", counter("core.prompt_bytes_max"));
    put(
        "core.malformed_completions",
        counter("core.malformed_completions"),
    );
    put(
        "core.invalid_action_ratio",
        if agent_queries > 0.0 {
            sum_over(&AGENTS, |k| k.rejections) / agent_queries
        } else {
            0.0
        },
    );

    put("llm.complete_s", total("llm.complete"));
    put("llm.calls", llm_calls);
    put(
        "llm.complete_p50_ns",
        percentile_ns(names.get("llm.complete"), 0.5),
    );
    put(
        "llm.complete_p99_ns",
        percentile_ns(names.get("llm.complete"), 0.99),
    );
    put("llm.prompt_tokens", counter("llm.prompt_tokens"));
    put("llm.completion_tokens", counter("llm.completion_tokens"));
    put("llm.sim_latency_s", counter("llm.sim_latency_s"));
    put("llm.prompt_parse_s", timing("llm.prompt_parse_s"));

    put("metrics.report_s", total("metrics.report"));
    put("metrics.pareto_s", timing("metrics.pareto_s"));

    put("campaign.run_cold_s", total("campaign.run"));
    put("campaign.run_warm_s", timing("campaign.run_warm_s"));
    put("campaign.cells", given("campaign.cells").unwrap_or(0.0));
    put(
        "campaign.cache_hits_warm",
        given("campaign.cache_hits_warm").unwrap_or(0.0),
    );
    put("campaign.engine_self_s", own("campaign.run"));
    // The traced campaign pass runs on one worker so that its cells do not
    // overlap; the same pass untraced, over the timed two-worker passes,
    // is what the second worker buys.
    let one_worker_s = timing("campaign.run_cold_1w_s");
    put(
        "parallel.speedup_2w",
        if one_worker_s > 0.0 && untraced_wall_s > 0.0 {
            one_worker_s / untraced_wall_s
        } else {
            0.0
        },
    );

    put("service.submit_s", total("service.submit"));
    put("service.ingest_admit_s", total("service.ingest_tick"));
    for name in [
        "service.admitted",
        "service.rejected_rate_limited",
        "service.rejected_queue_cap",
        "service.ticks",
        "service.tick_samples",
        "service.completed",
        "service.dropped_requests",
    ] {
        put(name, given(name).unwrap_or(0.0));
    }
    put(
        "service.tick_p50_ns",
        percentile_ns(names.get("service.tick"), 0.5),
    );
    put(
        "service.tick_p99_ns",
        percentile_ns(names.get("service.tick"), 0.99),
    );
    put("service.drain_s", total("service.drain"));

    let reference_s = if one_worker_s > 0.0 {
        one_worker_s
    } else {
        untraced_wall_s
    };
    put(
        "bench.trace_overhead_frac",
        if reference_s > 0.0 {
            clock.wall_s / reference_s - 1.0
        } else {
            0.0
        },
    );
    PassMetrics { measured, exact }
}

/// Every per-layer metric of the run except `bench.spans` — medians of the
/// measured ones over the traced passes, the exact ones, and the probes —
/// and a message for each exact one that did not repeat on every pass.
pub fn per_layer_metrics(
    recording: &Recording,
    traced: &[(u32, PassClock, PassOutput)],
    untraced_wall_s: f64,
    probes: &BTreeMap<&'static str, f64>,
) -> (BTreeMap<String, f64>, Vec<String>) {
    let setup = recording.by_name(0);
    let passes: Vec<PassMetrics> = traced
        .iter()
        .map(|(pass, clock, out)| {
            pass_metrics(recording, &setup, *pass, clock, out, untraced_wall_s)
        })
        .collect();
    let mut metrics = BTreeMap::new();
    let mut not_repeating = Vec::new();
    let Some(first) = passes.first() else {
        return (metrics, not_repeating);
    };
    for name in first.measured.keys() {
        let values: Vec<f64> = passes.iter().map(|p| p.measured[name]).collect();
        metrics.insert(name.clone(), median(&values));
    }
    for (name, value) in &first.exact {
        for (index, other) in passes.iter().enumerate().skip(1) {
            if other.exact[name] != *value {
                not_repeating.push(format!(
                    "{name} does not repeat: {value} on traced pass 1, {} on pass {}",
                    other.exact[name],
                    index + 1
                ));
            }
        }
        metrics.insert(name.clone(), *value);
    }
    for (name, value) in probes {
        metrics.insert(name.to_string(), *value);
    }
    (metrics, not_repeating)
}
