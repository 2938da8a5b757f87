//! What `BENCHMARK.json` promises, checked against what the runs emit.

use std::collections::BTreeSet;

use crate::harness::{run_timed, run_traced};
use crate::json::Json;
use crate::spec::BenchSpec;

/// Input sizes are divided by this in tests.
const TEST_SCALE: usize = 50;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_meets_the_contract() {
    let root = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = root
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly these keys"
    );
    let command = root.get("command").unwrap().as_arr().unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.contains(".."),
            "{part}"
        );
    }
    assert_eq!(root.get("paths").unwrap().render(), "[\"benchmark\"]");

    let spec = BenchSpec::load().unwrap();
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let mut seen = BTreeSet::new();
    let metric_names = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| &m.name);
    for name in spec.workloads.iter().map(|(n, _)| n).chain(metric_names) {
        assert!(well_formed(name), "`{name}` is not a well-formed name");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }
    for (name, why) in &spec.workloads {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
    }
    for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
        let unit_ok = metric.unit.len() <= 16
            && metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        assert!(unit_ok, "{}: unit `{}`", metric.name, metric.unit);
    }
    for metric in &spec.end_to_end {
        let bound = metric.bound.unwrap_or(f64::NAN);
        assert!(
            (0.0..=0.25).contains(&bound),
            "{}: bound {bound}",
            metric.name
        );
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

/// Each workload at 1/50 size emits exactly the metric names
/// `BENCHMARK.json` lists — all end-to-end names from a timed run, all
/// per-layer names from a traced one — and passes its own output checks.
/// One test for all six: the span recorder and the campaign workload's
/// scratch directory are per process.
#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let _recorder = crate::trace::TEST_LOCK
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let spec = BenchSpec::load().unwrap();
    let end_to_end: BTreeSet<String> = spec.end_to_end.iter().map(|m| m.name.clone()).collect();
    let per_layer: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
    for (workload, _) in &spec.workloads {
        let timed = run_timed(workload, 7, 0.0, TEST_SCALE).expect("timed run");
        assert!(timed.correct, "{workload}: {:?}", timed.errors);
        assert!(timed.attempted >= 1 && timed.failed == 0);
        let names: BTreeSet<String> = timed.metrics.keys().cloned().collect();
        assert_eq!(names, end_to_end, "{workload}: end-to-end names");
        for (name, value) in &timed.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }

        let traced = run_traced(workload, 7, 0.0, TEST_SCALE, None).expect("traced run");
        assert!(traced.correct, "{workload}: {:?}", traced.errors);
        let names: BTreeSet<String> = traced.metrics.keys().cloned().collect();
        assert_eq!(names, per_layer, "{workload}: per-layer names");
        assert!(
            traced.metrics.values().all(|v| v.is_finite()),
            "{workload}: a metric is not finite"
        );
        assert!(traced.metrics["bench.spans"] > 0.0);

        // The result line is what `BENCHMARK.json` describes.
        let line = Json::parse(&timed.to_json(&spec).render()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }
}

/// The workloads exercise the layers the README says they do.
#[test]
fn workloads_exercise_and_bypass_the_layers_they_claim() {
    let _recorder = crate::trace::TEST_LOCK
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let traced = |workload: &str| {
        run_traced(workload, 11, 0.0, TEST_SCALE, None)
            .expect("traced run")
            .metrics
    };
    let sjf = traced("sjf_8k");
    assert!(sjf["schedulers.sjf.decide_calls"] > 0.0 && sjf["sim.run_s"] > 0.0);
    assert_eq!(sjf["llm.calls"], 0.0);
    assert_eq!(sjf["schedulers.conservative.decide_calls"], 0.0);
    assert_eq!(sjf["service.ticks"], 0.0);

    let agent = traced("agent_1k");
    assert!(agent["llm.calls"] > 0.0 && agent["core.agent_self_s"] > 0.0);
    assert!(agent["core.prompt_bytes_max"] >= agent["core.prompt_bytes_mean"]);
    assert_eq!(agent["schedulers.sjf.decide_calls"], 0.0);

    let backfill = traced("backfill_8k");
    assert!(backfill["schedulers.conservative.decide_calls"] > 0.0);
    assert!(backfill["schedulers.easy.decide_calls"] > 0.0);
    assert!(backfill["sim.backfills"] > 0.0);

    let replay = traced("trace_replay");
    assert!(replay["workloads.swf_rows"] > 0.0 && replay["workloads.swf_parse_s"] > 0.0);
    assert!(replay["schedulers.fcfs.decide_calls"] > 0.0);

    let grid = traced("paper_grid");
    assert_eq!(grid["campaign.cells"], grid["campaign.cache_hits_warm"]);
    assert!(grid["schedulers.or-tools.decide_calls"] > 0.0 && grid["llm.calls"] > 0.0);
    assert!(grid["campaign.run_cold_s"] > grid["campaign.run_warm_s"]);

    let service = traced("service_burst");
    assert!(service["service.admitted"] > 0.0 && service["service.rejected_queue_cap"] > 0.0);
    assert!(service["service.rejected_rate_limited"] > 0.0);
    assert_eq!(service["service.dropped_requests"], 0.0);
    assert_eq!(service["sim.run_s"], 0.0);
}
