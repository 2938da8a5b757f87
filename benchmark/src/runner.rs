//! `run`: every workload in a child process of its own, every metric
//! printed by name with its unit, the lot saved as one result file.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::quartiles_exclusive;
use crate::Args;

struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Run one measured run in a child and read its last line back.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: could not start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload}: the child run printed no result ({})",
            output.status
        )
    })?;
    let result = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: result lacks `{key}`"))
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result lacks `metrics`"))?
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("{workload}: metric `{name}` has no value"))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildRun {
        correct: result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false)
            && output.status.success(),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn environment(seed: u64, runs: usize, seconds: f64) -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
        ),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("rustc", Json::str(rustc)),
        (
            "scan_workers_env",
            Json::str(std::env::var("RSCHED_SCAN_WORKERS").unwrap_or_else(|_| "unset".to_string())),
        ),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("run_seconds", Json::Num(seconds)),
    ])
}

fn end_to_end_entry(metric: &MetricSpec, values: &[f64]) -> Json {
    let (q1, med, q3) = quartiles_exclusive(values);
    Json::obj([
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "spread",
            Json::Num(if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }),
        ),
        ("unit", Json::str(metric.unit.clone())),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

pub fn run(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let seed: u64 = args.number("--seed")?.unwrap_or(2025);
    let seconds: f64 = args.number("--seconds")?.unwrap_or(spec.run_seconds);
    let runs: usize = args.number("--runs")?.unwrap_or(1).max(1);
    let selected: Vec<&str> = match (args.flag("--all"), args.value("--workload")) {
        (true, _) => spec
            .workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect(),
        (false, Some(name)) if spec.has_workload(name) => vec![name],
        (false, Some(name)) => return Err(format!("unknown workload `{name}`")),
        (false, None) => return Err("run: give --all or --workload <name>".to_string()),
    };
    let out_path = args
        .value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| crate::out_dir().join("results.json"));

    // Round robin, not workload by workload: the machine's speed drifts
    // over minutes, and a workload whose runs are spread over the whole set
    // sees the same weather as every other one and as the next set.
    let mut timed_runs: Vec<Vec<ChildRun>> = selected.iter().map(|_| Vec::new()).collect();
    for i in 0..runs {
        for (workload, timed) in selected.iter().zip(&mut timed_runs) {
            eprintln!("-- timed run {} of {runs}: {workload}", i + 1);
            timed.push(child(workload, seed + i as u64, seconds, false)?);
        }
    }

    let mut all_correct = true;
    let mut saved = Vec::new();
    for (workload, timed) in selected.into_iter().zip(timed_runs) {
        let why = spec
            .workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map_or("", |(_, why)| why.as_str());
        eprintln!("-- traced run: {workload}");
        let traced = child(workload, seed, seconds, true)?;
        println!("== {workload} — {why}");

        let correct = traced.correct && timed.iter().all(|r| r.correct);
        let attempted: f64 = traced.attempted + timed.iter().map(|r| r.attempted).sum::<f64>();
        let failed: f64 = traced.failed + timed.iter().map(|r| r.failed).sum::<f64>();
        all_correct &= correct;

        let mut end_to_end = Vec::new();
        for metric in &spec.end_to_end {
            let values: Vec<f64> = timed
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| *n == metric.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            if values.len() != runs {
                return Err(format!(
                    "{workload}: a run did not report `{}`",
                    metric.name
                ));
            }
            let (q1, med, q3) = quartiles_exclusive(&values);
            println!(
                "  {:<36} {:>16.6} {:<8} (q1 {q1:.6}, q3 {q3:.6}, {} run(s), bound {})",
                metric.name,
                med,
                metric.unit,
                values.len(),
                metric.bound.unwrap_or(0.0),
            );
            end_to_end.push((metric.name.clone(), end_to_end_entry(metric, &values)));
        }
        println!(
            "  {:<36} {:>16.6} {:<8} ({failed} of {attempted} operations)",
            "failed_frac",
            failed / attempted.max(1.0),
            "ratio"
        );
        let mut per_layer = Vec::new();
        for metric in &spec.per_layer {
            let value = traced
                .metrics
                .iter()
                .find(|(n, _)| *n == metric.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| {
                    format!(
                        "{workload}: the traced run did not report `{}`",
                        metric.name
                    )
                })?;
            println!("  {:<36} {:>16.6} {}", metric.name, value, metric.unit);
            per_layer.push((
                metric.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(metric.unit.clone())),
                ]),
            ));
        }
        println!(
            "  output checks: {}",
            if correct { "all passed" } else { "FAILED" }
        );
        saved.push((
            workload.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_frac", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }

    let file = Json::obj([
        ("env", environment(seed, runs, seconds)),
        ("workloads", Json::Obj(saved)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, file.pretty()).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("results written to {}", out_path.display());
    Ok(all_correct)
}
