//! `compare`: gate one saved result file on another.
//!
//! For every (end-to-end metric, workload) it prints how much worse the
//! candidate's median is than the baseline's, as a share of the baseline,
//! against the metric's bound, and fails outside it. A pairing whose
//! run-to-run spread is wider than its bound is labelled unresolved: the
//! comparison cannot tell it from unchanged. Failed operations may not
//! rise, and when both files were measured from the same seed every exact
//! count and the outcome fingerprint must be identical.

use crate::json::Json;
use crate::layers::is_exact;
use crate::spec::BenchSpec;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare_files(baseline: &str, candidate: &str, spec: &BenchSpec) -> Result<bool, String> {
    let (report, ok) = compare(&load(baseline)?, &load(candidate)?, spec)?;
    print!("{report}");
    Ok(ok)
}

/// The printed report and whether the candidate is within every bound.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    spec: &BenchSpec,
) -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut ok = true;
    let same_seed = match (
        baseline.get("env").and_then(|e| e.get("seed")),
        candidate.get("env").and_then(|e| e.get("seed")),
    ) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    let workloads = baseline
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("baseline: no `workloads`")?;
    for (workload, base) in workloads {
        let Some(cand) = candidate.get("workloads").and_then(|w| w.get(workload)) else {
            report.push_str(&format!("{workload}: missing from the candidate  FAIL\n"));
            ok = false;
            continue;
        };
        report.push_str(&format!("{workload}\n"));
        for metric in &spec.end_to_end {
            let field = |side: &Json, key: &str| {
                side.get("end_to_end")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(a), Some(b)) = (field(base, "median"), field(cand, "median")) else {
                report.push_str(&format!("  {:<16} missing  FAIL\n", metric.name));
                ok = false;
                continue;
            };
            let bound = metric.bound.unwrap_or(0.0);
            let worse = if a == 0.0 {
                0.0
            } else if metric.higher_is_better {
                (a - b) / a.abs()
            } else {
                (b - a) / a.abs()
            };
            let spread = field(base, "spread")
                .unwrap_or(0.0)
                .max(field(cand, "spread").unwrap_or(0.0));
            let verdict = if worse > bound {
                ok = false;
                "FAIL"
            } else if spread > bound {
                "unresolved (spread wider than the bound)"
            } else {
                "ok"
            };
            report.push_str(&format!(
                "  {:<16} {:>14.6} -> {:>14.6} {:<6} {:>+8.2}% worse, bound {:.0}%, spread {:.1}%  {verdict}\n",
                metric.name,
                a,
                b,
                metric.unit,
                100.0 * worse,
                100.0 * bound,
                100.0 * spread,
            ));
        }
        let failed_frac = |side: &Json| {
            side.get("failed_frac")
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        };
        let correct = cand.get("correct").and_then(Json::as_bool).unwrap_or(false);
        if !correct || failed_frac(cand) > failed_frac(base) {
            ok = false;
            report.push_str(&format!(
                "  failed_frac      {} -> {} (output checks {})  FAIL\n",
                failed_frac(base),
                failed_frac(cand),
                if correct { "passed" } else { "failed" }
            ));
        }
        if same_seed {
            let mut moved = 0;
            for metric in spec.per_layer.iter().filter(|m| is_exact(&m.name)) {
                let value = |side: &Json| {
                    side.get("per_layer")
                        .and_then(|m| m.get(&metric.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                };
                if value(base) != value(cand) {
                    moved += 1;
                    ok = false;
                    report.push_str(&format!(
                        "  {:<36} {:?} -> {:?}  FAIL (exact values must repeat)\n",
                        metric.name,
                        value(base),
                        value(cand)
                    ));
                }
            }
            if moved == 0 {
                report.push_str("  exact counts and sim.outcome_fnv48 identical\n");
            }
        }
    }
    report.push_str(if ok {
        "compare: within every bound\n"
    } else {
        "compare: OUTSIDE a bound\n"
    });
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, rss: f64, fnv: f64) -> Json {
        let metric =
            |median: f64| Json::obj([("median", Json::Num(median)), ("spread", Json::Num(0.01))]);
        Json::obj([
            ("env", Json::obj([("seed", Json::Num(1.0))])),
            (
                "workloads",
                Json::obj([(
                    "sjf_8k",
                    Json::obj([
                        ("correct", Json::Bool(true)),
                        ("failed_frac", Json::Num(0.0)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("wall_s", metric(wall)),
                                ("cpu_s", metric(wall)),
                                ("peak_rss_mb", metric(rss)),
                                ("setup_s", metric(0.5)),
                                ("submit_per_s", metric(8000.0 / wall)),
                            ]),
                        ),
                        (
                            "per_layer",
                            Json::Obj(
                                BenchSpec::load()
                                    .unwrap()
                                    .per_layer
                                    .iter()
                                    .map(|m| {
                                        let v = if m.name == "sim.outcome_fnv48" {
                                            fnv
                                        } else {
                                            1.0
                                        };
                                        (m.name.clone(), Json::obj([("value", Json::Num(v))]))
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn passes_inside_the_bounds_and_fails_outside() {
        let spec = BenchSpec::load().unwrap();
        let base = result(1.0, 100.0, 7.0);
        let (_, ok) = compare(&base, &result(1.04, 101.0, 7.0), &spec).unwrap();
        assert!(ok, "4% slower is inside every wall bound");
        let (report, ok) = compare(&base, &result(1.5, 100.0, 7.0), &spec).unwrap();
        assert!(!ok && report.contains("FAIL"), "{report}");
        let (_, ok) = compare(&base, &result(0.5, 100.0, 7.0), &spec).unwrap();
        assert!(ok, "faster is never a failure");
        let (report, ok) = compare(&base, &result(1.0, 100.0, 8.0), &spec).unwrap();
        assert!(!ok && report.contains("sim.outcome_fnv48"), "{report}");
    }
}
