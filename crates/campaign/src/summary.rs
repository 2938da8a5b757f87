//! Campaign analysis: per-`(scenario, jobs)` Pareto fronts over the
//! seed-averaged objective vectors, rendered as a byte-stable
//! `summary.json` and a `fronts.csv`.
//!
//! Objectives live on wildly different scales (seconds vs fractions), so
//! each group is min–max normalized per objective — 0 is the group's
//! best value, 1 its worst — before dominance ranking, and hypervolume
//! is measured against the reference point `1.1` in every normalized
//! coordinate. That makes hypervolume comparable across scenarios and
//! job counts: a policy alone at the ideal point scores `1.1^d`.
//!
//! Determinism: all inputs are canonical six-decimal values (see
//! [`crate::cell::canon`]), aggregation walks the spec axes in spec
//! order, and floats render through one fixed-precision formatter — so a
//! cache-warm rerun and a fresh run emit **byte-identical** files.

use rsched_metrics::pareto::{dominates, hypervolume, pareto_ranks};
use rsched_metrics::Metric;
// The byte-stability contract (escape rules + six-decimal floats) is
// shared with the per-cell artifact writer via `rsched_simkit::json`.
use rsched_simkit::json::{escape, num};

use crate::cell::{canon, CellResult};
use crate::spec::CampaignSpec;

/// The normalized-space reference point coordinate for hypervolume.
pub(crate) const REFERENCE: f64 = 1.1;

/// One policy's row in a group's Pareto table.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Policy registry name.
    pub policy: String,
    /// Non-dominated rank: 0 = on the Pareto front. `usize::MAX` (JSON
    /// `null`) if any objective is NaN.
    pub rank: usize,
    /// This policy's own hypervolume against the reference point.
    pub hypervolume: f64,
    /// Seed-averaged raw objective values, in objective order.
    pub objectives: Vec<f64>,
    /// Min–max normalized, minimization-oriented coordinates in `[0, 1]`.
    pub normalized: Vec<f64>,
    /// Policies in this group that strictly dominate this one (empty on
    /// the front), in spec order.
    pub dominated_by: Vec<String>,
}

/// The Pareto analysis of one `(scenario, jobs)` grid group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFront {
    /// Scenario name.
    pub scenario: String,
    /// Queue size.
    pub jobs: usize,
    /// Hypervolume of the group's Pareto front.
    pub front_hypervolume: f64,
    /// One row per participating policy, in spec order.
    pub rows: Vec<PolicyRow>,
}

impl GroupFront {
    /// The policies on the Pareto front (rank 0), in spec order.
    pub fn front(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.rank == 0)
            .map(|r| r.policy.as_str())
            .collect()
    }
}

/// The full campaign analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign name.
    pub campaign: String,
    /// The analyzed objectives, in order.
    pub objectives: Vec<Metric>,
    /// Grid axes, as specified.
    pub policies: Vec<String>,
    /// Scenario axis.
    pub scenarios: Vec<String>,
    /// Queue-size axis.
    pub jobs: Vec<usize>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Total cells in the grid.
    pub cells: usize,
    /// One front per `(scenario, jobs)` group, scenario-major.
    pub fronts: Vec<GroupFront>,
}

impl CampaignSummary {
    /// Analyze a completed grid (results in any order; cells are matched
    /// by coordinates).
    pub fn compute(spec: &CampaignSpec, results: &[CellResult]) -> CampaignSummary {
        let mut fronts = Vec::new();
        for scenario in &spec.scenarios {
            for &jobs in &spec.jobs {
                let policies: Vec<&String> = spec
                    .policies
                    .iter()
                    .filter(|p| !spec.is_excluded(p, jobs))
                    .collect();
                if policies.is_empty() {
                    continue;
                }
                fronts.push(group_front(spec, results, scenario, jobs, &policies));
            }
        }
        CampaignSummary {
            campaign: spec.name.clone(),
            objectives: spec.objectives.clone(),
            policies: spec.policies.clone(),
            scenarios: spec.scenarios.clone(),
            jobs: spec.jobs.clone(),
            seeds: spec.seeds.clone(),
            cells: results.len(),
            fronts,
        }
    }

    /// Render the byte-stable `summary.json` (fixed key order, one line
    /// per policy row, six-decimal floats).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\n  \"campaign\": \"{}\",\n",
            escape(&self.campaign)
        ));
        s.push_str(&format!(
            "  \"objectives\": [{}],\n",
            join(self.objectives.iter().map(|m| quote(m.key())))
        ));
        s.push_str(&format!(
            "  \"policies\": [{}],\n",
            join(self.policies.iter().map(|p| quote(p)))
        ));
        s.push_str(&format!(
            "  \"scenarios\": [{}],\n",
            join(self.scenarios.iter().map(|p| quote(p)))
        ));
        s.push_str(&format!(
            "  \"jobs\": [{}],\n",
            join(self.jobs.iter().map(usize::to_string))
        ));
        s.push_str(&format!(
            "  \"seeds\": [{}],\n",
            join(self.seeds.iter().map(u64::to_string))
        ));
        s.push_str(&format!("  \"cells\": {},\n", self.cells));
        s.push_str(&format!("  \"reference\": {},\n", num(REFERENCE)));
        s.push_str("  \"fronts\": [\n");
        for (g, group) in self.fronts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"jobs\": {}, \"front_hypervolume\": {}, \"policies\": [\n",
                escape(&group.scenario),
                group.jobs,
                num(group.front_hypervolume)
            ));
            for (i, row) in group.rows.iter().enumerate() {
                let rank = if row.rank == usize::MAX {
                    "null".to_string()
                } else {
                    row.rank.to_string()
                };
                let objectives = join(
                    self.objectives
                        .iter()
                        .zip(&row.objectives)
                        .map(|(m, &v)| format!("\"{}\":{}", m.key(), num(v))),
                );
                s.push_str(&format!(
                    "      {{\"policy\":\"{}\",\"rank\":{rank},\"hypervolume\":{},\
                     \"objectives\":{{{objectives}}},\"normalized\":[{}],\"dominated_by\":[{}]}}{}\n",
                    escape(&row.policy),
                    num(row.hypervolume),
                    join(row.normalized.iter().map(|&v| num(v))),
                    join(row.dominated_by.iter().map(|p| quote(p))),
                    comma(i, group.rows.len()),
                ));
            }
            s.push_str(&format!("    ]}}{}\n", comma(g, self.fronts.len())));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Render the front table as CSV: one row per `(scenario, jobs,
    /// policy)` with rank, hypervolumes, and the raw + normalized
    /// objective values.
    pub(crate) fn fronts_csv(&self) -> String {
        let mut header = vec![
            "scenario".to_string(),
            "jobs".to_string(),
            "policy".to_string(),
            "rank".to_string(),
            "hypervolume".to_string(),
            "front_hypervolume".to_string(),
        ];
        for m in &self.objectives {
            header.push(m.key().to_string());
        }
        for m in &self.objectives {
            header.push(format!("norm_{}", m.key()));
        }
        let mut rows = vec![header];
        for group in &self.fronts {
            for row in &group.rows {
                let mut out = vec![
                    group.scenario.clone(),
                    group.jobs.to_string(),
                    row.policy.clone(),
                    if row.rank == usize::MAX {
                        String::new()
                    } else {
                        row.rank.to_string()
                    },
                    num(row.hypervolume),
                    num(group.front_hypervolume),
                ];
                out.extend(row.objectives.iter().map(|&v| num(v)));
                out.extend(row.normalized.iter().map(|&v| num(v)));
                rows.push(out);
            }
        }
        rsched_simkit::csv::write_rows(rows)
    }
}

fn group_front(
    spec: &CampaignSpec,
    results: &[CellResult],
    scenario: &str,
    jobs: usize,
    policies: &[&String],
) -> GroupFront {
    let dim = spec.objectives.len();
    // Seed-averaged raw objective vectors, one per policy, spec order.
    let raw: Vec<Vec<f64>> = policies
        .iter()
        .map(|policy| {
            let cells: Vec<&CellResult> = results
                .iter()
                .filter(|r| {
                    r.cell.policy == **policy && r.cell.scenario == scenario && r.cell.jobs == jobs
                })
                .collect();
            assert!(
                !cells.is_empty(),
                "grid incomplete: no cells for {policy} × {scenario}/{jobs}"
            );
            spec.objectives
                .iter()
                .map(|&m| {
                    canon(cells.iter().map(|c| c.metric(m)).sum::<f64>() / cells.len() as f64)
                })
                .collect()
        })
        .collect();
    // Orient for minimization, then min–max normalize per objective.
    let oriented: Vec<Vec<f64>> = raw
        .iter()
        .map(|v| {
            v.iter()
                .zip(&spec.objectives)
                .map(|(&x, m)| if m.higher_is_better() { -x } else { x })
                .collect()
        })
        .collect();
    let normalized: Vec<Vec<f64>> = {
        let mut out = vec![vec![0.0; dim]; oriented.len()];
        for j in 0..dim {
            let column: Vec<f64> = oriented.iter().map(|v| v[j]).collect();
            let finite: Vec<f64> = column.iter().copied().filter(|v| v.is_finite()).collect();
            let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let range = max - min;
            for (i, &v) in column.iter().enumerate() {
                out[i][j] = if !v.is_finite() {
                    f64::NAN
                } else if range > 0.0 {
                    canon((v - min) / range)
                } else {
                    0.0
                };
            }
        }
        out
    };
    let ranks = pareto_ranks(&normalized);
    let reference = vec![REFERENCE; dim];
    let front_points: Vec<Vec<f64>> = normalized
        .iter()
        .zip(&ranks)
        .filter(|(_, &rank)| rank == 0)
        .map(|(p, _)| p.clone())
        .collect();
    let front_hypervolume = canon(hypervolume(&front_points, &reference));
    let rows: Vec<PolicyRow> = policies
        .iter()
        .enumerate()
        .map(|(i, policy)| PolicyRow {
            policy: (*policy).clone(),
            rank: ranks[i],
            hypervolume: canon(hypervolume(
                std::slice::from_ref(&normalized[i]),
                &reference,
            )),
            objectives: raw[i].clone(),
            normalized: normalized[i].clone(),
            dominated_by: policies
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i && dominates(&normalized[j], &normalized[i]))
                .map(|(_, p)| (*p).clone())
                .collect(),
        })
        .collect();
    GroupFront {
        scenario: scenario.to_string(),
        jobs,
        front_hypervolume,
        rows,
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

fn comma(index: usize, len: usize) -> &'static str {
    if index + 1 == len {
        ""
    } else {
        ","
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSpec;
    use crate::spec::CampaignSpec;

    fn spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "summary-test"
policies = ["A", "B", "C"]
scenarios = ["s1"]
jobs = [10]
seeds = [1, 2]
objectives = ["avg_wait", "node_util"]
"#,
        )
        .expect("parses")
    }

    /// One cell with the given wait and utilization (other metrics zero).
    fn cell(policy: &str, seed: u64, wait: f64, util: f64) -> CellResult {
        let mut metrics = [0.0; 8];
        metrics[1] = canon(wait); // avg_wait slot in Metric::all order
        metrics[4] = canon(util); // node_util slot
        CellResult {
            cell: CellSpec {
                policy: policy.to_string(),
                scenario: "s1".to_string(),
                jobs: 10,
                workload_seed: seed,
                policy_seed: seed,
            },
            metrics,
            placements: 10,
            epochs: 10,
        }
    }

    fn results() -> Vec<CellResult> {
        vec![
            // A: wait 10, util 0.9 — best wait, best util → dominates all.
            cell("A", 1, 10.0, 0.9),
            cell("A", 2, 10.0, 0.9),
            // B: wait 20, util 0.5 — dominated by A.
            cell("B", 1, 20.0, 0.5),
            cell("B", 2, 20.0, 0.5),
            // C: wait 30, util 0.7 — dominated by A, not by B (util).
            cell("C", 1, 30.0, 0.7),
            cell("C", 2, 30.0, 0.7),
        ]
    }

    #[test]
    fn fronts_rank_and_attribute_domination() {
        let summary = CampaignSummary::compute(&spec(), &results());
        assert_eq!(summary.fronts.len(), 1);
        let group = &summary.fronts[0];
        assert_eq!(group.front(), vec!["A"]);
        let ranks: Vec<usize> = group.rows.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![0, 1, 1], "B and C are both rank 1");
        assert_eq!(group.rows[1].dominated_by, vec!["A"]);
        assert_eq!(group.rows[2].dominated_by, vec!["A"]);
        // A at the ideal corner: normalized (0, 0) → HV = 1.1².
        assert!((group.rows[0].hypervolume - 1.21).abs() < 1e-9);
        assert!((group.front_hypervolume - 1.21).abs() < 1e-9);
        // Raw objective means survive unoriented.
        assert!((group.rows[2].objectives[0] - 30.0).abs() < 1e-9);
        assert!((group.rows[2].objectives[1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn seed_averaging_uses_all_replications() {
        let mut r = results();
        // Shift B's second seed so the mean moves.
        r[3] = cell("B", 2, 40.0, 0.5);
        let summary = CampaignSummary::compute(&spec(), &r);
        let b = &summary.fronts[0].rows[1];
        assert!((b.objectives[0] - 30.0).abs() < 1e-9, "mean of 20 and 40");
    }

    #[test]
    fn json_is_structured_and_stable() {
        let summary = CampaignSummary::compute(&spec(), &results());
        let json = summary.to_json();
        assert_eq!(json, summary.to_json(), "pure function");
        for needle in [
            "\"campaign\": \"summary-test\"",
            "\"objectives\": [\"avg_wait\", \"node_util\"]",
            "\"cells\": 6",
            "\"reference\": 1.100000",
            "\"front_hypervolume\": 1.210000",
            "\"policy\":\"A\",\"rank\":0",
            "\"dominated_by\":[\"A\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces outside strings.
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn csv_has_one_row_per_policy_and_group() {
        let summary = CampaignSummary::compute(&spec(), &results());
        let csv = summary.fronts_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 policies:\n{csv}");
        assert!(lines[0].starts_with("scenario,jobs,policy,rank,hypervolume,front_hypervolume"));
        assert!(lines[0].contains("norm_avg_wait"));
        assert!(lines[1].starts_with("s1,10,A,0,"));
    }

    #[test]
    fn identical_policies_all_share_the_front() {
        let r = vec![
            cell("A", 1, 10.0, 0.5),
            cell("A", 2, 10.0, 0.5),
            cell("B", 1, 10.0, 0.5),
            cell("B", 2, 10.0, 0.5),
            cell("C", 1, 10.0, 0.5),
            cell("C", 2, 10.0, 0.5),
        ];
        let summary = CampaignSummary::compute(&spec(), &r);
        let group = &summary.fronts[0];
        assert_eq!(group.front().len(), 3, "degenerate ranges tie at 0");
        assert!(group.rows.iter().all(|row| row.dominated_by.is_empty()));
    }
}
