//! `BENCHMARK.json`, compiled in: the one list of workloads, metric names,
//! units and bounds that the runner, `compare` and the tests all read.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    pub fn load() -> Result<BenchSpec, String> {
        BenchSpec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: text_of(item, "better")? == "higher",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|item| Ok((text_of(item, "name")?, text_of(item, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn unit(&self, metric: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == metric)
            .map(|m| m.unit.as_str())
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}
