//! The declarative campaign spec: which policies × scenarios × job
//! counts × seeds to sweep, which objectives to analyze, and the solver
//! budget — parsed from a TOML-subset file and validated against the two
//! open registries **before any cell runs**.

use rsched_cluster::ClusterConfig;
use rsched_cpsolver::SolverConfig;
use rsched_metrics::Metric;
use rsched_registry::PolicyRegistry;
use rsched_workloads::ScenarioRegistry;

use crate::error::CampaignError;
use crate::toml::{TomlTable, TomlValue};

/// A declarative sweep campaign: the full grid is the cross product
/// `scenarios × jobs × policies × seeds`, minus its `exclude` list.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name — the `results/campaigns/<name>/` directory key.
    /// Restricted to `[A-Za-z0-9_-]` so it is always a safe path segment.
    pub name: String,
    /// Policy registry names (builtin or third-party registrations).
    pub policies: Vec<String>,
    /// Scenario registry names, including `swf:<path>` trace references.
    pub scenarios: Vec<String>,
    /// Queue sizes to sweep.
    pub jobs: Vec<usize>,
    /// Replication seeds: each seeds both the workload generator and (via
    /// a per-policy seed tree) the stochastic policies.
    pub seeds: Vec<u64>,
    /// The objectives analyzed in the Pareto report (§3.2 metric keys).
    pub objectives: Vec<Metric>,
    /// `(policy, jobs)` grid points excluded from the sweep, spelled
    /// `"Policy/jobs"` in the spec — the escape hatch for policies that
    /// are intractable at a given scale.
    pub(crate) exclude: Vec<(String, usize)>,
    /// Solver budget for solver-backed policies.
    pub solver: SolverConfig,
    /// The machine; `None` means [`ClusterConfig::paper_default`].
    pub cluster: Option<ClusterConfig>,
    /// Walltime-estimate skew applied to every generated workload: declared
    /// walltimes are stretched to `duration × skew` (`1.0` = exact
    /// estimates, the default). Models users who over-request walltime,
    /// which is what separates the estimate-aware backfill variants from
    /// their baselines.
    pub walltime_skew: f64,
}

impl CampaignSpec {
    /// Parse a campaign spec from TOML-subset text.
    pub fn parse(text: &str) -> Result<CampaignSpec, CampaignError> {
        let table = TomlTable::parse(text)?;
        for key in table.keys() {
            if !KNOWN_KEYS.contains(&key) {
                return Err(CampaignError::Validation(format!(
                    "unknown key `{key}` (known: {})",
                    KNOWN_KEYS.join(", ")
                )));
            }
        }
        let name = req_str(&table, "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(CampaignError::Validation(format!(
                "campaign name `{name}` must be non-empty [A-Za-z0-9_-]"
            )));
        }
        let policies = req_str_list(&table, "policies")?;
        let scenarios = req_str_list(&table, "scenarios")?;
        let jobs = req_int_list(&table, "jobs")?
            .into_iter()
            .map(|v| usize::try_from(v).map_err(|_| bad_int("jobs", v)))
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = req_int_list(&table, "seeds")?
            .into_iter()
            .map(|v| u64::try_from(v).map_err(|_| bad_int("seeds", v)))
            .collect::<Result<Vec<_>, _>>()?;
        if jobs.contains(&0) {
            return Err(CampaignError::Validation(
                "`jobs` entries must be positive".to_string(),
            ));
        }
        let objectives = match table.get("objectives") {
            None => default_objectives(),
            Some(value) => str_list("objectives", value)?
                .iter()
                .map(|key| {
                    Metric::from_key(key).ok_or_else(|| {
                        CampaignError::Validation(format!(
                            "unknown objective `{key}` (known: {})",
                            Metric::all().map(|m| m.key()).join(", ")
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let exclude = match table.get("exclude") {
            None => Vec::new(),
            Some(value) => str_list("exclude", value)?
                .iter()
                .map(|pattern| parse_exclude(pattern))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let solver = solver_from(&table)?;
        let cluster = cluster_from(&table)?;
        let walltime_skew = match table.get("walltime_skew") {
            None => 1.0,
            Some(v) => v
                .as_float()
                .filter(|s| s.is_finite() && *s >= 1.0)
                .ok_or_else(|| {
                    CampaignError::Validation(
                        "`walltime_skew` must be a finite number >= 1.0".to_string(),
                    )
                })?,
        };
        let spec = CampaignSpec {
            name,
            policies,
            scenarios,
            jobs,
            seeds,
            objectives,
            exclude,
            solver,
            cluster,
            walltime_skew,
        };
        spec.check_internal()?;
        Ok(spec)
    }

    /// Read and parse a spec file; parse errors are anchored to `path`.
    pub fn load(path: &str) -> Result<CampaignSpec, CampaignError> {
        let text = std::fs::read_to_string(path).map_err(|e| CampaignError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        CampaignSpec::parse(&text).map_err(|e| match e {
            CampaignError::Parse { location, message } => CampaignError::Parse {
                location: format!("{path}: {location}"),
                message,
            },
            other => other,
        })
    }

    /// Validate every grid axis against the registries the campaign will
    /// run with: unknown policy or scenario names fail here, before any
    /// cell executes. `swf:<path>` scenario names additionally require
    /// the trace file to exist.
    pub fn validate(
        &self,
        policies: &PolicyRegistry,
        scenarios: &ScenarioRegistry,
    ) -> Result<(), CampaignError> {
        for name in &self.policies {
            if !policies.contains(name) {
                return Err(CampaignError::Validation(format!(
                    "unknown policy `{name}` (known: {})",
                    policies.names().join(", ")
                )));
            }
        }
        for name in &self.scenarios {
            if !scenarios.contains(name) {
                return Err(CampaignError::Validation(format!(
                    "unknown scenario `{name}` (known: {})",
                    scenarios.names().join(", ")
                )));
            }
            if let Some(path) = name.strip_prefix("swf:") {
                if !std::path::Path::new(path).is_file() {
                    return Err(CampaignError::Validation(format!(
                        "scenario `{name}`: trace file `{path}` does not exist"
                    )));
                }
            }
        }
        for (policy, jobs) in &self.exclude {
            if !self.policies.iter().any(|p| p.eq_ignore_ascii_case(policy)) {
                return Err(CampaignError::Validation(format!(
                    "exclusion `{policy}/{jobs}` names a policy outside the campaign"
                )));
            }
            if !self.jobs.contains(jobs) {
                return Err(CampaignError::Validation(format!(
                    "exclusion `{policy}/{jobs}` names a job count outside the campaign"
                )));
            }
        }
        Ok(())
    }

    /// `true` if the `(policy, jobs)` grid point is excluded.
    pub(crate) fn is_excluded(&self, policy: &str, jobs: usize) -> bool {
        self.exclude
            .iter()
            .any(|(p, n)| *n == jobs && p.eq_ignore_ascii_case(policy))
    }

    /// The machine the campaign runs on.
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster.unwrap_or_else(ClusterConfig::paper_default)
    }

    /// The machine as a spec names it: `preset <name>` for a
    /// `[cluster] preset` machine, `<nodes> nodes × <memory_gb> GB`
    /// otherwise.
    pub(crate) fn machine(&self) -> String {
        let cluster = self.cluster();
        match presets()
            .into_iter()
            .find(|&(_, machine)| machine == cluster)
        {
            Some((preset, _)) => format!("preset {preset}"),
            None => format!("{} nodes × {} GB", cluster.nodes, cluster.memory_gb),
        }
    }

    fn check_internal(&self) -> Result<(), CampaignError> {
        for (axis, len) in [
            ("policies", self.policies.len()),
            ("scenarios", self.scenarios.len()),
            ("jobs", self.jobs.len()),
            ("seeds", self.seeds.len()),
            ("objectives", self.objectives.len()),
        ] {
            if len == 0 {
                return Err(CampaignError::Validation(format!(
                    "`{axis}` must list at least one entry"
                )));
            }
        }
        // Name axes fold the way the registries do (case-insensitive;
        // scenarios also treat `-`/`_` as equivalent), so "Random" and
        // "random" cannot smuggle the same policy into the grid twice.
        for (axis, dups) in [
            ("policies", dup_by(&self.policies, |p| p.to_lowercase())),
            (
                "scenarios",
                dup_by(&self.scenarios, |s| s.to_lowercase().replace('-', "_")),
            ),
            ("jobs", dup(&self.jobs)),
            ("seeds", dup(&self.seeds)),
            ("objectives", dup(&self.objectives)),
        ] {
            if let Some(d) = dups {
                return Err(CampaignError::Validation(format!(
                    "`{axis}` lists `{d}` more than once"
                )));
            }
        }
        Ok(())
    }
}

/// The paper's four headline objectives — the single definition lives on
/// [`ObjectiveSpace::paper_default`](rsched_metrics::ObjectiveSpace::paper_default).
fn default_objectives() -> Vec<Metric> {
    rsched_metrics::ObjectiveSpace::paper_default()
        .metrics()
        .to_vec()
}

const KNOWN_KEYS: &[&str] = &[
    "name",
    "policies",
    "scenarios",
    "jobs",
    "seeds",
    "objectives",
    "exclude",
    "walltime_skew",
    "solver.sa_iterations_per_task",
    "solver.sa_iteration_cap",
    "cluster.nodes",
    "cluster.memory_gb",
    "cluster.preset",
];

fn dup<T: PartialEq + std::fmt::Debug>(items: &[T]) -> Option<String> {
    for (i, a) in items.iter().enumerate() {
        if items[..i].contains(a) {
            return Some(format!("{a:?}"));
        }
    }
    None
}

/// [`dup`] under a key-folding projection (registry-style name matching).
fn dup_by<T: std::fmt::Debug, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> Option<String> {
    let keys: Vec<K> = items.iter().map(&key).collect();
    for (i, k) in keys.iter().enumerate() {
        if keys[..i].contains(k) {
            return Some(format!("{:?}", items[i]));
        }
    }
    None
}

fn bad_int(axis: &str, v: i64) -> CampaignError {
    CampaignError::Validation(format!("`{axis}` entry {v} is out of range"))
}

fn req_str(table: &TomlTable, key: &str) -> Result<String, CampaignError> {
    match table.get(key) {
        Some(TomlValue::Str(s)) => Ok(s.clone()),
        Some(_) => Err(CampaignError::Validation(format!(
            "`{key}` must be a string"
        ))),
        None => Err(CampaignError::Validation(format!("missing `{key}`"))),
    }
}

fn str_list(key: &str, value: &TomlValue) -> Result<Vec<String>, CampaignError> {
    let items = value
        .as_list()
        .ok_or_else(|| CampaignError::Validation(format!("`{key}` must be an array of strings")))?;
    items
        .iter()
        .map(|v| {
            v.as_str().map(str::to_string).ok_or_else(|| {
                CampaignError::Validation(format!("`{key}` must contain only strings"))
            })
        })
        .collect()
}

fn req_str_list(table: &TomlTable, key: &str) -> Result<Vec<String>, CampaignError> {
    match table.get(key) {
        Some(value) => str_list(key, value),
        None => Err(CampaignError::Validation(format!("missing `{key}`"))),
    }
}

fn req_int_list(table: &TomlTable, key: &str) -> Result<Vec<i64>, CampaignError> {
    let value = table
        .get(key)
        .ok_or_else(|| CampaignError::Validation(format!("missing `{key}`")))?;
    let items = value.as_list().ok_or_else(|| {
        CampaignError::Validation(format!("`{key}` must be an array of integers"))
    })?;
    items
        .iter()
        .map(|v| {
            v.as_int().ok_or_else(|| {
                CampaignError::Validation(format!("`{key}` must contain only integers"))
            })
        })
        .collect()
}

fn parse_exclude(pattern: &str) -> Result<(String, usize), CampaignError> {
    let Some((policy, jobs)) = pattern.rsplit_once('/') else {
        return Err(CampaignError::Validation(format!(
            "exclusion `{pattern}` must be spelled `Policy/jobs` (e.g. `OR-Tools/10000`)"
        )));
    };
    let jobs: usize = jobs.trim().parse().map_err(|_| {
        CampaignError::Validation(format!(
            "exclusion `{pattern}`: `{jobs}` is not a job count"
        ))
    })?;
    let policy = policy.trim();
    if policy.is_empty() {
        return Err(CampaignError::Validation(format!(
            "exclusion `{pattern}` has an empty policy name"
        )));
    }
    Ok((policy.to_string(), jobs))
}

fn solver_from(table: &TomlTable) -> Result<SolverConfig, CampaignError> {
    let mut solver = SolverConfig::default();
    let int = |key: &str| -> Result<Option<i64>, CampaignError> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_int()
                .map(Some)
                .ok_or_else(|| CampaignError::Validation(format!("`{key}` must be an integer"))),
        }
    };
    if let Some(v) = int("solver.sa_iterations_per_task")? {
        solver.sa_iterations_per_task =
            u32::try_from(v).map_err(|_| bad_int("solver.sa_iterations_per_task", v))?;
    }
    if let Some(v) = int("solver.sa_iteration_cap")? {
        solver.sa_iteration_cap =
            u32::try_from(v).map_err(|_| bad_int("solver.sa_iteration_cap", v))?;
    }
    Ok(solver)
}

/// The `[cluster] preset` names and the machines they stand for.
fn presets() -> [(&'static str, ClusterConfig); 3] {
    [
        ("paper_default", ClusterConfig::paper_default()),
        ("mixed_256", ClusterConfig::mixed_256()),
        ("polaris", ClusterConfig::polaris()),
    ]
}

fn cluster_from(table: &TomlTable) -> Result<Option<ClusterConfig>, CampaignError> {
    let nodes = table.get("cluster.nodes");
    let memory = table.get("cluster.memory_gb");
    if let Some(preset) = table.get("cluster.preset") {
        if nodes.is_some() || memory.is_some() {
            return Err(CampaignError::Validation(
                "`cluster.preset` excludes `cluster.nodes`/`cluster.memory_gb`".to_string(),
            ));
        }
        let name = preset.as_str().ok_or_else(|| {
            CampaignError::Validation("`cluster.preset` must be a string".to_string())
        })?;
        return match presets().into_iter().find(|&(preset, _)| preset == name) {
            Some((_, machine)) => Ok(Some(machine)),
            None => Err(CampaignError::Validation(format!(
                "unknown cluster preset `{name}` (known: {})",
                presets().map(|(preset, _)| preset).join(", ")
            ))),
        };
    }
    match (nodes, memory) {
        (None, None) => Ok(None),
        (Some(n), Some(m)) => {
            let n = n
                .as_int()
                .filter(|&v| v > 0 && v <= i64::from(u32::MAX))
                .ok_or_else(|| {
                    CampaignError::Validation("`cluster.nodes` must be a positive integer".into())
                })?;
            let m = m.as_int().filter(|&v| v > 0).ok_or_else(|| {
                CampaignError::Validation("`cluster.memory_gb` must be a positive integer".into())
            })?;
            Ok(Some(ClusterConfig::new(n as u32, m as u64)))
        }
        _ => Err(CampaignError::Validation(
            "`[cluster]` needs both `nodes` and `memory_gb`".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_workloads::scenario_builtins;

    const MINIMAL: &str = r#"
name = "smoke"
policies = ["FCFS", "SJF"]
scenarios = ["heterogeneous_mix", "resource_sparse"]
jobs = [60]
seeds = [2025, 2026]
"#;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = CampaignSpec::parse(MINIMAL).expect("parses");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.policies, vec!["FCFS", "SJF"]);
        assert_eq!(spec.jobs, vec![60]);
        assert_eq!(spec.seeds, vec![2025, 2026]);
        assert_eq!(spec.objectives, default_objectives());
        assert!(spec.exclude.is_empty());
        assert_eq!(spec.solver, SolverConfig::default());
        assert_eq!(spec.cluster, None);
        assert_eq!(spec.cluster().nodes, ClusterConfig::paper_default().nodes);
        assert_eq!(spec.walltime_skew, 1.0);
    }

    #[test]
    fn cluster_preset_resolves_the_mixed_class_machine() {
        let text = format!("{MINIMAL}\nwalltime_skew = 1.5\n[cluster]\npreset = \"mixed_256\"");
        let spec = CampaignSpec::parse(&text).expect("parses");
        let cluster = spec.cluster();
        assert_eq!(cluster, ClusterConfig::mixed_256());
        assert!(!cluster.topology.is_flat());
        assert_eq!(spec.walltime_skew, 1.5);
        // Integer skew widens like any other float-position value.
        let int_skew = format!("{MINIMAL}\nwalltime_skew = 2");
        assert_eq!(
            CampaignSpec::parse(&int_skew)
                .expect("parses")
                .walltime_skew,
            2.0
        );
        let flat = format!("{MINIMAL}\n[cluster]\npreset = \"paper_default\"");
        assert_eq!(
            CampaignSpec::parse(&flat).expect("parses").cluster(),
            ClusterConfig::paper_default()
        );
    }

    #[test]
    fn full_spec_parses_every_field() {
        let text = r#"
name = "full-grid_1"
policies = ["FCFS", "OR-Tools"]
scenarios = ["long_tail"]
jobs = [60, 1000]
seeds = [1]
objectives = ["makespan", "node_util"]
exclude = ["OR-Tools/1000"]

[solver]
sa_iterations_per_task = 10
sa_iteration_cap = 20

[cluster]
nodes = 16
memory_gb = 128
"#;
        let spec = CampaignSpec::parse(text).expect("parses");
        assert_eq!(
            spec.objectives,
            vec![Metric::Makespan, Metric::NodeUtilization]
        );
        assert_eq!(spec.exclude, vec![("OR-Tools".to_string(), 1000)]);
        assert!(spec.is_excluded("or-tools", 1000), "case-insensitive");
        assert!(!spec.is_excluded("OR-Tools", 60));
        assert_eq!(spec.solver.sa_iterations_per_task, 10);
        assert_eq!(spec.solver.sa_iteration_cap, 20);
        assert_eq!(spec.cluster().nodes, 16);
        assert_eq!(spec.cluster().memory_gb, 128);
    }

    #[test]
    fn rejects_unknown_and_malformed_fields() {
        for (mutation, needle) in [
            ("typo_key = 1", "unknown key `typo_key`"),
            ("objectives = [\"power\"]", "unknown objective `power`"),
            ("exclude = [\"FCFS\"]", "must be spelled `Policy/jobs`"),
            ("exclude = [\"FCFS/many\"]", "not a job count"),
            ("[cluster]\nnodes = 4", "needs both"),
            ("[solver]\nsa_iteration_cap = -1", "out of range"),
            ("[cluster]\npreset = \"summit\"", "unknown cluster preset"),
            (
                "[cluster]\npreset = \"mixed_256\"\nnodes = 4",
                "excludes `cluster.nodes`",
            ),
            ("walltime_skew = 0.5", "must be a finite number >= 1.0"),
            ("walltime_skew = \"high\"", "must be a finite number"),
        ] {
            let text = format!("{MINIMAL}\n{mutation}");
            let err = CampaignSpec::parse(&text).expect_err(mutation);
            assert!(err.to_string().contains(needle), "{mutation}: {err}");
        }
    }

    #[test]
    fn rejects_empty_and_duplicate_axes() {
        let empty = MINIMAL.replace("jobs = [60]", "jobs = []");
        assert!(CampaignSpec::parse(&empty)
            .unwrap_err()
            .to_string()
            .contains("`jobs` must list at least one"));
        let dup = MINIMAL.replace("[2025, 2026]", "[2025, 2025]");
        assert!(CampaignSpec::parse(&dup)
            .unwrap_err()
            .to_string()
            .contains("more than once"));
        // Name axes fold like the registries: "sjf" aliases "SJF", and
        // "resource-sparse" aliases "resource_sparse".
        let dup_case = MINIMAL.replace("\"FCFS\", \"SJF\"", "\"FCFS\", \"SJF\", \"sjf\"");
        assert!(CampaignSpec::parse(&dup_case)
            .unwrap_err()
            .to_string()
            .contains("more than once"));
        let dup_sep = MINIMAL.replace(
            "\"resource_sparse\"",
            "\"resource_sparse\", \"Resource-Sparse\"",
        );
        assert!(CampaignSpec::parse(&dup_sep)
            .unwrap_err()
            .to_string()
            .contains("more than once"));
        let zero = MINIMAL.replace("jobs = [60]", "jobs = [0]");
        assert!(CampaignSpec::parse(&zero)
            .unwrap_err()
            .to_string()
            .contains("positive"));
        let bad_name = MINIMAL.replace("\"smoke\"", "\"has space\"");
        assert!(CampaignSpec::parse(&bad_name)
            .unwrap_err()
            .to_string()
            .contains("A-Za-z0-9"));
    }

    #[test]
    fn validation_rejects_unknown_names_before_any_run() {
        let policies = PolicyRegistry::with_builtins();
        let scenarios = scenario_builtins();
        let spec = CampaignSpec::parse(MINIMAL).expect("parses");
        spec.validate(&policies, scenarios).expect("all builtin");

        let mut bad = spec.clone();
        bad.policies.push("PBS-Pro".to_string());
        assert!(bad
            .validate(&policies, scenarios)
            .unwrap_err()
            .to_string()
            .contains("unknown policy `PBS-Pro`"));

        let mut bad = spec.clone();
        bad.scenarios.push("weekend_lull".to_string());
        assert!(bad
            .validate(&policies, scenarios)
            .unwrap_err()
            .to_string()
            .contains("unknown scenario"));

        let mut bad = spec.clone();
        bad.scenarios
            .push("swf:/definitely/not/here.swf".to_string());
        assert!(bad
            .validate(&policies, scenarios)
            .unwrap_err()
            .to_string()
            .contains("does not exist"));

        let mut bad = spec.clone();
        bad.exclude.push(("EASY".to_string(), 60));
        assert!(bad
            .validate(&policies, scenarios)
            .unwrap_err()
            .to_string()
            .contains("outside the campaign"));

        let mut bad = spec;
        bad.exclude.push(("FCFS".to_string(), 999));
        assert!(bad
            .validate(&policies, scenarios)
            .unwrap_err()
            .to_string()
            .contains("outside the campaign"));
    }

    #[test]
    fn load_anchors_errors_to_the_path() {
        match CampaignSpec::load("/not/a/real/spec.toml") {
            Err(CampaignError::Io { path, .. }) => assert!(path.contains("spec.toml")),
            other => panic!("unexpected {other:?}"),
        }
        let dir = std::env::temp_dir().join("rsched_campaign_spec_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.toml");
        std::fs::write(&path, "name 3").expect("writes");
        match CampaignSpec::load(path.to_str().unwrap()) {
            Err(CampaignError::Parse { location, .. }) => {
                assert!(location.contains("bad.toml: line 1"), "{location}")
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
