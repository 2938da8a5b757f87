//! One grid cell: `(policy, scenario, jobs, seed)`, its content hash,
//! and its canonical result.
//!
//! Cells are **content-addressed**: the hash folds in every input that
//! can change the cell's outcome (the four grid coordinates, the solver
//! budget, the cluster) plus a workspace-version salt and a cache format
//! version — so editing a spec, bumping the workspace, or changing the
//! cache layout each invalidate exactly the cells they affect, and
//! nothing else.

use rsched_cluster::ClusterConfig;
use rsched_cpsolver::SolverConfig;
use rsched_metrics::{Metric, MetricsReport};
use rsched_simkit::rng::SeedTree;

/// Bumped whenever the cached-cell layout changes incompatibly, or a
/// policy's schedules do (2: the solver behind `OR-Tools` decodes on the
/// shared timetable and starts tasks the old decoder placed late; 3:
/// `EASY` keeps its own head reservation, where by name it used to run
/// as first-fit with none).
pub const CACHE_FORMAT: u32 = 3;

/// One `(policy, scenario, jobs, seed)` coordinate of the campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Policy registry name.
    pub policy: String,
    /// Scenario registry name (or `swf:<path>`).
    pub scenario: String,
    /// Queue size.
    pub jobs: usize,
    /// Replication seed.
    pub seed: u64,
}

impl CellSpec {
    /// The workload generator seed: the replication seed itself, so every
    /// policy at a given `(scenario, jobs, seed)` faces the identical
    /// workload.
    pub fn workload_seed(&self) -> u64 {
        self.seed
    }

    /// The stochastic-policy seed, derived per policy from the
    /// replication seed so policies never share RNG streams.
    pub fn policy_seed(&self) -> u64 {
        SeedTree::new(self.seed).derive(&self.policy, 0)
    }

    /// Content hash of this cell under the given execution environment
    /// (solver budget + cluster + walltime skew), salted with the
    /// workspace version and [`CACHE_FORMAT`].
    ///
    /// Classed topology and a non-unit walltime skew are folded in as
    /// *conditional* trailing segments: a flat cluster with exact
    /// estimates hashes exactly as it did before either knob existed, so
    /// no previously cached flat-grid cell is invalidated. The literals
    /// `9,500000` before the solver budget and `false` after it are where
    /// removed knobs were printed (the size limit and node budget of the
    /// solver's exact stage, and `use_genetic`), at the defaults every
    /// cached cell was run with.
    pub fn content_hash(&self, solver: &SolverConfig, cluster: ClusterConfig, skew: f64) -> u64 {
        use std::fmt::Write as _;
        let mut canonical = format!(
            "rsched-campaign|fmt{CACHE_FORMAT}|ws{}|{}|{}|{}|{}|solver:9,500000,{},{},false|cluster:{},{}",
            env!("CARGO_PKG_VERSION"),
            self.policy.to_lowercase(),
            self.scenario.to_lowercase(),
            self.jobs,
            self.seed,
            solver.sa_iterations_per_task,
            solver.sa_iteration_cap,
            cluster.nodes,
            cluster.memory_gb,
        );
        if !cluster.topology.is_flat() {
            canonical.push_str("|topology:");
            for (_, spec) in cluster.topology.classes() {
                let c = spec.capacity;
                let _ = write!(
                    canonical,
                    "{}x{:?}({},{},{},{});",
                    spec.count, spec.class, c.cpus, c.gpus, c.memory_gb, c.bb_slots
                );
            }
        }
        if skew != 1.0 {
            let _ = write!(canonical, "|skew:{}", crate::toml::fmt_float(skew));
        }
        fnv1a64(canonical.as_bytes())
    }

    /// A short human-readable label: `policy × scenario/jobs seed=N`.
    pub fn label(&self) -> String {
        format!(
            "{} × {}/{} seed={}",
            self.policy, self.scenario, self.jobs, self.seed
        )
    }

    /// The cache file name for this cell: readable coordinates plus the
    /// content hash, so a `ls` of the cells directory doubles as a grid
    /// manifest.
    pub fn file_name(&self, hash: u64) -> String {
        format!(
            "{}__{}__j{}__s{}__{hash:016x}.toml",
            sanitize(&self.policy),
            sanitize(&self.scenario),
            self.jobs,
            self.seed
        )
    }
}

/// FNV-1a, 64-bit — stable across platforms and versions, unlike
/// `DefaultHasher`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fold a name into a file-system-safe slug (`swf:a/b.swf` →
/// `swf-a-b.swf`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Round to the canonical six-decimal precision every campaign artifact
/// uses. All aggregation and Pareto analysis runs on canonical values, so
/// a cell computed fresh and a cell read back from its cache file are
/// **bit-identical** — the root of the byte-identical `summary.json`
/// guarantee. Non-finite values pass through unchanged.
pub fn canon(v: f64) -> f64 {
    if v.is_finite() {
        crate::toml::fmt_float(v).parse().expect("fixed-precision")
    } else {
        v
    }
}

/// The canonical outcome of one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell this result belongs to.
    pub cell: CellSpec,
    /// The eight §3.2 metrics in [`Metric::all`] order, canonically
    /// rounded.
    pub metrics: [f64; 8],
    /// Jobs placed (equals `jobs` for completing runs).
    pub placements: u64,
    /// Decision epochs the simulator ran.
    pub epochs: u64,
}

impl CellResult {
    /// Canonicalize a freshly computed report into a cell result.
    pub fn new(cell: CellSpec, report: &MetricsReport, placements: u64, epochs: u64) -> Self {
        let mut metrics = [0.0; 8];
        for (slot, m) in metrics.iter_mut().zip(Metric::all()) {
            *slot = canon(report.get(m));
        }
        CellResult {
            cell,
            metrics,
            placements,
            epochs,
        }
    }

    /// The canonical value of one metric.
    pub fn metric(&self, metric: Metric) -> f64 {
        let index = Metric::all()
            .iter()
            .position(|&m| m == metric)
            .expect("Metric::all covers every variant");
        self.metrics[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellSpec {
        CellSpec {
            policy: "FCFS".to_string(),
            scenario: "heterogeneous_mix".to_string(),
            jobs: 60,
            seed: 2025,
        }
    }

    #[test]
    fn hash_is_stable_and_sensitive_to_every_input() {
        let solver = SolverConfig::default();
        let cluster = ClusterConfig::paper_default();
        let base = cell().content_hash(&solver, cluster, 1.0);
        assert_eq!(
            base,
            cell().content_hash(&solver, cluster, 1.0),
            "deterministic"
        );

        let mut c = cell();
        c.policy = "SJF".to_string();
        assert_ne!(base, c.content_hash(&solver, cluster, 1.0));
        let mut c = cell();
        c.scenario = "long_tail".to_string();
        assert_ne!(base, c.content_hash(&solver, cluster, 1.0));
        let mut c = cell();
        c.jobs = 61;
        assert_ne!(base, c.content_hash(&solver, cluster, 1.0));
        let mut c = cell();
        c.seed = 2026;
        assert_ne!(base, c.content_hash(&solver, cluster, 1.0));

        let mut other_solver = solver;
        other_solver.sa_iteration_cap += 1;
        assert_ne!(base, cell().content_hash(&other_solver, cluster, 1.0));
        assert_ne!(
            base,
            cell().content_hash(&solver, ClusterConfig::new(64, 512), 1.0)
        );
        assert_ne!(
            base,
            cell().content_hash(&solver, ClusterConfig::mixed_256(), 1.0),
            "topology reaches the hash even at equal node/memory totals"
        );
        assert_ne!(base, cell().content_hash(&solver, cluster, 1.5));
        assert_ne!(
            cell().content_hash(&solver, cluster, 1.5),
            cell().content_hash(&solver, cluster, 2.0)
        );
    }

    #[test]
    fn hash_is_case_insensitive_like_the_registries() {
        let solver = SolverConfig::default();
        let cluster = ClusterConfig::paper_default();
        let mut c = cell();
        c.policy = "fcfs".to_string();
        assert_eq!(
            cell().content_hash(&solver, cluster, 1.0),
            c.content_hash(&solver, cluster, 1.0)
        );
    }

    #[test]
    fn flat_exact_estimate_hash_is_pinned_across_the_knob_additions() {
        // The pre-refactor canonical string, rebuilt by hand: a flat
        // cluster with skew 1.0 must hash to the FNV of exactly this
        // string, or every cached flat-grid cell is orphaned.
        let solver = SolverConfig::default();
        let cluster = ClusterConfig::paper_default();
        let legacy = format!(
            "rsched-campaign|fmt{CACHE_FORMAT}|ws{}|fcfs|heterogeneous_mix|60|2025|solver:9,500000,{},{},false|cluster:{},{}",
            env!("CARGO_PKG_VERSION"),
            solver.sa_iterations_per_task,
            solver.sa_iteration_cap,
            cluster.nodes,
            cluster.memory_gb,
        );
        assert_eq!(
            cell().content_hash(&solver, cluster, 1.0),
            fnv1a64(legacy.as_bytes())
        );
    }

    #[test]
    fn seeds_derive_per_policy() {
        let a = cell();
        let mut b = cell();
        b.policy = "Random".to_string();
        assert_eq!(a.workload_seed(), b.workload_seed(), "same workload");
        assert_ne!(a.policy_seed(), b.policy_seed(), "distinct policy noise");
    }

    #[test]
    fn file_name_is_readable_and_safe() {
        let name = cell().file_name(0xabc);
        assert_eq!(
            name,
            "FCFS__heterogeneous_mix__j60__s2025__0000000000000abc.toml"
        );
        let mut c = cell();
        c.scenario = "swf:fixtures/sample.swf".to_string();
        let name = c.file_name(1);
        assert!(!name.contains('/'), "{name}");
        assert!(!name.contains(':'), "{name}");
    }

    #[test]
    fn canon_is_idempotent() {
        let v = 123.456_789_123_f64;
        let once = canon(v);
        assert_eq!(once, canon(once));
        assert_ne!(v, once, "rounded");
        assert!(canon(f64::NAN).is_nan());
    }

    #[test]
    fn result_metrics_follow_metric_all_order() {
        use rsched_cluster::{JobRecord, JobSpec};
        use rsched_simkit::{SimDuration, SimTime};
        let records = vec![JobRecord::new(
            JobSpec::new(1, 0, SimTime::ZERO, SimDuration::from_secs(100), 4, 32),
            SimTime::from_secs(7),
        )];
        let report = MetricsReport::compute(&records, ClusterConfig::new(8, 64));
        let result = CellResult::new(cell(), &report, 1, 3);
        assert_eq!(result.metric(Metric::Makespan), canon(report.makespan_secs));
        assert_eq!(
            result.metric(Metric::UserFairness),
            canon(report.user_fairness)
        );
        assert_eq!(result.placements, 1);
        assert_eq!(result.epochs, 3);
    }
}
