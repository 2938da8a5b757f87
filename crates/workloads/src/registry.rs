//! The open, string-keyed **scenario registry** — the workload-side twin
//! of `rsched-registry`'s `PolicyRegistry`.
//!
//! The paper's evaluation hinges on scenario diversity; the registry makes
//! the scenario set *extensible*: a new workload pattern is one
//! [`ScenarioRegistry::register`] call, no enum variant or `match` arm
//! required. Builtins cover the paper's seven synthetic scenarios, four
//! extended ones, and the Polaris trace substrate; `swf:<path>` names
//! resolve dynamically to [Standard Workload Format](crate::swf) archive
//! traces, so real logs sweep through the same harness by name alone.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rsched_cluster::ClusterConfig;
use rsched_simkit::{SimDuration, SimTime};

use crate::arrivals::ArrivalMode;
use crate::error::WorkloadError;
use crate::polaris::polaris_workload;
use crate::scenarios::{generate_builtin, Workload, BUILTIN_SCENARIOS};
use crate::swf;
use crate::synth;

/// Canonical registry names of the builtin scenarios. Lookup is
/// case-insensitive and treats `-` and `_` as equivalent, so
/// `"Heterogeneous-Mix"` also resolves.
pub mod names {
    /// Uniform 30–120 s jobs with 2 nodes / 4 GB — lightweight CI/test.
    pub(crate) const HOMOGENEOUS_SHORT: &str = "homogeneous_short";
    /// Gamma(1.5, 300) runtimes with varied resources — production mix.
    pub const HETEROGENEOUS_MIX: &str = "heterogeneous_mix";
    /// 20 % extremely long jobs among short ones — convoy-effect probe.
    pub const LONG_JOB_DOMINANT: &str = "long_job_dominant";
    /// Large parallel jobs (64–256 nodes) with Gamma walltimes.
    pub const HIGH_PARALLELISM: &str = "high_parallelism";
    /// Lightweight 1-node, <8 GB, 30–300 s jobs — sparse workload.
    pub const RESOURCE_SPARSE: &str = "resource_sparse";
    /// Alternating short/long jobs submitted in bursts with idle gaps.
    pub const BURSTY_IDLE: &str = "bursty_idle";
    /// One large blocking job followed by many small jobs.
    pub const ADVERSARIAL: &str = "adversarial";
    /// Production-mix jobs under a day/night sinusoidal arrival rate.
    pub(crate) const DIURNAL_WAVE: &str = "diurnal_wave";
    /// Waves of 96–192-node jobs ahead of narrow ones — backfill stress.
    pub(crate) const WIDE_JOB_CONVOY: &str = "wide_job_convoy";
    /// 35 % accelerator jobs: 4 GPUs + 32–64 GB per node, gpu-class pinned.
    pub const GPU_SKEWED_HETMIX: &str = "gpu_skewed_hetmix";
    /// Small jobs with log-normal runtimes spanning orders of magnitude.
    pub(crate) const LONG_TAIL: &str = "long_tail";
    /// Bursts of 96–128 GB/node analytics jobs pinned to the bigmem class.
    pub(crate) const BIGMEM_BURST: &str = "bigmem_burst";
    /// The calibrated Polaris trace substrate (paper §5).
    pub const POLARIS: &str = "polaris";
    /// Seeded synthetic Polaris-scale SWF stream (560-node machine) — the
    /// scale substrate for million-job replays without a fixture.
    pub(crate) const POLARIS_SYNTH: &str = "polaris_synth";

    /// Prefix that resolves a Standard Workload Format trace by file path
    /// (e.g. `swf:fixtures/sample.swf`) instead of a registered generator.
    pub(crate) const SWF_PREFIX: &str = "swf:";

    /// Prefix form of [`POLARIS_SYNTH`] with an inline job count (e.g.
    /// `polaris_synth:1000000`), overriding the context's `n` — so sweep
    /// specs can name a scale tier without a separate jobs axis.
    pub(crate) const POLARIS_SYNTH_PREFIX: &str = "polaris_synth:";

    /// The paper's seven scenarios, in presentation order.
    pub const LEGACY_SEVEN: [&str; 7] = [
        HOMOGENEOUS_SHORT,
        HETEROGENEOUS_MIX,
        LONG_JOB_DOMINANT,
        HIGH_PARALLELISM,
        RESOURCE_SPARSE,
        BURSTY_IDLE,
        ADVERSARIAL,
    ];

    /// The six scenarios shown in Figure 3 (Heterogeneous Mix is covered by
    /// the scalability analysis of §3.6 instead).
    pub const FIGURE3: [&str; 6] = [
        HOMOGENEOUS_SHORT,
        LONG_JOB_DOMINANT,
        HIGH_PARALLELISM,
        RESOURCE_SPARSE,
        BURSTY_IDLE,
        ADVERSARIAL,
    ];

    /// The five extended scenarios beyond the paper's set.
    pub const EXTENDED_FIVE: [&str; 5] = [
        DIURNAL_WAVE,
        WIDE_JOB_CONVOY,
        GPU_SKEWED_HETMIX,
        LONG_TAIL,
        BIGMEM_BURST,
    ];

    /// Every builtin scenario name, paper set first.
    pub const ALL_BUILTIN: [&str; 14] = [
        HOMOGENEOUS_SHORT,
        HETEROGENEOUS_MIX,
        LONG_JOB_DOMINANT,
        HIGH_PARALLELISM,
        RESOURCE_SPARSE,
        BURSTY_IDLE,
        ADVERSARIAL,
        DIURNAL_WAVE,
        WIDE_JOB_CONVOY,
        GPU_SKEWED_HETMIX,
        LONG_TAIL,
        BIGMEM_BURST,
        POLARIS,
        POLARIS_SYNTH,
    ];
}

/// Everything a scenario generator may need to instantiate one workload:
/// the instance size, arrival mode, seed, and the target machine (so
/// generators can scale demands to capacity).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioContext {
    /// Number of jobs to generate. For `swf:<path>` trace ingestion this
    /// is an upper bound on the jobs taken from the trace, with `0`
    /// meaning "the whole trace"; synthetic scenarios (including the
    /// `polaris` synthesizer) produce exactly `n` jobs.
    pub n: usize,
    /// Static (all at `t = 0`) or dynamic (scenario-specific) arrivals.
    pub mode: ArrivalMode,
    /// Seed for stochastic generators; trace ingestion ignores it.
    pub seed: u64,
    /// The machine the workload is destined for. Builtin synthetic
    /// scenarios are calibrated to [`ClusterConfig::paper_default`] and
    /// ignore it; custom generators may scale demands from it.
    pub cluster: ClusterConfig,
    /// Walltime-estimate skew: declared walltimes are stretched to
    /// `duration × skew`, modelling users who pad their estimates badly.
    /// `1.0` (the default) leaves the generator's estimates untouched;
    /// values ≤ 1.0 are treated as exact estimates (walltimes may never
    /// undershoot the true runtime). Applied centrally by
    /// [`ScenarioRegistry::generate`], so every scenario — builtin,
    /// third-party, or `swf:<path>` — honors the knob.
    pub walltime_skew: f64,
}

impl ScenarioContext {
    /// A context with dynamic arrivals, seed 0, and the paper's machine.
    pub fn new(n: usize) -> Self {
        ScenarioContext {
            n,
            mode: ArrivalMode::Dynamic,
            seed: 0,
            cluster: ClusterConfig::paper_default(),
            walltime_skew: 1.0,
        }
    }

    /// Set the arrival mode.
    pub fn with_mode(mut self, mode: ArrivalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the target machine configuration.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Set the walltime-estimate skew (see
    /// [`walltime_skew`](ScenarioContext::walltime_skew)).
    pub fn with_walltime_skew(mut self, skew: f64) -> Self {
        self.walltime_skew = skew;
        self
    }
}

/// A scenario constructor: called once per workload instantiation.
pub(crate) type ScenarioGenerator = Box<dyn Fn(&ScenarioContext) -> Workload + Send + Sync>;

struct Entry {
    display: String,
    title: String,
    description: String,
    generator: ScenarioGenerator,
}

/// A string-keyed, case- and separator-insensitive map from scenario names
/// to workload generators.
///
/// [`ScenarioRegistry::with_builtins`] ships the fourteen builtin scenarios;
/// third parties extend the set with [`ScenarioRegistry::register`] — no
/// workspace code changes needed. `swf:<path>` names bypass the map and
/// load a Standard Workload Format trace from disk.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: BTreeMap<String, Entry>,
}

/// Normalized lookup key: lowercase, `-` folded to `_`.
fn key_of(name: &str) -> String {
    name.to_lowercase().replace('-', "_")
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// A registry pre-populated with the fourteen builtin scenarios (see
    /// [`names`]).
    pub fn with_builtins() -> Self {
        let mut registry = ScenarioRegistry::new();
        registry.register_builtins();
        registry
    }

    fn register_builtins(&mut self) {
        for spec in &BUILTIN_SCENARIOS {
            self.register_described(spec.slug, spec.title, spec.description, move |ctx| {
                generate_builtin(spec, ctx)
            })
            .expect("builtin scenario names are distinct");
        }
        self.register_described(
            names::POLARIS,
            "Polaris Trace",
            "Synthesized Polaris-style log through the paper's \u{a7}5 preprocessing pipeline.",
            // Static-mode zeroing is applied centrally by `generate`.
            |ctx| Workload {
                scenario: names::POLARIS.to_string(),
                jobs: polaris_workload(ctx.n, ctx.seed),
                mode: ctx.mode,
                seed: ctx.seed,
            },
        )
        .expect("polaris name is free");
        self.register_described(
            names::POLARIS_SYNTH,
            "Polaris Synthetic Stream",
            "Seeded Polaris-scale SWF stream (560-node machine) for million-job \
             replays; `polaris_synth:<n>` inlines the job count.",
            |ctx| Workload {
                scenario: names::POLARIS_SYNTH.to_string(),
                jobs: synth::polaris_synth_workload(ctx.n, ctx.seed),
                mode: ctx.mode,
                seed: ctx.seed,
            },
        )
        .expect("polaris_synth name is free");
    }

    /// Register `generator` under `name`. Names are matched
    /// case-insensitively (with `-` and `_` equivalent) but reported in the
    /// case given here. Fails if the name is already taken — registries are
    /// append-only; shadowing a scenario silently would corrupt experiment
    /// provenance.
    pub fn register<F>(
        &mut self,
        name: impl Into<String>,
        generator: F,
    ) -> Result<(), WorkloadError>
    where
        F: Fn(&ScenarioContext) -> Workload + Send + Sync + 'static,
    {
        let display = name.into();
        let title = display.clone();
        self.insert(display, title, String::new(), Box::new(generator))
    }

    /// [`ScenarioRegistry::register`] with a human-readable title and a
    /// one-line description, shown by scenario listings.
    pub(crate) fn register_described<F>(
        &mut self,
        name: impl Into<String>,
        title: impl Into<String>,
        description: impl Into<String>,
        generator: F,
    ) -> Result<(), WorkloadError>
    where
        F: Fn(&ScenarioContext) -> Workload + Send + Sync + 'static,
    {
        self.insert(
            name.into(),
            title.into(),
            description.into(),
            Box::new(generator),
        )
    }

    fn insert(
        &mut self,
        display: String,
        title: String,
        description: String,
        generator: ScenarioGenerator,
    ) -> Result<(), WorkloadError> {
        // Trim to match lookups, which always trim — a name registered with
        // surrounding whitespace would otherwise be unreachable.
        let display = display.trim().to_string();
        let key = key_of(&display);
        if key.starts_with(names::SWF_PREFIX) || key.starts_with(names::POLARIS_SYNTH_PREFIX) {
            return Err(WorkloadError::ReservedScenario(display));
        }
        if self.entries.contains_key(&key) {
            return Err(WorkloadError::DuplicateScenario(display));
        }
        self.entries.insert(
            key,
            Entry {
                display,
                title,
                description,
                generator,
            },
        );
        Ok(())
    }

    /// Instantiate the scenario registered under `name` for the given
    /// context.
    ///
    /// `swf:<path>` names are resolved dynamically: the Standard Workload
    /// Format trace at `<path>` is parsed and converted (see [`crate::swf`])
    /// instead of consulting the map.
    pub fn generate(&self, name: &str, ctx: &ScenarioContext) -> Result<Workload, WorkloadError> {
        let trimmed = name.trim();
        let mut workload = if let Some(path) = strip_swf_prefix(trimmed) {
            swf::load_workload(path, ctx)?
        } else if let Some(count) = strip_polaris_synth_count(trimmed) {
            // The inline count overrides `ctx.n` — the name *is* the tier.
            Workload {
                scenario: format!("{}{count}", names::POLARIS_SYNTH_PREFIX),
                jobs: synth::polaris_synth_workload(count, ctx.seed),
                mode: ctx.mode,
                seed: ctx.seed,
            }
        } else {
            match self.entries.get(&key_of(trimmed)) {
                Some(entry) => (entry.generator)(ctx),
                None => {
                    return Err(WorkloadError::UnknownScenario {
                        name: trimmed.to_string(),
                        known: self.names().into_iter().map(str::to_string).collect(),
                    })
                }
            }
        };
        // The registry enforces the Static-mode contract centrally, so
        // third-party generators that only model dynamic arrivals still
        // honor the requested mode (and provenance stays consistent).
        if ctx.mode == ArrivalMode::Static {
            for j in &mut workload.jobs {
                j.submit = SimTime::ZERO;
            }
        }
        // Walltime-estimate skew is a registry-level post-pass for the same
        // reason: every scenario honors the knob without knowing about it.
        // Only stretches (> 1.0) apply — a declared walltime must never
        // undershoot the true runtime.
        if ctx.walltime_skew > 1.0 {
            for j in &mut workload.jobs {
                let skewed = (j.duration.as_millis() as f64 * ctx.walltime_skew).round() as u64;
                j.walltime = j.walltime.max(SimDuration::from_millis(skewed));
            }
        }
        workload.mode = ctx.mode;
        Ok(workload)
    }

    /// `true` if `name` resolves — a registered scenario, or any
    /// `swf:<path>` name (the path itself is only checked on
    /// [`generate`](ScenarioRegistry::generate)).
    pub fn contains(&self, name: &str) -> bool {
        let trimmed = name.trim();
        strip_swf_prefix(trimmed).is_some()
            || strip_polaris_synth_count(trimmed).is_some()
            || self.entries.contains_key(&key_of(trimmed))
    }

    /// The canonical display name `name` resolves to (the case it was
    /// registered with), if registered.
    pub fn display_name(&self, name: &str) -> Option<&str> {
        self.entries
            .get(&key_of(name.trim()))
            .map(|e| e.display.as_str())
    }

    /// The human-readable title of a registered scenario (e.g.
    /// `"Bursty + Idle"` for `bursty_idle`).
    pub fn title(&self, name: &str) -> Option<&str> {
        self.entries
            .get(&key_of(name.trim()))
            .map(|e| e.title.as_str())
    }

    /// The one-line description of a registered scenario.
    pub fn description(&self, name: &str) -> Option<&str> {
        self.entries
            .get(&key_of(name.trim()))
            .map(|e| e.description.as_str())
    }

    /// Display names of every registered scenario, sorted by key.
    pub fn names(&self) -> Vec<&str> {
        self.entries.values().map(|e| e.display.as_str()).collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// If `name` is an `swf:<path>` reference, return the path part.
fn strip_swf_prefix(name: &str) -> Option<&str> {
    let prefix_len = names::SWF_PREFIX.len();
    // Byte-safe slicing: `get` returns None when byte 4 is not a char
    // boundary (e.g. a non-ASCII scenario name), which is never a trace
    // reference.
    match name.get(..prefix_len) {
        Some(head) if name.len() > prefix_len && head.eq_ignore_ascii_case(names::SWF_PREFIX) => {
            Some(name[prefix_len..].trim())
        }
        _ => None,
    }
}

/// If `name` is a `polaris_synth:<n>` reference with a well-formed count,
/// return the count. Matching is case- and separator-insensitive like every
/// registry lookup; a malformed count (empty, non-numeric, overflowing) is
/// simply not a reference, so it falls through to `UnknownScenario`.
fn strip_polaris_synth_count(name: &str) -> Option<usize> {
    let prefix_len = names::POLARIS_SYNTH_PREFIX.len();
    let head = name.get(..prefix_len)?;
    if key_of(head) != names::POLARIS_SYNTH_PREFIX {
        return None;
    }
    name[prefix_len..].trim().parse::<usize>().ok()
}

/// The shared builtin registry — built once, reused by every harness call
/// (generators are `Send + Sync`, so this is safe to consult from the
/// experiment thread pool).
pub fn builtins() -> &'static ScenarioRegistry {
    static BUILTINS: OnceLock<ScenarioRegistry> = OnceLock::new();
    BUILTINS.get_or_init(ScenarioRegistry::with_builtins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize, seed: u64) -> ScenarioContext {
        ScenarioContext::new(n).with_seed(seed)
    }

    #[test]
    fn builtins_cover_all_fourteen_names() {
        let registry = ScenarioRegistry::with_builtins();
        assert_eq!(registry.len(), names::ALL_BUILTIN.len());
        for name in names::ALL_BUILTIN {
            assert!(registry.contains(name), "{name}");
            assert!(registry.title(name).is_some(), "{name} has a title");
            assert!(
                !registry.description(name).expect("described").is_empty(),
                "{name} has a description"
            );
        }
    }

    #[test]
    fn lookup_is_case_and_separator_insensitive() {
        let registry = ScenarioRegistry::with_builtins();
        assert!(registry.contains("Heterogeneous-Mix"));
        assert!(registry.contains("BURSTY_IDLE"));
        let a = registry
            .generate("Heterogeneous-Mix", &ctx(8, 3))
            .expect("resolves");
        let b = registry
            .generate("heterogeneous_mix", &ctx(8, 3))
            .expect("resolves");
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(
            registry.display_name("HETEROGENEOUS-MIX"),
            Some("heterogeneous_mix")
        );
    }

    #[test]
    fn unknown_name_lists_known_scenarios_and_mentions_swf() {
        let registry = ScenarioRegistry::with_builtins();
        let err = registry
            .generate("lustre-meltdown", &ctx(4, 1))
            .unwrap_err();
        match &err {
            WorkloadError::UnknownScenario { name, known } => {
                assert_eq!(name, "lustre-meltdown");
                assert_eq!(known.len(), 14);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("adversarial"));
        assert!(err.to_string().contains("swf:<path>"));
    }

    #[test]
    fn duplicate_registration_is_rejected_across_separators() {
        let mut registry = ScenarioRegistry::with_builtins();
        let err = registry
            .register("Bursty-Idle", |ctx| Workload {
                scenario: "x".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .unwrap_err();
        assert_eq!(err, WorkloadError::DuplicateScenario("Bursty-Idle".into()));
        // The swf: namespace cannot be shadowed, with a dedicated error
        // (not a fake duplicate).
        let err = registry
            .register("swf:anything", |ctx| Workload {
                scenario: "x".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .unwrap_err();
        assert_eq!(err, WorkloadError::ReservedScenario("swf:anything".into()));
        assert!(err.to_string().contains("reserved"));
    }

    #[test]
    fn names_registered_with_whitespace_stay_reachable() {
        let mut registry = ScenarioRegistry::new();
        registry
            .register("  padded-name  ", |ctx| Workload {
                scenario: "padded-name".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .expect("fresh name");
        // Registration trims, matching the trimming every lookup does.
        assert_eq!(registry.display_name("padded-name"), Some("padded-name"));
        assert!(registry.generate("Padded_Name", &ctx(0, 0)).is_ok());
        // A padded swf: name is still caught by the reserved-prefix check.
        let err = registry
            .register(" swf:x ", |ctx| Workload {
                scenario: "x".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .unwrap_err();
        assert_eq!(err, WorkloadError::ReservedScenario("swf:x".into()));
    }

    #[test]
    fn non_ascii_names_are_unknown_not_a_panic() {
        // A multi-byte character straddling byte 4 must not crash the
        // swf-prefix probe.
        let registry = ScenarioRegistry::with_builtins();
        assert!(!registry.contains("日本語"));
        assert!(!registry.contains("swÉ:x"));
        match registry.generate("日本語", &ctx(4, 1)) {
            Err(WorkloadError::UnknownScenario { name, .. }) => assert_eq!(name, "日本語"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn third_party_scenario_registers_and_generates() {
        let mut registry = ScenarioRegistry::with_builtins();
        registry
            .register("empty-queue", |ctx| Workload {
                scenario: "empty-queue".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .expect("fresh name");
        let w = registry
            .generate("EMPTY_QUEUE", &ctx(0, 0))
            .expect("registered");
        assert!(w.is_empty());
        assert_eq!(registry.len(), 15);
        assert!(registry.names().contains(&"empty-queue"));
    }

    #[test]
    fn static_mode_is_enforced_for_third_party_generators() {
        use rsched_cluster::JobSpec;
        use rsched_simkit::SimDuration;

        // A generator that only models dynamic arrivals: the registry's
        // central post-pass must still honor a Static request.
        let mut registry = ScenarioRegistry::new();
        registry
            .register("dynamic-only", |ctx| Workload {
                scenario: "dynamic-only".into(),
                jobs: (0..ctx.n)
                    .map(|i| {
                        JobSpec::new(
                            i as u32,
                            0,
                            SimTime::from_secs(10 + i as u64),
                            SimDuration::from_secs(60),
                            1,
                            1,
                        )
                    })
                    .collect(),
                mode: ArrivalMode::Dynamic,
                seed: ctx.seed,
            })
            .expect("fresh name");
        let w = registry
            .generate("dynamic-only", &ctx(5, 0).with_mode(ArrivalMode::Static))
            .expect("registered");
        assert!(w.jobs.iter().all(|j| j.submit == SimTime::ZERO));
        assert_eq!(w.mode, ArrivalMode::Static);
    }

    #[test]
    fn polaris_resolves_by_name_and_matches_direct_pipeline() {
        let registry = ScenarioRegistry::with_builtins();
        let w = registry
            .generate(names::POLARIS, &ctx(30, 77))
            .expect("builtin");
        assert_eq!(w.jobs, polaris_workload(30, 77));
        // Static mode zeroes submissions.
        let s = registry
            .generate(names::POLARIS, &ctx(10, 77).with_mode(ArrivalMode::Static))
            .expect("builtin");
        assert!(s.jobs.iter().all(|j| j.submit == SimTime::ZERO));
    }

    #[test]
    fn polaris_synth_resolves_by_name_and_by_inline_count() {
        let registry = ScenarioRegistry::with_builtins();
        // Bare builtin name: `ctx.n` sizes the workload.
        let w = registry
            .generate(names::POLARIS_SYNTH, &ctx(40, 9))
            .expect("builtin");
        assert_eq!(w.jobs, synth::polaris_synth_workload(40, 9));
        assert_eq!(w.scenario, "polaris_synth");
        // Inline count overrides ctx.n, case/separator-insensitively.
        let sized = registry
            .generate("Polaris-Synth: 25", &ctx(40, 9))
            .expect("prefix form");
        assert_eq!(sized.jobs, synth::polaris_synth_workload(25, 9));
        assert_eq!(sized.scenario, "polaris_synth:25");
        assert!(registry.contains("polaris_synth:1000000"));
        // Malformed counts are unknown scenarios, not panics.
        assert!(!registry.contains("polaris_synth:abc"));
        assert!(matches!(
            registry.generate("polaris_synth:-5", &ctx(4, 1)),
            Err(WorkloadError::UnknownScenario { .. })
        ));
        // The prefix namespace cannot be shadowed.
        let mut open = ScenarioRegistry::new();
        let err = open
            .register("polaris_synth:64", |ctx| Workload {
                scenario: "x".into(),
                jobs: vec![],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .unwrap_err();
        assert_eq!(
            err,
            WorkloadError::ReservedScenario("polaris_synth:64".into())
        );
    }

    #[test]
    fn swf_names_resolve_without_registration() {
        let registry = ScenarioRegistry::with_builtins();
        assert!(registry.contains("swf:/some/trace.swf"));
        assert!(registry.contains("SWF:relative/trace.swf"));
        // A bare "swf:" with no path is not a trace reference.
        assert!(!registry.contains("swf:"));
        // Missing files fail with an Io error, not a panic.
        match registry.generate("swf:/does/not/exist.swf", &ctx(4, 1)) {
            Err(WorkloadError::Io { path, .. }) => assert!(path.contains("exist.swf")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_builtin_registry_is_reused() {
        let a: *const ScenarioRegistry = builtins();
        let b: *const ScenarioRegistry = builtins();
        assert_eq!(a, b);
        assert_eq!(builtins().len(), 14);
    }

    #[test]
    fn walltime_skew_stretches_estimates_centrally() {
        let registry = ScenarioRegistry::with_builtins();
        let base = registry
            .generate(names::HETEROGENEOUS_MIX, &ctx(20, 7))
            .expect("builtin");
        let skewed = registry
            .generate(
                names::HETEROGENEOUS_MIX,
                &ctx(20, 7).with_walltime_skew(3.0),
            )
            .expect("builtin");
        for (a, b) in base.jobs.iter().zip(&skewed.jobs) {
            // Everything but the estimate is untouched.
            assert_eq!(a.duration, b.duration);
            assert_eq!(a.submit, b.submit);
            assert_eq!(
                b.walltime,
                SimDuration::from_millis(a.duration.as_millis() * 3)
            );
            assert!(b.walltime >= b.duration);
        }
        // Skews at or below 1.0 are no-ops: estimates stay exact.
        let exact = registry
            .generate(
                names::HETEROGENEOUS_MIX,
                &ctx(20, 7).with_walltime_skew(0.5),
            )
            .expect("builtin");
        assert_eq!(exact.jobs, base.jobs);
    }

    #[test]
    fn walltime_skew_reaches_third_party_generators() {
        use rsched_cluster::JobSpec;

        let mut registry = ScenarioRegistry::new();
        registry
            .register("fixed-pair", |ctx| Workload {
                scenario: "fixed-pair".into(),
                jobs: vec![JobSpec::new(
                    0,
                    0,
                    SimTime::ZERO,
                    SimDuration::from_secs(100),
                    1,
                    1,
                )],
                mode: ctx.mode,
                seed: ctx.seed,
            })
            .expect("fresh name");
        let w = registry
            .generate("fixed-pair", &ctx(1, 0).with_walltime_skew(2.5))
            .expect("registered");
        assert_eq!(w.jobs[0].walltime, SimDuration::from_secs(250));
        assert_eq!(w.jobs[0].duration, SimDuration::from_secs(100));
    }
}
