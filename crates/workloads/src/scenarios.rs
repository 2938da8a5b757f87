//! Synthetic scenario generation: the seven benchmark scenarios of paper
//! §3.1 (with the paper's exact distribution parameters where given and
//! documented calibrations where the paper specifies only the qualitative
//! pattern) plus five extended scenarios probing patterns the paper's set
//! leaves uncovered.
//!
//! Scenarios are addressed **by name** through the
//! [`ScenarioRegistry`](crate::ScenarioRegistry); this module holds the
//! builtin definitions and the deterministic generation core.

use rsched_cluster::{ClusterConfig, JobSpec, NodeClass, ResourceVec};
use rsched_simkit::dist::{Categorical, Clamped, Gamma, LogNormal, Sample, Uniform};
use rsched_simkit::rng::{Rng, SeedTree};
use rsched_simkit::{SimDuration, SimTime};

use crate::arrivals::{ArrivalMode, ArrivalProcess};
use crate::error::WorkloadError;
use crate::registry::ScenarioContext;
use crate::users::UserModel;

/// A generated workload instance: the jobs plus provenance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The scenario name that produced it — a registry name such as
    /// `heterogeneous_mix`, or `swf:<path>` for an ingested trace.
    pub scenario: String,
    /// The jobs, ordered by id (== submission order).
    pub jobs: Vec<JobSpec>,
    /// Static or dynamic arrivals.
    pub mode: ArrivalMode,
    /// Seed it was generated from.
    pub seed: u64,
}

impl Workload {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if no jobs were generated.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sanity-check every job against a machine configuration.
    pub fn validate(&self, config: ClusterConfig) -> Result<(), WorkloadError> {
        for j in &self.jobs {
            let fail = |message: String| {
                Err(WorkloadError::Validation {
                    job: j.id.0,
                    message,
                })
            };
            if j.nodes == 0 {
                return fail("requests zero nodes".to_string());
            }
            if j.nodes > config.nodes {
                return fail(format!(
                    "requests {} nodes > capacity {}",
                    j.nodes, config.nodes
                ));
            }
            if j.memory_gb > config.memory_gb {
                return fail(format!(
                    "requests {} GB > capacity {}",
                    j.memory_gb, config.memory_gb
                ));
            }
            if j.duration.is_zero() {
                return fail("has zero duration".to_string());
            }
        }
        Ok(())
    }
}

/// The raw per-job shape a scenario produces, before arrival times and user
/// metadata are attached.
pub(crate) struct JobShape {
    pub(crate) duration_secs: f64,
    pub(crate) nodes: u32,
    pub(crate) memory_gb: u64,
    /// Extended per-node demand (GPUs, per-node memory, burst-buffer
    /// slots). [`ResourceVec::ZERO`] for scalar jobs; ignored entirely on
    /// flat machines, so scalar scenarios are unaffected.
    pub(crate) per_node: ResourceVec,
    /// Node-class pin, if the job only runs on one class.
    pub(crate) class: Option<NodeClass>,
}

impl JobShape {
    /// A scalar (flat-machine) shape: no extended demand, no class pin.
    pub(crate) fn scalar(duration_secs: f64, nodes: u32, memory_gb: u64) -> Self {
        JobShape {
            duration_secs,
            nodes,
            memory_gb,
            per_node: ResourceVec::ZERO,
            class: None,
        }
    }
}

/// A builtin synthetic scenario: name, presentation metadata, and the two
/// deterministic ingredients (arrival process + per-job shape sampler).
pub(crate) struct BuiltinScenario {
    /// Registry name (also the seed-derivation label, so renaming a slug
    /// changes every workload it generates).
    pub(crate) slug: &'static str,
    /// Human-readable name matching the paper's figures.
    pub(crate) title: &'static str,
    /// One-line description for scenario listings.
    pub(crate) description: &'static str,
    /// The arrival process used in dynamic mode.
    pub(crate) arrival: fn() -> ArrivalProcess,
    /// Samples the shape of job `index` out of `n`.
    pub(crate) shape: fn(usize, usize, &mut dyn Rng) -> JobShape,
}

/// The builtin synthetic scenarios: the paper's seven (in presentation
/// order) followed by the five extended ones. All are calibrated to the
/// paper's 256-node / 2048 GB machine; the two class-aware ones
/// (`gpu_skewed_hetmix`, `bigmem_burst`) additionally fit the `mixed_256`
/// topology.
pub(crate) static BUILTIN_SCENARIOS: [BuiltinScenario; 12] = [
    BuiltinScenario {
        slug: "homogeneous_short",
        title: "Homogeneous Short",
        description: "Uniform 30-120 s jobs with 2 nodes / 4 GB - lightweight CI/test load.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 5.0,
        },
        shape: |_, _, rng| JobShape::scalar(Uniform::new(30.0, 120.0).sample(rng), 2, 4),
    },
    BuiltinScenario {
        slug: "heterogeneous_mix",
        title: "Heterogeneous Mix",
        description: "Gamma(1.5, 300) runtimes with varied resources - production mix.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 30.0,
        },
        shape: |_, _, rng| heterogeneous_mix_shape(rng),
    },
    BuiltinScenario {
        slug: "long_job_dominant",
        title: "Long-Job Dominant",
        description: "20% extremely long 128-node jobs among short ones - convoy-effect probe.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 60.0,
        },
        // Exactly ~20 % long jobs, deterministically interleaved so every
        // instance size keeps the paper's ratio.
        shape: |index, _, _| {
            if index.is_multiple_of(5) {
                JobShape::scalar(50_000.0, 128, 256)
            } else {
                JobShape::scalar(500.0, 2, 4)
            }
        },
    },
    BuiltinScenario {
        slug: "high_parallelism",
        title: "High Parallelism",
        description: "Large parallel jobs (64-256 nodes) with Gamma walltimes.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 120.0,
        },
        shape: |_, _, rng| {
            let nodes = *[64u32, 96, 128, 192, 256]
                .get(Categorical::new(&[0.3, 0.25, 0.25, 0.12, 0.08]).sample_index(rng))
                .expect("index in range");
            // 2 GB per node keeps even a 256-node job within 2048 GB.
            JobShape::scalar(
                Clamped::new(Gamma::new(2.0, 500.0), 60.0, 7200.0).sample(rng),
                nodes,
                nodes as u64 * 2,
            )
        },
    },
    BuiltinScenario {
        slug: "resource_sparse",
        title: "Resource Sparse",
        description: "Lightweight 1-node, <8 GB, 30-300 s jobs - sparse workload.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 10.0,
        },
        shape: |_, _, rng| {
            JobShape::scalar(
                Uniform::new(30.0, 300.0).sample(rng),
                1,
                rng.gen_range_inclusive(1, 7),
            )
        },
    },
    BuiltinScenario {
        slug: "bursty_idle",
        title: "Bursty + Idle",
        description: "Alternating short/long jobs submitted in bursts with idle gaps.",
        arrival: || ArrivalProcess::Bursty {
            burst_size: 10,
            within_burst_mean_secs: 5.0,
            idle_gap_mean_secs: 600.0,
        },
        // Alternate short and long jobs with modest demands (§3.1). The
        // long jobs of successive bursts overlap, so several bursts in,
        // the machine saturates and responsiveness differences appear.
        shape: |index, _, rng| {
            if index.is_multiple_of(2) {
                JobShape::scalar(Uniform::new(60.0, 180.0).sample(rng), 2, 4)
            } else {
                JobShape::scalar(Uniform::new(3600.0, 7200.0).sample(rng), 24, 48)
            }
        },
    },
    BuiltinScenario {
        slug: "adversarial",
        title: "Adversarial",
        description: "One 128-node / 100000 s blocker followed by many 1-node / 60 s jobs.",
        arrival: || ArrivalProcess::BlockerThenFlood {
            flood_mean_secs: 10.0,
        },
        shape: |index, _, _| {
            if index == 0 {
                JobShape::scalar(100_000.0, 128, 512)
            } else {
                JobShape::scalar(60.0, 1, 2)
            }
        },
    },
    // ---- extended scenarios (beyond the paper's seven) -------------------
    BuiltinScenario {
        slug: "diurnal_wave",
        title: "Diurnal Wave",
        description: "Production-mix jobs under a day/night sinusoidal arrival rate.",
        arrival: || ArrivalProcess::Diurnal {
            period_secs: 86_400.0,
            peak_mean_secs: 15.0,
            trough_mean_secs: 900.0,
        },
        shape: |_, _, rng| heterogeneous_mix_shape(rng),
    },
    BuiltinScenario {
        slug: "wide_job_convoy",
        title: "Wide-Job Convoy",
        description: "Waves of 96-192-node jobs ahead of narrow ones - backfill stress test.",
        arrival: || ArrivalProcess::Bursty {
            burst_size: 16,
            within_burst_mean_secs: 10.0,
            idle_gap_mean_secs: 1800.0,
        },
        // Each 16-job wave leads with four wide jobs; the narrow tail can
        // only run promptly if the scheduler flows around the convoy.
        shape: |index, _, rng| {
            if index % 16 < 4 {
                let nodes = rng.gen_range_inclusive(96, 192) as u32;
                JobShape::scalar(
                    Uniform::new(3600.0, 10_800.0).sample(rng),
                    nodes,
                    nodes as u64 * 4,
                )
            } else {
                let nodes = rng.gen_range_inclusive(1, 4) as u32;
                JobShape::scalar(
                    Uniform::new(120.0, 1200.0).sample(rng),
                    nodes,
                    nodes as u64 * 2,
                )
            }
        },
    },
    BuiltinScenario {
        slug: "gpu_skewed_hetmix",
        title: "GPU-Skewed Hetmix",
        description: "35% accelerator jobs: 4 GPUs + 32-64 GB per node, gpu-class pinned.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 45.0,
        },
        shape: |_, _, rng| {
            if rng.gen_bool(0.35) {
                // Accelerator-style: narrow, memory-hungry, long, and
                // genuinely GPU-demanding — 4 GPUs per node, pinned to the
                // gpu class on classed machines. The extended demand is
                // derived from values already drawn, so the scalar
                // projection (and every flat-cluster pin) is unchanged.
                let nodes = rng.gen_range_inclusive(1, 8) as u32;
                let per_node_gb = rng.gen_range_inclusive(32, 64);
                JobShape {
                    duration_secs: Clamped::new(Gamma::new(2.0, 1800.0), 300.0, 43_200.0)
                        .sample(rng),
                    nodes,
                    memory_gb: (nodes as u64 * per_node_gb).min(1024),
                    per_node: ResourceVec::new(0, 4, per_node_gb, 0),
                    class: Some(NodeClass::Gpu),
                }
            } else {
                let nodes = rng.gen_range_inclusive(2, 32) as u32;
                let per_node_gb = rng.gen_range_inclusive(1, 4);
                JobShape::scalar(
                    Clamped::new(Gamma::new(1.5, 300.0), 10.0, 20_000.0).sample(rng),
                    nodes,
                    nodes as u64 * per_node_gb,
                )
            }
        },
    },
    BuiltinScenario {
        slug: "long_tail",
        title: "Long-Tail Runtime",
        description: "Small jobs with log-normal runtimes spanning 4+ orders of magnitude.",
        arrival: || ArrivalProcess::Poisson {
            mean_interarrival_secs: 20.0,
        },
        shape: |_, _, rng| {
            let nodes = rng.gen_range_inclusive(1, 8) as u32;
            JobShape::scalar(
                Clamped::new(LogNormal::from_median(300.0, 2.0), 10.0, 150_000.0).sample(rng),
                nodes,
                nodes as u64 * 2,
            )
        },
    },
    BuiltinScenario {
        slug: "bigmem_burst",
        title: "BigMem Burst",
        description: "Bursts of 96-128 GB/node analytics jobs with burst-buffer staging.",
        arrival: || ArrivalProcess::Bursty {
            burst_size: 12,
            within_burst_mean_secs: 8.0,
            idle_gap_mean_secs: 900.0,
        },
        // Every third job is a large-memory analytics step that stages
        // through the burst buffer and pins to the bigmem class; the rest
        // are scalar filler. Aggregate memory tops out at 4 × 128 = 512 GB,
        // well inside the paper's 2048 GB flat machine, and the per-node
        // demand exactly saturates a mixed_256 bigmem node.
        shape: |index, _, rng| {
            if index.is_multiple_of(3) {
                let nodes = rng.gen_range_inclusive(1, 4) as u32;
                let per_node_gb = rng.gen_range_inclusive(96, 128);
                JobShape {
                    duration_secs: Clamped::new(Gamma::new(2.0, 1200.0), 300.0, 28_800.0)
                        .sample(rng),
                    nodes,
                    memory_gb: nodes as u64 * per_node_gb,
                    per_node: ResourceVec::new(0, 0, per_node_gb, 2),
                    class: Some(NodeClass::BigMem),
                }
            } else {
                let nodes = rng.gen_range_inclusive(1, 8) as u32;
                JobShape::scalar(
                    Uniform::new(120.0, 900.0).sample(rng),
                    nodes,
                    nodes as u64 * 2,
                )
            }
        },
    },
];

/// Generate one workload instance from a builtin definition.
///
/// Determinism: the `(slug, n, mode, seed)` tuple fully determines the
/// output; shapes, arrivals and users draw from independent derived streams
/// so changing `n` does not reshuffle earlier jobs. The seed tree is keyed
/// by the scenario slug.
pub(crate) fn generate_builtin(spec: &BuiltinScenario, ctx: &ScenarioContext) -> Workload {
    let n = ctx.n;
    let tree = SeedTree::new(ctx.seed).subtree(spec.slug, 0);
    let mut shape_rng = tree.rng("shapes", 0);
    let mut arrival_rng = tree.rng("arrivals", 0);
    let mut user_rng = tree.rng("users", 0);

    let arrivals = match ctx.mode {
        ArrivalMode::Static => vec![SimTime::ZERO; n],
        ArrivalMode::Dynamic => (spec.arrival)().generate(n, &mut arrival_rng),
    };
    let users = UserModel::for_job_count(n);

    let jobs = (0..n)
        .map(|i| {
            let shape = (spec.shape)(i, n, &mut shape_rng);
            let (user, group) = users.sample(&mut user_rng);
            let mut job = JobSpec::new(
                i as u32,
                user,
                arrivals[i],
                SimDuration::from_secs_f64(shape.duration_secs.max(1.0)),
                shape.nodes,
                shape.memory_gb,
            )
            .with_group(group)
            .with_per_node(shape.per_node);
            if let Some(class) = shape.class {
                job = job.with_class(class);
            }
            job
        })
        .collect();

    let w = Workload {
        scenario: spec.slug.to_string(),
        jobs,
        mode: ctx.mode,
        seed: ctx.seed,
    };
    // Builtin synthetic scenarios are calibrated to the paper's machine.
    debug_assert!(w.validate(ClusterConfig::paper_default()).is_ok());
    w
}

/// Varied runtimes and resources "reflecting realistic production
/// environments". Node counts follow a heavy-tailed categorical mix with
/// memory correlated to node count; runtimes are the paper's
/// Gamma(1.5, 300).
fn heterogeneous_mix_shape(rng: &mut dyn Rng) -> JobShape {
    let duration = Clamped::new(Gamma::new(1.5, 300.0), 10.0, 20_000.0).sample(rng);
    let class = Categorical::new(&[0.45, 0.30, 0.17, 0.08]).sample_index(rng);
    let nodes = match class {
        0 => rng.gen_range_inclusive(1, 4) as u32,
        1 => rng.gen_range_inclusive(8, 32) as u32,
        2 => rng.gen_range_inclusive(48, 128) as u32,
        _ => rng.gen_range_inclusive(160, 256) as u32,
    };
    let per_node_gb = *[1u64, 2, 4, 8]
        .get(Categorical::new(&[0.3, 0.35, 0.25, 0.1]).sample_index(rng))
        .expect("index in range");
    JobShape::scalar(duration, nodes, (nodes as u64 * per_node_gb).min(2048))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtins;

    fn gen(slug: &str, n: usize) -> Workload {
        builtins()
            .generate(
                slug,
                &ScenarioContext::new(n)
                    .with_mode(ArrivalMode::Dynamic)
                    .with_seed(42),
            )
            .expect("builtin scenario")
    }

    #[test]
    fn all_scenarios_generate_valid_workloads() {
        for spec in &BUILTIN_SCENARIOS {
            for &n in &[10usize, 60, 100] {
                let w = builtins()
                    .generate(
                        spec.slug,
                        &ScenarioContext::new(n)
                            .with_mode(ArrivalMode::Dynamic)
                            .with_seed(1),
                    )
                    .expect("builtin scenario");
                assert_eq!(w.len(), n);
                w.validate(ClusterConfig::paper_default())
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.slug));
                // Ids are 0..n in submission order.
                for (i, j) in w.jobs.iter().enumerate() {
                    assert_eq!(j.id.0 as usize, i);
                }
                // Arrivals are non-decreasing.
                for pair in w.jobs.windows(2) {
                    assert!(pair[0].submit <= pair[1].submit);
                }
            }
        }
    }

    #[test]
    fn static_mode_all_at_zero() {
        for spec in &BUILTIN_SCENARIOS {
            let w = builtins()
                .generate(
                    spec.slug,
                    &ScenarioContext::new(20)
                        .with_mode(ArrivalMode::Static)
                        .with_seed(9),
                )
                .expect("builtin scenario");
            assert!(w.jobs.iter().all(|j| j.submit == SimTime::ZERO));
        }
    }

    #[test]
    fn homogeneous_short_matches_paper_parameters() {
        let w = gen("homogeneous_short", 100);
        for j in &w.jobs {
            let d = j.duration.as_secs_f64();
            assert!((30.0..=120.0).contains(&d), "duration {d}");
            assert_eq!(j.nodes, 2);
            assert_eq!(j.memory_gb, 4);
        }
    }

    #[test]
    fn long_job_dominant_ratio() {
        let w = gen("long_job_dominant", 100);
        let long = w
            .jobs
            .iter()
            .filter(|j| j.duration == SimDuration::from_secs(50_000))
            .count();
        assert_eq!(long, 20, "exactly 20% long jobs");
        let long_job = w
            .jobs
            .iter()
            .find(|j| j.duration == SimDuration::from_secs(50_000))
            .expect("exists");
        assert_eq!(long_job.nodes, 128);
        let short_job = w
            .jobs
            .iter()
            .find(|j| j.duration == SimDuration::from_secs(500))
            .expect("exists");
        assert_eq!(short_job.nodes, 2);
    }

    #[test]
    fn high_parallelism_node_range() {
        let w = gen("high_parallelism", 100);
        for j in &w.jobs {
            assert!((64..=256).contains(&j.nodes), "nodes {}", j.nodes);
            assert_eq!(j.memory_gb, j.nodes as u64 * 2);
        }
        assert!(
            w.jobs.iter().any(|j| j.nodes >= 192),
            "some very large jobs appear"
        );
    }

    #[test]
    fn resource_sparse_is_tiny() {
        let w = gen("resource_sparse", 100);
        for j in &w.jobs {
            assert_eq!(j.nodes, 1);
            assert!(j.memory_gb < 8, "memory {}", j.memory_gb);
            let d = j.duration.as_secs_f64();
            assert!((30.0..=300.0).contains(&d));
        }
    }

    #[test]
    fn bursty_idle_alternates() {
        let w = gen("bursty_idle", 40);
        for (i, j) in w.jobs.iter().enumerate() {
            if i % 2 == 0 {
                assert!(j.duration <= SimDuration::from_secs(180));
            } else {
                assert!(j.duration >= SimDuration::from_secs(1800));
            }
        }
    }

    #[test]
    fn adversarial_blocker_then_flood() {
        let w = gen("adversarial", 60);
        let blocker = &w.jobs[0];
        assert_eq!(blocker.nodes, 128);
        assert_eq!(blocker.duration, SimDuration::from_secs(100_000));
        assert_eq!(blocker.submit, SimTime::ZERO);
        for j in &w.jobs[1..] {
            assert_eq!(j.nodes, 1);
            assert_eq!(j.duration, SimDuration::from_secs(60));
        }
    }

    #[test]
    fn heterogeneous_mix_statistics() {
        let w = gen("heterogeneous_mix", 400);
        let mean_dur: f64 =
            w.jobs.iter().map(|j| j.duration.as_secs_f64()).sum::<f64>() / w.len() as f64;
        // Gamma(1.5, 300) has mean 450 (clamping perturbs slightly).
        assert!(
            (350.0..550.0).contains(&mean_dur),
            "mean duration {mean_dur}"
        );
        let small = w.jobs.iter().filter(|j| j.nodes <= 4).count();
        let large = w.jobs.iter().filter(|j| j.nodes >= 48).count();
        assert!(small > large, "node mix skews small");
        assert!(large > 0, "large jobs exist");
    }

    #[test]
    fn generation_is_deterministic() {
        for spec in &BUILTIN_SCENARIOS {
            let a = gen(spec.slug, 50);
            let b = gen(spec.slug, 50);
            assert_eq!(a.jobs, b.jobs, "{}", spec.slug);
            let c = builtins()
                .generate(
                    spec.slug,
                    &ScenarioContext::new(50)
                        .with_mode(ArrivalMode::Dynamic)
                        .with_seed(124),
                )
                .expect("builtin scenario");
            assert_ne!(a.jobs, c.jobs, "{} ignores seed", spec.slug);
        }
    }

    #[test]
    fn users_are_assigned_from_a_small_pool() {
        let w = gen("heterogeneous_mix", 60);
        let mut users: Vec<u32> = w.jobs.iter().map(|j| j.user.0).collect();
        users.sort_unstable();
        users.dedup();
        assert!(users.len() >= 2, "multiple users");
        assert!(users.len() <= 10, "bounded user pool");
    }

    #[test]
    fn wide_job_convoy_leads_each_wave_with_wide_jobs() {
        let w = gen("wide_job_convoy", 48);
        for (i, j) in w.jobs.iter().enumerate() {
            if i % 16 < 4 {
                assert!((96..=192).contains(&j.nodes), "job {i}: {}", j.nodes);
            } else {
                assert!(j.nodes <= 4, "job {i}: {}", j.nodes);
            }
        }
    }

    #[test]
    fn gpu_skewed_hetmix_has_memory_hungry_minority() {
        let w = gen("gpu_skewed_hetmix", 200);
        let hungry = w
            .jobs
            .iter()
            .filter(|j| j.memory_gb >= j.nodes as u64 * 32)
            .count();
        let frac = hungry as f64 / w.len() as f64;
        assert!((0.2..=0.5).contains(&frac), "memory-hungry fraction {frac}");
    }

    #[test]
    fn gpu_skewed_hetmix_accelerator_jobs_are_gpu_demanding() {
        let w = gen("gpu_skewed_hetmix", 200);
        let mut accel = 0usize;
        for j in &w.jobs {
            if j.class == Some(NodeClass::Gpu) {
                accel += 1;
                assert_eq!(j.per_node.gpus, 4, "job {}", j.id.0);
                assert!(
                    (32..=64).contains(&j.per_node.memory_gb),
                    "job {}: {} GB/node",
                    j.id.0,
                    j.per_node.memory_gb
                );
                assert!(j.nodes <= 8);
                // Fits a mixed_256 gpu node (64 cores, 4 GPUs, 64 GB, 2 bb).
                assert!(ResourceVec::new(64, 4, 64, 2).dominates(&j.per_node));
            } else {
                assert_eq!(j.class, None);
                assert!(j.per_node.is_zero(), "scalar jobs carry no demand");
            }
        }
        let frac = accel as f64 / w.len() as f64;
        assert!((0.2..=0.5).contains(&frac), "accelerator fraction {frac}");
    }

    #[test]
    fn bigmem_burst_pins_analytics_jobs_to_the_bigmem_class() {
        let w = gen("bigmem_burst", 90);
        for (i, j) in w.jobs.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(j.class, Some(NodeClass::BigMem), "job {i}");
                assert!((96..=128).contains(&j.per_node.memory_gb), "job {i}");
                assert_eq!(j.per_node.bb_slots, 2);
                assert!(j.nodes <= 4, "fits the 16-node bigmem class");
                assert_eq!(j.memory_gb, j.nodes as u64 * j.per_node.memory_gb);
                // Fits a mixed_256 bigmem node (64 cores, 128 GB, 4 bb).
                assert!(ResourceVec::new(64, 0, 128, 4).dominates(&j.per_node));
            } else {
                assert_eq!(j.class, None, "job {i}");
                assert!(j.per_node.is_zero());
                assert!(j.nodes <= 8);
            }
        }
    }

    #[test]
    fn long_tail_spans_orders_of_magnitude() {
        let w = gen("long_tail", 300);
        let max = w
            .jobs
            .iter()
            .map(|j| j.duration.as_secs_f64())
            .fold(0.0, f64::max);
        let min = w
            .jobs
            .iter()
            .map(|j| j.duration.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(max / min > 100.0, "tail spread {max}/{min}");
        for j in &w.jobs {
            assert!(j.nodes <= 8);
        }
    }

    #[test]
    fn validation_reports_through_workload_error() {
        let mut w = gen("homogeneous_short", 4);
        w.jobs[2].nodes = 100_000;
        let err = w.validate(ClusterConfig::paper_default()).unwrap_err();
        match &err {
            WorkloadError::Validation { job, message } => {
                assert_eq!(*job, 2);
                assert!(message.contains("nodes"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("job 2"));
    }
}
