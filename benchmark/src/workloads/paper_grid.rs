//! `paper_grid`: the paper's own experiment as a `Campaign` — its seven
//! policies × its seven scenarios × three queue sizes, every cell cold in
//! a fresh directory, on the two-worker pool.
//!
//! The optimisation baseline (`rsched-cpsolver` behind the OR-Tools
//! policy) does nearly all of the work; the agents a few percent; the
//! baselines and the kernel next to nothing at these queue sizes. The
//! calendar and the scan path are bypassed.
//!
//! The traced pass runs on **one** worker so that cells do not overlap in
//! time and the main thread's `campaign.run` span can adopt what the worker
//! records; the same pass untraced gives the reference for the tracing
//! overhead and, over the timed two-worker passes, `parallel.speedup_2w`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsched_campaign::{Campaign, CampaignOutcome, CampaignSpec, CampaignSummary};
use rsched_llm::SimulatedLlm;
use rsched_metrics::report::Metric;
use rsched_parallel::ThreadPool;
use rsched_registry::PolicyRegistry;
use rsched_sim::SchedulingPolicy;
use rsched_workloads::registry::names::LEGACY_SEVEN;
use rsched_workloads::{scenario_builtins, ScenarioRegistry};

use super::agent_1k::reparse_captured;
use crate::check::combine_fnv48;
use crate::harness::{PassClock, PassOutput, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{
    agent_policy, CapturedPrompts, PolicyKey, TimedPolicy, CLAUDE37, EASY, FCFS, O4_MINI, OR_TOOLS,
    RANDOM, SJF,
};

const POLICIES: [&PolicyKey; 7] = [&FCFS, &SJF, &OR_TOOLS, &CLAUDE37, &O4_MINI, &EASY, &RANDOM];
const JOBS: [usize; 3] = [20, 30, 40];
const POOL_WORKERS: usize = 2;

pub struct PaperGrid {
    spec: CampaignSpec,
    plain: Campaign,
    traced: Campaign,
    pool: ThreadPool,
    one_worker: ThreadPool,
    root: PathBuf,
    cells: usize,
    jobs_per_pass: u64,
    first_summary: Option<Vec<u8>>,
    captured: CapturedPrompts,
}

impl PaperGrid {
    pub fn new(seed: u64, scale: usize) -> Result<Self, String> {
        // Dividing 20/40/60 jobs by the test scale would leave nothing to
        // schedule; the tests shrink the grid instead.
        let (jobs, scenarios): (Vec<usize>, &[&str]) = if scale > 1 {
            (vec![6], &LEGACY_SEVEN[..2])
        } else {
            (JOBS.to_vec(), &LEGACY_SEVEN[..])
        };
        let quoted = |names: &mut dyn Iterator<Item = &str>| -> String {
            names
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let text = format!(
            "name = \"bench-paper-grid\"\npolicies = [{}]\nscenarios = [{}]\njobs = {jobs:?}\nseeds = [{seed}]\nobjectives = [\"avg_wait\", \"avg_turnaround\", \"node_util\", \"wait_fairness\"]\n",
            quoted(&mut POLICIES.iter().map(|k| k.registry_name)),
            quoted(&mut scenarios.iter().copied()),
        );
        let spec = CampaignSpec::parse(&text).map_err(|e| format!("campaign spec: {e}"))?;
        let root = crate::out_dir()
            .join("tmp")
            .join(format!("paper_grid-{}", std::process::id()));
        let captured = CapturedPrompts::default();
        let plain = Campaign::new(spec.clone()).out_root(&root);
        let traced = Campaign::new(spec.clone())
            .out_root(&root)
            .policies(Arc::new(traced_policies(&captured)))
            .scenarios(Arc::new(traced_scenarios(scenarios)));
        let cells = plain.grid().len();
        let jobs_per_pass = plain.grid().iter().map(|c| c.jobs as u64).sum();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(PaperGrid {
            spec,
            plain,
            traced,
            pool: ThreadPool::new(POOL_WORKERS.min(workers)),
            one_worker: ThreadPool::new(1),
            root,
            cells,
            jobs_per_pass,
            first_summary: None,
            captured,
        })
    }

    fn clear_cache(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    fn check_cold(&mut self, outcome: &CampaignOutcome, out: &mut PassOutput) {
        if outcome.results.len() != self.cells || outcome.ran != self.cells || outcome.cached != 0 {
            out.fail(
                (self.cells - outcome.ran.min(self.cells)) as u64,
                format!(
                    "cold run: {} results, {} ran, {} cached, grid has {}",
                    outcome.results.len(),
                    outcome.ran,
                    outcome.cached,
                    self.cells
                ),
            );
        }
        for result in &outcome.results {
            if result.placements != result.cell.jobs as u64 {
                out.fail(
                    1,
                    format!(
                        "{}: placed {} of {} jobs",
                        result.cell.label(),
                        result.placements,
                        result.cell.jobs
                    ),
                );
            }
        }
        match std::fs::read(outcome.out_dir.join("summary.json")) {
            Err(e) => out.fail(1, format!("summary.json: {e}")),
            Ok(bytes) => {
                let mut fingerprint = 0u64;
                for chunk in bytes.chunks(6) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    fingerprint = combine_fnv48(fingerprint, u64::from_le_bytes(word));
                }
                out.fingerprint = fingerprint;
                match &self.first_summary {
                    None => self.first_summary = Some(bytes),
                    Some(first) if *first != bytes => {
                        out.fail(1, "summary.json differs from the first pass's".to_string())
                    }
                    Some(_) => {}
                }
            }
        }
        let sum =
            |metric: Metric| -> f64 { outcome.results.iter().map(|r| r.metric(metric)).sum() };
        out.exact.insert("campaign.cells", self.cells as f64);
        out.exact.insert(
            "sim.epochs",
            outcome.results.iter().map(|r| r.epochs as f64).sum(),
        );
        out.exact.insert("sim.makespan_s", sum(Metric::Makespan));
        out.exact.insert(
            "sim.avg_wait_s",
            sum(Metric::AvgWait) / self.cells.max(1) as f64,
        );
        out.exact.insert(
            "sim.node_util",
            sum(Metric::NodeUtilization) / self.cells.max(1) as f64,
        );
    }
}

impl Workload for PaperGrid {
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput {
        let mut out = PassOutput {
            attempted: self.cells as u64,
            submitted: self.jobs_per_pass,
            ..PassOutput::default()
        };
        if traced {
            // The one-worker reference, wrappers off.
            self.clear_cache();
            let started = Instant::now();
            let reference = trace::pause_while(|| self.plain.run(&self.one_worker));
            out.timings
                .insert("campaign.run_cold_1w_s", started.elapsed().as_secs_f64());
            if let Err(e) = reference {
                out.fail(self.cells as u64, format!("one-worker reference run: {e}"));
            }
        }
        self.clear_cache();
        let cold = clock.region(|| {
            if traced {
                let _span = trace::span("campaign.run", Layer::Campaign);
                trace::adopting(|| self.traced.run(&self.one_worker))
            } else {
                self.plain.run(&self.pool)
            }
        });
        let outcome = match cold {
            Ok(outcome) => outcome,
            Err(e) => {
                out.fail(self.cells as u64, format!("cold run: {e}"));
                return out;
            }
        };
        self.check_cold(&outcome, &mut out);
        if traced {
            // The read side of the cache the cold run just wrote.
            let started = Instant::now();
            let warm = trace::pause_while(|| self.traced.run(&self.one_worker));
            out.timings
                .insert("campaign.run_warm_s", started.elapsed().as_secs_f64());
            match warm {
                Err(e) => out.fail(self.cells as u64, format!("warm rerun: {e}")),
                Ok(warm) => {
                    if warm.cached != self.cells {
                        out.fail(
                            (self.cells - warm.cached.min(self.cells)) as u64,
                            format!(
                                "warm rerun: {} of {} cells from the cache",
                                warm.cached, self.cells
                            ),
                        );
                    }
                    out.exact
                        .insert("campaign.cache_hits_warm", warm.cached as f64);
                }
            }
            let started = Instant::now();
            std::hint::black_box(CampaignSummary::compute(&self.spec, &outcome.results));
            out.timings
                .insert("metrics.pareto_s", started.elapsed().as_secs_f64());
            out.timings
                .insert("llm.prompt_parse_s", reparse_captured(&self.captured));
        }
        out
    }
}

impl Drop for PaperGrid {
    fn drop(&mut self) {
        self.clear_cache();
    }
}

/// The builtin policies behind the wrappers, under their builtin names.
/// The two agents are built the way the builtin registry builds them, with
/// the language model wrapped as well.
fn traced_policies(captured: &CapturedPrompts) -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    for key in POLICIES {
        let captured = Arc::clone(captured);
        registry
            .register(key.registry_name, move |ctx| {
                let inner: Box<dyn SchedulingPolicy> = match key.key {
                    "claude-3.7" => agent_policy(SimulatedLlm::claude37, ctx.seed, Some(&captured)),
                    "o4-mini" => agent_policy(SimulatedLlm::o4mini, ctx.seed, Some(&captured)),
                    _ => rsched_registry::builtins()
                        .build(key.registry_name, ctx)
                        .unwrap_or_else(|e| panic!("builtin policy `{}`: {e}", key.registry_name)),
                };
                Box::new(TimedPolicy::new(inner, key))
            })
            .unwrap_or_else(|e| panic!("fresh registry: {e}"));
    }
    registry
}

/// The builtin scenario generators, each under a span.
fn traced_scenarios(names: &[&'static str]) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    for &name in names {
        registry
            .register(name, move |ctx| {
                let _span = trace::span("workloads.scenario_generate", Layer::Workloads);
                scenario_builtins()
                    .generate(name, ctx)
                    .unwrap_or_else(|e| panic!("builtin scenario `{name}`: {e}"))
            })
            .unwrap_or_else(|e| panic!("fresh registry: {e}"));
    }
    registry
}
