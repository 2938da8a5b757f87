//! `agent_1k`: the paper's subject. The simulated Claude 3.7 agent on
//! `heterogeneous_mix` and the simulated O4-Mini agent on `bursty_idle`,
//! 1000 jobs each, on the paper's machine.
//!
//! All of the wall is `decide`: prompt render → simulated model →
//! completion parse. Queues stay far below the parallel-scan threshold, so
//! the kernel's scan path is bypassed, and no calendar is consulted.

use std::time::Instant;

use rsched_cluster::ClusterConfig;
use rsched_llm::prompt_parse::parse_prompt;
use rsched_llm::SimulatedLlm;
use rsched_sim::SimOptions;
use rsched_workloads::ArrivalMode;

use super::{run_cell, scenario_jobs, SimCell, SimFold};
use crate::harness::{PassClock, PassOutput, Workload};
use crate::wrap::{
    agent_policy, CapturedPrompts, PolicyKey, CLAUDE37, O4_MINI, PROMPT_SAMPLE_EVERY,
};

const JOBS: usize = 500;

pub struct Agent1k {
    cells: Vec<SimCell>,
    /// Prompts the traced language models kept for the re-parse timing.
    captured: CapturedPrompts,
}

pub fn new(seed: u64, scale: usize) -> Agent1k {
    let cluster = ClusterConfig::paper_default();
    let captured = CapturedPrompts::default();
    let cell = |label, scenario, key: &'static PolicyKey, persona: fn(u64) -> SimulatedLlm| {
        let captured = captured.clone();
        SimCell {
            label,
            cluster,
            jobs: scenario_jobs(scenario, JOBS / scale, ArrivalMode::Dynamic, seed, cluster),
            options: SimOptions::default(),
            key,
            make: Box::new(move |traced| agent_policy(persona, seed, traced.then_some(&captured))),
        }
    };
    Agent1k {
        cells: vec![
            cell(
                "heterogeneous_mix/Claude-3.7",
                "heterogeneous_mix",
                &CLAUDE37,
                SimulatedLlm::claude37,
            ),
            cell(
                "bursty_idle/O4-Mini",
                "bursty_idle",
                &O4_MINI,
                SimulatedLlm::o4mini,
            ),
        ],
        captured,
    }
}

/// Time the model side's prompt parser over the prompts kept from the
/// pass, scaled up by the sampling stride: an estimate of how much of
/// `llm.complete_s` is spent reading the prompt back.
pub fn reparse_captured(captured: &CapturedPrompts) -> f64 {
    let prompts = std::mem::take(&mut *captured.lock().expect("prompt capture lock poisoned"));
    let started = Instant::now();
    for prompt in &prompts {
        let _ = std::hint::black_box(parse_prompt(std::hint::black_box(prompt)));
    }
    started.elapsed().as_secs_f64() * PROMPT_SAMPLE_EVERY as f64
}

impl Workload for Agent1k {
    fn pass(&mut self, clock: &mut PassClock, traced: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let mut fold = SimFold::default();
        for cell in &self.cells {
            run_cell(cell, clock, traced, &mut fold, &mut out);
        }
        fold.finish(&mut out);
        if traced {
            out.timings
                .insert("llm.prompt_parse_s", reparse_captured(&self.captured));
        }
        out
    }
}
