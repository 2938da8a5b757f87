//! Wrapper types around the program's public traits. They exist only in
//! the traced pass: the timed passes run the bare policies, and the
//! outcome fingerprint must be identical with and without them.

use std::sync::Arc;

use rsched_core::action::parse_completion;
use rsched_core::LlmSchedulingPolicy;
use rsched_llm::backend::{Completion, LanguageModel, LlmError};
use rsched_llm::SimulatedLlm;
use rsched_sim::{Action, ActionOutcome, OverheadReport, SchedulingPolicy, SystemView};
use rsched_telemetry::DelayReason;

use crate::trace::{self, Layer};

/// The span and counter names of one policy. A fixed table, because span
/// names are `&'static str` and `BENCHMARK.json` lists the metrics built
/// from them by name.
#[derive(Debug)]
pub struct PolicyKey {
    /// The `<p>` of `schedulers.<p>.*`.
    pub key: &'static str,
    /// The name the policy registry knows it by.
    pub registry_name: &'static str,
    pub layer: Layer,
    pub decide: &'static str,
    pub observe: &'static str,
    pub queries: &'static str,
    pub placements: &'static str,
    pub backfills: &'static str,
    pub delays: &'static str,
    pub rejections: &'static str,
}

macro_rules! policy_key {
    ($key:literal, $registry:literal, $layer:expr) => {
        PolicyKey {
            key: $key,
            registry_name: $registry,
            layer: $layer,
            decide: concat!("schedulers.", $key, ".decide"),
            observe: concat!("schedulers.", $key, ".observe"),
            queries: concat!("schedulers.", $key, ".queries"),
            placements: concat!("schedulers.", $key, ".placements"),
            backfills: concat!("schedulers.", $key, ".backfills"),
            delays: concat!("schedulers.", $key, ".delays"),
            rejections: concat!("schedulers.", $key, ".rejections"),
        }
    };
}

pub static FCFS: PolicyKey = policy_key!("fcfs", "FCFS", Layer::Schedulers);
pub static SJF: PolicyKey = policy_key!("sjf", "SJF", Layer::Schedulers);
pub static EASY: PolicyKey = policy_key!("easy", "EASY", Layer::Schedulers);
pub static CONSERVATIVE: PolicyKey = policy_key!("conservative", "Conservative", Layer::Schedulers);
pub static RANDOM: PolicyKey = policy_key!("random", "Random", Layer::Schedulers);
pub static OR_TOOLS: PolicyKey = policy_key!("or-tools", "OR-Tools", Layer::Cpsolver);
pub static CLAUDE37: PolicyKey = policy_key!("claude-3.7", "Claude-3.7", Layer::Core);
pub static O4_MINI: PolicyKey = policy_key!("o4-mini", "O4-Mini", Layer::Core);

pub static ALL_POLICY_KEYS: [&PolicyKey; 8] = [
    &FCFS,
    &SJF,
    &EASY,
    &CONSERVATIVE,
    &RANDOM,
    &OR_TOOLS,
    &CLAUDE37,
    &O4_MINI,
];

/// A policy with a span around every `decide` and `observe` and counters
/// for what the kernel made of each action. Every other trait method
/// forwards, so the kernel sees the inner policy's behaviour unchanged.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    key: &'static PolicyKey,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn SchedulingPolicy>, key: &'static PolicyKey) -> Self {
        TimedPolicy { inner, key }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        let _span = trace::span(self.key.decide, self.key.layer);
        self.inner.decide(view)
    }

    fn observe(&mut self, outcome: &ActionOutcome) {
        {
            let _span = trace::span(self.key.observe, self.key.layer);
            self.inner.observe(outcome);
        }
        trace::count(self.key.queries, 1.0);
        match (outcome.accepted(), outcome.action) {
            (false, _) => trace::count(self.key.rejections, 1.0),
            (true, Action::StartJob(_)) => trace::count(self.key.placements, 1.0),
            (true, Action::BackfillJob(_)) => {
                trace::count(self.key.placements, 1.0);
                trace::count(self.key.backfills, 1.0);
            }
            (true, Action::Delay) => trace::count(self.key.delays, 1.0),
            (true, Action::Stop) => {}
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn overhead_report(&self) -> Option<OverheadReport> {
        self.inner.overhead_report()
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.inner.provenance()
    }
}

/// The prompts the traced language models kept, shared with the workload
/// that re-parses them after the pass.
pub type CapturedPrompts = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

/// An agent policy over a simulated persona, built the way the builtin
/// registry and `LlmSchedulingPolicy::claude37`/`o4mini` build it; with
/// `capture`, the model goes behind a [`TimedLlm`] first.
pub fn agent_policy(
    persona: fn(u64) -> SimulatedLlm,
    seed: u64,
    capture: Option<&CapturedPrompts>,
) -> Box<dyn SchedulingPolicy> {
    let model: Box<dyn LanguageModel> = match capture {
        Some(captured) => Box::new(TimedLlm::new(persona(seed), Arc::clone(captured))),
        None => Box::new(persona(seed)),
    };
    Box::new(LlmSchedulingPolicy::new(model))
}

/// One prompt in this many is kept for the re-parse measurement; keeping
/// all of them would hold every rendered queue of the pass in memory.
pub const PROMPT_SAMPLE_EVERY: u64 = 16;

/// A language model with a span around every `complete` and counters for
/// the traffic through it.
pub struct TimedLlm<L> {
    inner: L,
    calls: u64,
    /// Every [`PROMPT_SAMPLE_EVERY`]-th prompt.
    captured: CapturedPrompts,
}

impl<L: LanguageModel> TimedLlm<L> {
    pub fn new(inner: L, captured: CapturedPrompts) -> Self {
        TimedLlm {
            inner,
            calls: 0,
            captured,
        }
    }
}

impl<L: LanguageModel> LanguageModel for TimedLlm<L> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        if self.calls.is_multiple_of(PROMPT_SAMPLE_EVERY) {
            if let Ok(mut captured) = self.captured.lock() {
                captured.push(prompt.to_string());
            }
        }
        self.calls += 1;
        trace::count("core.prompt_bytes", prompt.len() as f64);
        trace::count_max("core.prompt_bytes_max", prompt.len() as f64);
        let result = {
            let _span = trace::span("llm.complete", Layer::Llm);
            self.inner.complete(prompt)
        };
        match &result {
            Ok(completion) => {
                // What the agent will make of the text: it counts a
                // completion it cannot parse as malformed and delays.
                if parse_completion(&completion.text).is_err() {
                    trace::count("core.malformed_completions", 1.0);
                }
                trace::count("llm.prompt_tokens", f64::from(completion.prompt_tokens));
                trace::count(
                    "llm.completion_tokens",
                    f64::from(completion.completion_tokens),
                );
                trace::count("llm.sim_latency_s", completion.latency_secs);
            }
            Err(_) => trace::count("core.malformed_completions", 1.0),
        }
        result
    }
}
