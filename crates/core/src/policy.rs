//! The ReAct agent (paper §2.3, Algorithm 1) as a [`SchedulingPolicy`] —
//! pluggable into the simulator exactly like the FCFS/SJF/OR-Tools
//! baselines.
//!
//! Per query the agent: (1) constructs the prompt from the system snapshot
//! and the scratchpad — through the one [`PromptBuilder`] it keeps, which
//! copies every job line its last prompt wrote for an unchanged job, so
//! only status lines, new jobs' lines and each waiting job's `waiting N s`
//! are written anew — (2) queries the LLM, (3) parses the
//! `Thought`/`Action` completion, (4) appends thought and action to the
//! scratchpad, and (5) when the simulator rejects the action, appends the
//! natural-language feedback so the next query can correct course — no
//! retraining, only prompt context.
//!
//! Every call the model answers is written down once, as a [`CallRecord`];
//! the interpretable traces of the paper's Figure 2, the overhead numbers
//! of §3.7 (Figures 5–6) and the malformed-completion count are all read
//! from that one log. A record renders in the layout of a Figure 2 panel:
//!
//! ```text
//! # Thought
//! <reasoning>
//!
//! # Action
//! StartJob(job_id=9)
//!
//! Decision at t=0
//! ```

use std::fmt;

use rsched_llm::backend::LanguageModel;
use rsched_llm::SimulatedLlm;
use rsched_sim::{Action, ActionOutcome, OverheadReport, SchedulingPolicy, SystemView};

use crate::action::parse_completion;
use crate::constraints::render_feedback;
use crate::prompt::PromptBuilder;
use crate::scratchpad::Scratchpad;

/// One call the model answered, and what became of its answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Simulation time of the query, whole seconds.
    pub time_secs: u64,
    /// The model's reasoning text (the whole completion when it could not
    /// be parsed).
    pub thought: String,
    /// The action the completion asked for; `None` if it could not be
    /// parsed, in which case the simulator was handed a forced `Delay`.
    pub action: Option<Action>,
    /// Sampled (or measured) inference latency, seconds.
    pub latency_secs: f64,
    /// Prompt size, tokens.
    pub prompt_tokens: u32,
    /// Completion size, tokens.
    pub completion_tokens: u32,
    /// Waiting-queue length at the call.
    pub queue_len: usize,
    /// Whether the simulator accepted the action (`None` until it rules).
    pub accepted: Option<bool>,
    /// Environment feedback, if the action was rejected.
    pub feedback: Option<String>,
}

impl CallRecord {
    /// `true` for an accepted `start_job` / `backfill_job` — the calls the
    /// latency panel of Figures 5–6 keeps, because delay-producing calls
    /// reflect system saturation rather than reasoning difficulty
    /// (§3.7.1).
    pub fn is_accepted_placement(&self) -> bool {
        self.accepted == Some(true) && self.action.is_some_and(|a| a.is_placement())
    }
}

/// Renders the record as one Figure 2 panel.
impl fmt::Display for CallRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Thought\n{}\n\n# Action", self.thought)?;
        match self.action {
            Some(action) => writeln!(f, "{action}")?,
            None => writeln!(f, "Delay (forced)")?,
        }
        if let Some(feedback) = &self.feedback {
            writeln!(f, "\n# Feedback from Environment")?;
            writeln!(f, "[t={}] {feedback}", self.time_secs)?;
        }
        write!(f, "\nDecision at t={}", self.time_secs)
    }
}

/// The ReAct scheduling agent: Algorithm 1's loop around any
/// [`LanguageModel`], driven by the simulator as a [`SchedulingPolicy`].
pub struct LlmSchedulingPolicy {
    name: String,
    llm: Box<dyn LanguageModel>,
    scratchpad: Scratchpad,
    /// Writes every query's prompt but its history.
    prompt: PromptBuilder,
    calls: Vec<CallRecord>,
}

impl LlmSchedulingPolicy {
    /// Wrap any language model.
    pub fn new(llm: Box<dyn LanguageModel>) -> Self {
        LlmSchedulingPolicy {
            name: llm.model_name().to_string(),
            llm,
            scratchpad: Scratchpad::default(),
            prompt: PromptBuilder::default(),
            calls: Vec::new(),
        }
    }

    /// The simulated Claude 3.7 scheduler (paper's first model).
    pub fn claude37(seed: u64) -> Self {
        LlmSchedulingPolicy::new(Box::new(SimulatedLlm::claude37(seed)))
    }

    /// The simulated O4-Mini scheduler (paper's second model).
    pub fn o4mini(seed: u64) -> Self {
        LlmSchedulingPolicy::new(Box::new(SimulatedLlm::o4mini(seed)))
    }

    /// The run's log: one record per call the model answered, oldest
    /// first. A call that errored leaves none (its forced `Delay` shows
    /// only as scratchpad feedback).
    pub fn calls(&self) -> &[CallRecord] {
        &self.calls
    }

    /// The whole log as Figure 2 panels, separated by rulers.
    pub fn render_trace(&self) -> String {
        let panels: Vec<String> = self.calls.iter().map(CallRecord::to_string).collect();
        panels.join("\n\n────────────────────────────\n\n")
    }

    /// Completions that could not be parsed (diagnostic).
    pub fn malformed_completions(&self) -> usize {
        self.calls.iter().filter(|c| c.action.is_none()).count()
    }

    /// The scratchpad (for inspection).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratchpad
    }
}

impl SchedulingPolicy for LlmSchedulingPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    /// One Reason + Act step. LLM failures and unparseable completions
    /// degrade to `Delay`, with the problem recorded as scratchpad
    /// feedback.
    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        let now = view.now.as_secs();
        let prompt = self.prompt.prompt(view, &self.scratchpad);
        let completion = match self.llm.complete_prompt(&prompt) {
            Ok(c) => c,
            Err(e) => {
                self.scratchpad
                    .push_feedback(now, &format!("LLM call failed ({e}); defaulting to Delay."));
                return Action::Delay;
            }
        };
        let (thought, action) = match parse_completion(&completion.text) {
            Ok(parsed) => {
                self.scratchpad.push_thought(now, &parsed.thought);
                self.scratchpad.push_action(now, &parsed.action.to_string());
                (parsed.thought, Some(parsed.action))
            }
            Err(e) => {
                self.scratchpad.push_feedback(
                    now,
                    &format!("Output could not be parsed ({e}); defaulting to Delay."),
                );
                (completion.text, None)
            }
        };
        self.calls.push(CallRecord {
            time_secs: now,
            thought,
            action,
            latency_secs: completion.latency_secs,
            prompt_tokens: completion.prompt_tokens,
            completion_tokens: completion.completion_tokens,
            queue_len: view.waiting.len(),
            accepted: None,
            feedback: None,
        });
        action.unwrap_or(Action::Delay)
    }

    fn observe(&mut self, outcome: &ActionOutcome) {
        let feedback = outcome
            .rejected
            .as_ref()
            .map(|reason| render_feedback(&outcome.action, reason));
        if let Some(feedback) = &feedback {
            self.scratchpad
                .push_feedback(outcome.time.as_secs(), feedback);
        }
        // The simulator rules on every action before it asks for the next,
        // so a record still without a verdict is the one this outcome
        // answers. A call that errored logged none: the verdict on its
        // forced `Delay` finds the last record already ruled on and must
        // not overwrite it.
        if let Some(call) = self.calls.last_mut().filter(|c| c.accepted.is_none()) {
            call.accepted = Some(outcome.accepted());
            call.feedback = feedback;
        }
    }

    fn reset(&mut self) {
        self.scratchpad.clear();
        self.prompt = PromptBuilder::default();
        self.calls.clear();
    }

    fn overhead_report(&self) -> Option<OverheadReport> {
        Some(OverheadReport {
            total_elapsed_secs: self.calls.iter().map(|c| c.latency_secs).sum(),
            call_count: self.calls.len(),
            placement_latencies: self
                .calls
                .iter()
                .filter(|c| c.is_accepted_placement())
                .map(|c| c.latency_secs)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec};
    use rsched_llm::backend::{Completion, LlmError};
    use rsched_llm::script::ScriptedBackend;
    use rsched_sim::{run_simulation, RejectReason, SimOptions};
    use rsched_simkit::{SimDuration, SimTime};
    use rsched_workloads::{scenario_builtins, ArrivalMode, ScenarioContext, Workload};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn waiting_jobs() -> Vec<JobSpec> {
        vec![JobSpec::new(
            9,
            2,
            SimTime::ZERO,
            SimDuration::from_secs(2),
            256,
            2,
        )]
    }

    fn view_with_waiting(waiting: &[JobSpec]) -> SystemView<'_> {
        SystemView {
            now: SimTime::ZERO,
            config: ClusterConfig::paper_default(),
            free_nodes: 256,
            free_memory_gb: 2048,
            free_by_class: [0; rsched_cluster::MAX_CLASSES],
            waiting: waiting.into(),
            running: Default::default(),
            completed: 0,
            pending_arrivals: 0,
            total_jobs: 1,
            telemetry: None,
            queue: None,
        }
    }

    fn scripted<const N: usize>(responses: [&str; N]) -> LlmSchedulingPolicy {
        LlmSchedulingPolicy::new(Box::new(ScriptedBackend::new(responses)))
    }

    fn verdict(action: Action, rejected: Option<RejectReason>) -> ActionOutcome {
        ActionOutcome {
            time: SimTime::ZERO,
            action,
            rejected,
        }
    }

    fn too_few_nodes() -> Option<RejectReason> {
        Some(RejectReason::InsufficientResources {
            job: JobId(9),
            needed_nodes: 256,
            needed_memory_gb: 2,
            free_nodes: 100,
            free_memory_gb: 2048,
        })
    }

    #[test]
    fn a_query_parses_and_records() {
        let backend =
            ScriptedBackend::new(["Thought: job 9 is extremely short\nAction: StartJob(job_id=9)"])
                .with_latency(3.5);
        let mut agent = LlmSchedulingPolicy::new(Box::new(backend));
        let action = agent.decide(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::StartJob(JobId(9)));
        let [call] = agent.calls() else {
            panic!("one call, one record");
        };
        assert_eq!(call.action, Some(action));
        assert_eq!((call.latency_secs, call.queue_len), (3.5, 1));
        assert_eq!(agent.scratchpad().len(), 2, "thought + action recorded");
        let pad = agent.scratchpad().render();
        assert!(pad.contains("[t=0] Thought: job 9 is extremely short"));
        assert!(pad.contains("[t=0] Action: StartJob(job_id=9)"));
    }

    #[test]
    fn a_record_renders_as_a_figure2_panel() {
        let mut agent = scripted(["Thought: job 9 completes quickly\nAction: StartJob(job_id=9)"]);
        let action = agent.decide(&view_with_waiting(&waiting_jobs()));
        agent.observe(&verdict(action, None));
        assert_eq!(
            agent.render_trace(),
            "# Thought\njob 9 completes quickly\n\n# Action\nStartJob(job_id=9)\n\nDecision at t=0"
        );
    }

    #[test]
    fn rejection_feedback_lands_in_scratchpad_and_record() {
        let mut agent = scripted(["Thought: try the big one\nAction: StartJob(job_id=9)"]);
        let action = agent.decide(&view_with_waiting(&waiting_jobs()));
        agent.observe(&verdict(action, too_few_nodes()));
        let pad = agent.scratchpad().render();
        assert!(pad.contains("Feedback: Action: StartJob failed"), "{pad}");
        let trace = agent.render_trace();
        assert!(
            trace.contains("# Feedback from Environment\n[t=0] Action: StartJob failed"),
            "{trace}"
        );
        let report = agent.overhead_report().expect("agents report overhead");
        assert!(report.placement_latencies.is_empty());
    }

    #[test]
    fn only_accepted_placements_count_in_the_latency_panel() {
        let backend = ScriptedBackend::new([
            "Thought: go\nAction: StartJob(job_id=9)",
            "Thought: wait\nAction: Delay",
            "Thought: fill\nAction: BackfillJob(job_id=9)",
            "Thought: again\nAction: StartJob(job_id=9)",
        ])
        .with_latency(7.0);
        let mut agent = LlmSchedulingPolicy::new(Box::new(backend));
        let waiting = waiting_jobs();
        for rejected in [None, None, None, too_few_nodes()] {
            let action = agent.decide(&view_with_waiting(&waiting));
            agent.observe(&verdict(action, rejected));
        }
        let report = agent.overhead_report().expect("agents report overhead");
        assert_eq!(report.call_count, 4);
        assert_eq!(report.total_elapsed_secs, 28.0);
        assert_eq!(report.placement_latencies, vec![7.0, 7.0]);
    }

    #[test]
    fn unparseable_completion_degrades_to_delay() {
        let mut agent = scripted(["I refuse to answer in the format"]);
        let action = agent.decide(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::Delay);
        assert_eq!(agent.malformed_completions(), 1);
        assert!(agent
            .scratchpad()
            .render()
            .contains("Output could not be parsed"));
        let panel = agent.render_trace();
        assert!(panel.contains("I refuse to answer") && panel.contains("Delay (forced)"));
    }

    #[test]
    fn llm_error_degrades_to_delay() {
        let mut agent = scripted([]); // exhausted
        let action = agent.decide(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::Delay);
        assert!(agent.scratchpad().render().contains("LLM call failed"));
        assert!(agent.calls().is_empty());
    }

    /// The Fig. 5/6 latency panel keeps accepted placements only. A call
    /// that fails records nothing, so the verdict on its forced `Delay`
    /// has no record of its own to land on — and must not land on the
    /// previous call's.
    #[test]
    fn failed_call_leaves_earlier_verdicts_alone() {
        let mut agent = scripted(["Thought: go\nAction: StartJob(job_id=9)"]);
        let waiting = waiting_jobs();
        let action = agent.decide(&view_with_waiting(&waiting));
        agent.observe(&verdict(action, too_few_nodes()));
        // The script is exhausted: this call errs and degrades to `Delay`,
        // which the simulator accepts.
        let action = agent.decide(&view_with_waiting(&waiting));
        assert_eq!(action, Action::Delay);
        agent.observe(&verdict(action, None));
        let [call] = agent.calls() else {
            panic!("the failed call logs nothing");
        };
        assert_eq!(call.accepted, Some(false));
        assert!(call.feedback.is_some());
        let report = agent.overhead_report().expect("agents report overhead");
        assert!(report.placement_latencies.is_empty());
    }

    /// Always delays, and keeps every prompt it was handed where the test
    /// can still read them once the model is boxed into the agent.
    struct RecordingModel(Rc<RefCell<Vec<String>>>);

    impl LanguageModel for RecordingModel {
        fn model_name(&self) -> &str {
            "recording"
        }

        fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
            self.0.borrow_mut().push(prompt.to_string());
            Ok(Completion {
                text: "Thought: nothing fits; wait for a release\nAction: Delay".to_string(),
                prompt_tokens: 0,
                completion_tokens: 0,
                latency_secs: 0.0,
            })
        }
    }

    /// The agent's builder refills buffers it reuses and copies job lines
    /// from its line store: every prompt the model sees must still be
    /// exactly what a fresh `PromptBuilder::render` gives, also when it is
    /// shorter than the one before it and after `reset`.
    #[test]
    fn reused_prompt_buffer_carries_no_residue() {
        let seen = Rc::default();
        let mut agent = LlmSchedulingPolicy::new(Box::new(RecordingModel(Rc::clone(&seen))));
        let waiting = waiting_jobs();
        for _ in 0..40 {
            let view = view_with_waiting(&waiting);
            let expected = PromptBuilder::render(&view, agent.scratchpad());
            agent.decide(&view);
            assert_eq!(seen.borrow().last(), Some(&expected));
        }
        let long = seen.borrow().last().map_or(0, String::len);
        agent.reset();
        // Shorter in both the history and the waiting section.
        let view = view_with_waiting(&[]);
        agent.decide(&view);
        let fresh = PromptBuilder::render(&view, &Scratchpad::default());
        assert_eq!(seen.borrow().last(), Some(&fresh));
        assert!(fresh.contains("(nothing yet)") && fresh.len() < long);
    }

    /// The history is lent by the scratchpad, so the agent's builder holds
    /// only the head and tail it writes and the line store: after a 500-job
    /// run whose history alone is over 100 KB, under 32 KB in all (the whole
    /// ≈ 324 KB prompt, when the history was copied in), and the store no
    /// larger than twice the last prompt's job lines and 32.
    #[test]
    fn the_prompt_buffer_holds_no_history() {
        let w = gen("heterogeneous_mix", 500, ArrivalMode::Dynamic, 7);
        let mut policy = LlmSchedulingPolicy::claude37(7);
        run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes");
        assert!(policy.scratchpad().render().len() > 100_000);
        let (entries, job_lines, bytes) = policy.prompt.footprint();
        assert!(
            entries <= 2 * job_lines + 32,
            "{entries} store entries, {job_lines} job lines"
        );
        assert!(bytes < 32 * 1024, "prompt builder holds {bytes} bytes");
    }

    #[test]
    fn scratchpad_accumulates_across_queries() {
        let mut agent = scripted(["Thought: one\nAction: Delay", "Thought: two\nAction: Delay"]);
        agent.decide(&view_with_waiting(&waiting_jobs()));
        agent.decide(&view_with_waiting(&waiting_jobs()));
        assert_eq!(agent.scratchpad().len(), 4);
        assert!(agent.scratchpad().render().contains("Thought: one"));
        assert!(agent.scratchpad().render().contains("Thought: two"));
        assert_eq!(agent.render_trace().matches("# Thought").count(), 2);
    }

    fn gen(scenario: &str, n: usize, mode: ArrivalMode, seed: u64) -> Workload {
        scenario_builtins()
            .generate(
                scenario,
                &ScenarioContext::new(n).with_mode(mode).with_seed(seed),
            )
            .expect("builtin scenario")
    }

    #[test]
    fn claude_schedules_a_small_static_workload_end_to_end() {
        let w = gen("homogeneous_short", 8, ArrivalMode::Static, 3);
        let mut policy = LlmSchedulingPolicy::claude37(3);
        let out = run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(out.records.len(), 8);
        assert_eq!(out.stats.placements, 8);
        assert!(policy.calls().len() >= 8);
        assert_eq!(policy.malformed_completions(), 0);
    }

    #[test]
    fn o4mini_schedules_dynamic_heterogeneous_workload() {
        let w = gen("heterogeneous_mix", 12, ArrivalMode::Dynamic, 5);
        let mut policy = LlmSchedulingPolicy::o4mini(5);
        let out = run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(out.records.len(), 12);
        // Every record respects capacity (simulator invariants already
        // assert this; double-check end-state here).
        for r in &out.records {
            assert!(r.spec.nodes <= 256);
        }
    }

    #[test]
    fn adversarial_scenario_exercises_backfilling() {
        let w = gen("adversarial", 15, ArrivalMode::Dynamic, 7);
        let mut policy = LlmSchedulingPolicy::claude37(7);
        let out = run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(out.records.len(), 15);
        // The blocker holds 128 of 256 nodes; the 1-node flood jobs fit
        // alongside, so the agent should start them without waiting for the
        // blocker to finish (no convoy).
        let blocker = out
            .records
            .iter()
            .find(|r| r.spec.nodes == 128)
            .expect("blocker exists");
        let small_waits: Vec<f64> = out
            .records
            .iter()
            .filter(|r| r.spec.nodes == 1)
            .map(|r| r.wait().as_secs_f64())
            .collect();
        let avg_small_wait = small_waits.iter().sum::<f64>() / small_waits.len() as f64;
        assert!(
            avg_small_wait < blocker.spec.duration.as_secs_f64() / 10.0,
            "small jobs should not convoy behind the blocker: avg wait {avg_small_wait}"
        );
    }

    #[test]
    fn reset_allows_reuse_across_runs() {
        let w = gen("resource_sparse", 5, ArrivalMode::Static, 1);
        let mut policy = LlmSchedulingPolicy::claude37(1);
        let a = run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("first run");
        policy.reset();
        assert!(policy.calls().is_empty() && policy.scratchpad().is_empty());
        let b = run_simulation(
            ClusterConfig::paper_default(),
            &w.jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("second run");
        assert_eq!(a.records.len(), b.records.len());
    }
}
