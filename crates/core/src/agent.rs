//! The ReAct agent loop body (paper §2.3, Algorithm 1).
//!
//! Per decision epoch the agent: (1) constructs the prompt from the system
//! snapshot and the scratchpad, (2) queries the LLM, (3) parses the
//! `Thought`/`Action` completion, (4) appends thought and action to the
//! scratchpad, and (5) when the simulator rejects the action, appends the
//! natural-language feedback so the next query can correct course — no
//! retraining, only prompt context.

use rsched_llm::backend::LanguageModel;
use rsched_sim::{Action, ActionOutcome, SystemView};

use crate::action::parse_completion;
use crate::constraints::render_feedback;
use crate::overhead::OverheadTracker;
use crate::prompt::PromptBuilder;
use crate::scratchpad::{Scratchpad, DEFAULT_TOKEN_BUDGET};
use crate::trace::DecisionTrace;

/// Agent knobs.
#[derive(Debug, Clone, Copy)]
pub struct AgentOptions {
    /// Scratchpad rendering budget in tokens; [`DEFAULT_TOKEN_BUDGET`]
    /// unless set.
    pub scratchpad_token_budget: u32,
    /// Whether to keep full decision traces (Figure 2 material).
    pub record_trace: bool,
}

impl Default for AgentOptions {
    fn default() -> Self {
        AgentOptions {
            scratchpad_token_budget: DEFAULT_TOKEN_BUDGET,
            record_trace: true,
        }
    }
}

/// The ReAct scheduling agent.
pub struct ReActAgent {
    name: String,
    llm: Box<dyn LanguageModel>,
    scratchpad: Scratchpad,
    /// The prompt of the current step; one buffer, refilled every step.
    prompt: String,
    overhead: OverheadTracker,
    /// Whether the last step recorded a call that still awaits its
    /// verdict: a failed call records none, and the verdict on its forced
    /// `Delay` must not land on an earlier call's record.
    verdict_pending: bool,
    trace: DecisionTrace,
    options: AgentOptions,
    /// Completions that failed to parse or errored (diagnostic).
    pub malformed_completions: u32,
}

impl ReActAgent {
    /// Wrap a language model.
    pub fn new(llm: Box<dyn LanguageModel>, options: AgentOptions) -> Self {
        ReActAgent {
            name: llm.model_name().to_string(),
            scratchpad: Scratchpad::new(options.scratchpad_token_budget),
            prompt: String::new(),
            overhead: OverheadTracker::new(),
            verdict_pending: false,
            trace: DecisionTrace::new(),
            options,
            llm,
            malformed_completions: 0,
        }
    }

    /// The underlying model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One Reason + Act step: returns the action to propose to the
    /// simulator. LLM failures and unparseable completions degrade to
    /// `Delay`, with the problem recorded as scratchpad feedback.
    pub fn step(&mut self, view: &SystemView<'_>) -> Action {
        let now = view.now.as_secs();
        PromptBuilder::render_into(&mut self.prompt, view, &self.scratchpad);
        let completion = match self.llm.complete(&self.prompt) {
            Ok(c) => c,
            Err(e) => {
                self.verdict_pending = false;
                self.malformed_completions += 1;
                self.scratchpad
                    .push_feedback(now, &format!("LLM call failed ({e}); defaulting to Delay."));
                return Action::Delay;
            }
        };
        self.overhead.record_call(
            completion.latency_secs,
            completion.prompt_tokens,
            completion.completion_tokens,
            view.waiting.len(),
        );
        self.verdict_pending = true;
        match parse_completion(&completion.text) {
            Ok(parsed) => {
                let action_text = parsed.action.to_string();
                self.scratchpad.push_thought(now, &parsed.thought);
                self.scratchpad.push_action(now, &action_text);
                if self.options.record_trace {
                    self.trace
                        .push(now, &parsed.thought, &action_text, completion.latency_secs);
                }
                self.overhead.set_last_action(parsed.action);
                parsed.action
            }
            Err(e) => {
                self.malformed_completions += 1;
                self.scratchpad.push_feedback(
                    now,
                    &format!("Output could not be parsed ({e}); defaulting to Delay."),
                );
                if self.options.record_trace {
                    self.trace.push(
                        now,
                        &completion.text,
                        "Delay (forced)",
                        completion.latency_secs,
                    );
                }
                self.overhead.set_last_action(Action::Delay);
                Action::Delay
            }
        }
    }

    /// Absorb the simulator's verdict on the last proposed action.
    pub fn absorb(&mut self, outcome: &ActionOutcome) {
        if std::mem::take(&mut self.verdict_pending) {
            self.overhead.set_last_verdict(outcome.accepted());
        }
        if let Some(reason) = &outcome.rejected {
            let feedback = render_feedback(&outcome.action, reason);
            self.scratchpad
                .push_feedback(outcome.time.as_secs(), &feedback);
            if self.options.record_trace {
                self.trace.attach_feedback(&feedback);
            }
        }
    }

    /// The overhead ledger.
    pub fn overhead(&self) -> &OverheadTracker {
        &self.overhead
    }

    /// The decision trace.
    pub fn trace(&self) -> &DecisionTrace {
        &self.trace
    }

    /// The scratchpad (for inspection).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratchpad
    }

    /// Reset all per-run state (scratchpad, overhead, trace).
    pub fn reset(&mut self) {
        self.scratchpad.clear();
        self.overhead.clear();
        self.verdict_pending = false;
        self.trace.clear();
        self.malformed_completions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec};
    use rsched_llm::backend::{Completion, LlmError};
    use rsched_llm::script::ScriptedBackend;
    use rsched_sim::RejectReason;
    use rsched_simkit::{SimDuration, SimTime};
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
            waiting,
            running: &[],
            completed: &[],
            completed_stats: rsched_cluster::CompletedStats::default(),
            pending_arrivals: 0,
            total_jobs: 1,
            calendar: None,
            telemetry: None,
            queue: None,
        }
    }

    #[test]
    fn step_parses_and_records() {
        let backend =
            ScriptedBackend::new(["Thought: job 9 is extremely short\nAction: StartJob(job_id=9)"])
                .with_latency(3.5);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let action = agent.step(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::StartJob(JobId(9)));
        assert_eq!(agent.overhead().call_count(), 1);
        assert_eq!(agent.trace().len(), 1);
        assert_eq!(agent.scratchpad().len(), 2, "thought + action recorded");
        let pad = agent.scratchpad().render();
        assert!(pad.contains("[t=0] Thought: job 9 is extremely short"));
        assert!(pad.contains("[t=0] Action: StartJob(job_id=9)"));
    }

    #[test]
    fn rejection_feedback_lands_in_scratchpad_and_trace() {
        let backend =
            ScriptedBackend::new(["Thought: try the big one\nAction: StartJob(job_id=9)"]);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let action = agent.step(&view_with_waiting(&waiting_jobs()));
        agent.absorb(&ActionOutcome {
            time: SimTime::ZERO,
            action,
            rejected: Some(RejectReason::InsufficientResources {
                job: JobId(9),
                needed_nodes: 256,
                needed_memory_gb: 2,
                free_nodes: 100,
                free_memory_gb: 2048,
            }),
        });
        let pad = agent.scratchpad().render();
        assert!(pad.contains("Feedback: Action: StartJob failed"), "{pad}");
        let trace = agent.trace().render();
        assert!(trace.contains("# Feedback from Environment"), "{trace}");
        assert_eq!(agent.overhead().placement_latencies().len(), 0);
    }

    #[test]
    fn accepted_placement_counts_in_overhead() {
        let backend =
            ScriptedBackend::new(["Thought: go\nAction: StartJob(job_id=9)"]).with_latency(7.0);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let action = agent.step(&view_with_waiting(&waiting_jobs()));
        agent.absorb(&ActionOutcome {
            time: SimTime::ZERO,
            action,
            rejected: None,
        });
        assert_eq!(agent.overhead().placement_latencies(), vec![7.0]);
    }

    #[test]
    fn unparseable_completion_degrades_to_delay() {
        let backend = ScriptedBackend::new(["I refuse to answer in the format"]);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let action = agent.step(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::Delay);
        assert_eq!(agent.malformed_completions, 1);
        assert!(agent
            .scratchpad()
            .render()
            .contains("Output could not be parsed"));
    }

    #[test]
    fn llm_error_degrades_to_delay() {
        let backend = ScriptedBackend::new(Vec::<String>::new()); // exhausted
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let action = agent.step(&view_with_waiting(&waiting_jobs()));
        assert_eq!(action, Action::Delay);
        assert!(agent.scratchpad().render().contains("LLM call failed"));
    }

    /// The Fig. 5/6 latency panel keeps accepted placements only. A call
    /// that fails records nothing, so the verdict on its forced `Delay`
    /// has no record of its own to land on — and must not land on the
    /// previous call's.
    #[test]
    fn failed_call_leaves_earlier_verdicts_alone() {
        let backend = ScriptedBackend::new(["Thought: go\nAction: StartJob(job_id=9)"]);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        let waiting = waiting_jobs();
        let action = agent.step(&view_with_waiting(&waiting));
        agent.absorb(&ActionOutcome {
            time: SimTime::ZERO,
            action,
            rejected: Some(RejectReason::InsufficientResources {
                job: JobId(9),
                needed_nodes: 256,
                needed_memory_gb: 2,
                free_nodes: 100,
                free_memory_gb: 2048,
            }),
        });
        // The script is exhausted: this call errs and degrades to `Delay`,
        // which the simulator accepts.
        let action = agent.step(&view_with_waiting(&waiting));
        assert_eq!(action, Action::Delay);
        agent.absorb(&ActionOutcome {
            time: SimTime::ZERO,
            action,
            rejected: None,
        });
        assert_eq!(agent.overhead().call_count(), 1);
        assert_eq!(agent.overhead().calls()[0].accepted, Some(false));
        assert!(agent.overhead().placement_latencies().is_empty());
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

    /// The agent refills one prompt buffer: every prompt the model sees
    /// must still be exactly what a fresh `PromptBuilder::render` gives,
    /// also when it is shorter than the one before it.
    #[test]
    fn reused_prompt_buffer_carries_no_residue() {
        let seen = Rc::default();
        let mut agent = ReActAgent::new(
            Box::new(RecordingModel(Rc::clone(&seen))),
            AgentOptions::default(),
        );
        let waiting = waiting_jobs();
        for _ in 0..40 {
            let view = view_with_waiting(&waiting);
            let expected = PromptBuilder::render(&view, agent.scratchpad());
            agent.step(&view);
            assert_eq!(seen.borrow().last(), Some(&expected));
        }
        let long = seen.borrow().last().map_or(0, String::len);
        agent.reset();
        // Shorter in both the history and the waiting section.
        let view = view_with_waiting(&[]);
        agent.step(&view);
        let fresh = PromptBuilder::render(&view, &Scratchpad::default());
        assert_eq!(seen.borrow().last(), Some(&fresh));
        assert!(fresh.contains("(nothing yet)") && fresh.len() < long);
    }

    #[test]
    fn scratchpad_accumulates_across_steps() {
        let backend =
            ScriptedBackend::new(["Thought: one\nAction: Delay", "Thought: two\nAction: Delay"]);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        agent.step(&view_with_waiting(&waiting_jobs()));
        agent.step(&view_with_waiting(&waiting_jobs()));
        // The second prompt must contain the first step's history.
        // (ScriptedBackend records prompts; we can't reach it through the
        // box, so check the scratchpad instead.)
        assert_eq!(agent.scratchpad().len(), 4);
        assert!(agent.scratchpad().render().contains("Thought: one"));
        assert!(agent.scratchpad().render().contains("Thought: two"));
    }

    #[test]
    fn reset_clears_everything() {
        let backend = ScriptedBackend::new(["Thought: x\nAction: Delay"]);
        let mut agent = ReActAgent::new(Box::new(backend), AgentOptions::default());
        agent.step(&view_with_waiting(&waiting_jobs()));
        agent.reset();
        assert!(agent.scratchpad().is_empty());
        assert_eq!(agent.overhead().call_count(), 0);
        assert!(agent.trace().is_empty());
    }
}
