//! The simulated language model: persona + reasoner + thought generator
//! behind the [`LanguageModel`] interface.

use rsched_simkit::rng::Xoshiro256PlusPlus;

use crate::backend::{Completion, LanguageModel, LlmError};
use crate::persona::Persona;
use crate::prompt_parse::PromptReader;
use crate::reasoner::deliberate;
use crate::thought::{render_completion, render_thought};
use crate::tokens::estimate_tokens;

/// A simulated reasoning model. It sees only the prompt text, parses it,
/// deliberates with the persona's objective weights, and answers in the
/// paper's `Thought:`/`Action:` format with a sampled latency.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    persona: Persona,
    rng: Xoshiro256PlusPlus,
    calls: u64,
    /// Remembers the history the last prompt carried; the next carries it again.
    reader: PromptReader,
}

impl SimulatedLlm {
    /// Wrap a persona with the given sampling seed.
    pub fn new(persona: Persona, seed: u64) -> Self {
        SimulatedLlm {
            persona,
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
            calls: 0,
            reader: PromptReader::default(),
        }
    }

    /// The simulated Claude 3.7 Sonnet.
    pub fn claude37(seed: u64) -> Self {
        SimulatedLlm::new(Persona::claude37(), seed)
    }

    /// The simulated O4-Mini (reasoning effort: high).
    pub fn o4mini(seed: u64) -> Self {
        SimulatedLlm::new(Persona::o4mini(), seed)
    }

    /// Completions served so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Prompt bytes received so far, and how many of them were read line by
    /// line rather than recognised as history already read.
    pub fn prompt_bytes(&self) -> (u64, u64) {
        self.reader.bytes()
    }

    /// The persona driving this model.
    pub fn persona(&self) -> &Persona {
        &self.persona
    }
}

impl LanguageModel for SimulatedLlm {
    fn model_name(&self) -> &str {
        &self.persona.name
    }

    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        let read = self.reader.read(prompt);
        let (parsed, prompt_tokens) = read.map_err(|e| LlmError::new(e.to_string()))?;
        let deliberation = deliberate(
            &parsed,
            &self.persona.weights,
            self.persona.temperature,
            &mut self.rng,
        );
        let thought = render_thought(&parsed, &deliberation, self.persona.style);
        let text = render_completion(&thought, deliberation.action);
        let latency = self
            .persona
            .latency
            .sample(parsed.waiting.len(), &mut self.rng);
        self.calls += 1;
        Ok(Completion {
            prompt_tokens,
            completion_tokens: estimate_tokens(&text),
            latency_secs: latency,
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_prompt(waiting_entry: &str) -> String {
        prompt_at(0, waiting_entry, "(nothing yet)\n")
    }

    fn prompt_at(now: u64, waiting: &str, history: &str) -> String {
        format!(
            "\
System capacity: 256 nodes, 2048 GB memory
Current time: {now}
Available Nodes: 256
Available Memory: 2048 GB

Running Jobs:
None

Completed Jobs: 0 of 2 total jobs; 0 not yet submitted

Waiting Jobs (eligible to schedule):
{waiting}

# Scratchpad (Decision History)
{history}
Your scheduling objectives are:
...
"
        )
    }

    /// A 300-call run rendered by hand, the agent's part included: every
    /// completion goes onto the history, every other one is refused, so
    /// that the next prompt carries feedback at `now`, and from call 150 on
    /// the oldest lines go. One model remembers; the other has its memo
    /// emptied before every call. Same seed, same completions — text, token
    /// counts and latency draws.
    #[test]
    fn a_model_that_remembers_answers_as_one_that_forgets() {
        let waiting = "\
- Job 9: user_2, 4 nodes, 8 GB, walltime 200 s, submitted t=0, waiting 0 s
- Job 7: user_3, 2 nodes, 4 GB, walltime 300 s, submitted t=0, waiting 0 s";
        let mut remembering = SimulatedLlm::o4mini(5);
        let mut forgetful = remembering.clone();
        let mut history = String::new();
        let (mut now, mut dropped, mut refused) = (0, 0, String::new());
        for call in 0..300 {
            let marker = ["", "(earlier history truncated)\n"][usize::from(dropped > 0)];
            let prompt = prompt_at(now, waiting, &format!("{marker}{}", &history[dropped..]));
            forgetful.reader = PromptReader::default();
            let completion = remembering.complete(&prompt).expect("completes");
            let forgotten = forgetful.complete(&prompt).expect("completes");
            assert_eq!(completion, forgotten, "call {call}");
            for line in completion.text.lines() {
                history += &format!("[t={now}] {line}\n");
            }
            if call % 2 == 0 {
                let (_, id) = completion.text.split_once("job_id=").expect("proposes");
                refused = id.trim_end_matches(')').to_string();
                history += &format!(
                    "[t={now}] Feedback: Action: StartJob failed (not enough resources) — \
                     Job {refused} cannot be started — requires 4 Nodes; available: 2 Nodes\n"
                );
            } else {
                let again = format!("job_id={refused})");
                assert!(!completion.text.contains(&again), "{}", completion.text);
                now += 10;
            }
            if call >= 150 {
                let oldest = history[dropped..].split_inclusive('\n').take(4);
                dropped += oldest.map(str::len).sum::<usize>();
            }
        }
        let (received, read) = remembering.prompt_bytes();
        assert!(
            history.len() - dropped > 40_000,
            "{}",
            history.len() - dropped
        );
        assert!(read * 4 < received, "read {read} of {received}");
    }

    #[test]
    fn completes_with_thought_and_action() {
        let mut llm = SimulatedLlm::claude37(1);
        let prompt = minimal_prompt(
            "- Job 9: user_2, 256 nodes, 2 GB, walltime 2 s, submitted t=0, waiting 0 s",
        );
        let c = llm.complete(&prompt).expect("completes");
        assert!(c.text.starts_with("Thought: "), "{}", c.text);
        assert!(c.text.contains("\nAction: "), "{}", c.text);
        assert!(c.text.contains("StartJob(job_id=9)"), "{}", c.text);
        assert!(c.latency_secs > 0.0);
        assert!(c.prompt_tokens > 50);
        assert!(c.completion_tokens > 10);
        assert_eq!(llm.calls(), 1);
    }

    #[test]
    fn unparseable_prompt_is_an_error() {
        let mut llm = SimulatedLlm::claude37(1);
        let err = llm.complete("tell me a joke").unwrap_err();
        assert!(err.message.contains("parse"), "{err}");
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(SimulatedLlm::claude37(0).model_name(), "Claude-3.7");
        assert_eq!(SimulatedLlm::o4mini(0).model_name(), "O4-Mini");
    }

    #[test]
    fn same_seed_same_completion() {
        let prompt = minimal_prompt(
            "- Job 9: user_2, 2 nodes, 2 GB, walltime 20 s, submitted t=0, waiting 0 s",
        );
        let a = SimulatedLlm::o4mini(7).complete(&prompt).expect("ok");
        let b = SimulatedLlm::o4mini(7).complete(&prompt).expect("ok");
        assert_eq!(a, b);
        let c = SimulatedLlm::o4mini(8).complete(&prompt).expect("ok");
        assert!(
            (a.latency_secs - c.latency_secs).abs() > 1e-9,
            "different seed should draw different latency"
        );
    }

    #[test]
    fn claude_latency_stays_tight() {
        let prompt = minimal_prompt(
            "- Job 9: user_2, 2 nodes, 2 GB, walltime 20 s, submitted t=0, waiting 0 s",
        );
        let mut llm = SimulatedLlm::claude37(3);
        for _ in 0..200 {
            let c = llm.complete(&prompt).expect("ok");
            assert!(c.latency_secs < 30.0);
        }
    }
}
