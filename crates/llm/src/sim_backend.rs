//! The simulated language model: persona + reasoner + thought generator
//! behind the [`LanguageModel`] interface.

use rsched_simkit::rng::Xoshiro256PlusPlus;

use crate::backend::{Completion, LanguageModel, LlmError, Prompt};
use crate::persona::Persona;
use crate::prompt_parse::{read, Ledger};
use crate::reasoner::deliberate;
use crate::thought::{render_completion, render_thought};
use crate::tokens::estimate_tokens;

/// A simulated reasoning model. It sees only the prompt, parses it,
/// deliberates with the persona's objective weights, and answers in the
/// paper's `Thought:`/`Action:` format with a sampled latency.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    persona: Persona,
    rng: Xoshiro256PlusPlus,
    /// The history lines read so far; the next prompt carries them again.
    ledger: Ledger,
}

impl SimulatedLlm {
    /// Wrap a persona with the given sampling seed.
    pub fn new(persona: Persona, seed: u64) -> Self {
        SimulatedLlm {
            persona,
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
            ledger: Ledger::default(),
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

    /// Prompt bytes received so far, and how many of them were read line by
    /// line rather than taken from the history already read.
    pub fn prompt_bytes(&self) -> (u64, u64) {
        self.ledger.bytes()
    }
}

impl LanguageModel for SimulatedLlm {
    fn model_name(&self) -> &str {
        &self.persona.name
    }

    /// Text names no history stream: it is read in full.
    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        self.complete_prompt(&Prompt::from_text(prompt))
    }

    fn complete_prompt(&mut self, prompt: &Prompt<'_>) -> Result<Completion, LlmError> {
        let read = read(prompt, &mut self.ledger);
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

    fn minimal_prompt(waiting: &str) -> String {
        format!(
            "\
System capacity: 256 nodes, 2048 GB memory
Current time: 0
Available Nodes: 256
Available Memory: 2048 GB

Running Jobs:
None

Completed Jobs: 0 of 2 total jobs; 0 not yet submitted

Waiting Jobs (eligible to schedule):
{waiting}

# Scratchpad (Decision History)
(nothing yet)

Your scheduling objectives are:
...
"
        )
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
