//! A canned backend for unit-testing the agent loop.

use std::collections::VecDeque;

use crate::backend::{Completion, LanguageModel, LlmError};
use crate::tokens::estimate_tokens;

/// Replays a fixed list of completions and records every prompt it was
/// given — the deterministic stand-in used by `rsched-core`'s tests.
#[derive(Debug, Clone, Default)]
pub struct ScriptedBackend {
    responses: VecDeque<String>,
    /// Every prompt received, in order.
    pub prompts: Vec<String>,
    latency_secs: f64,
}

impl ScriptedBackend {
    /// A backend that answers with `responses` in order.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(responses: I) -> Self {
        ScriptedBackend {
            responses: responses.into_iter().map(Into::into).collect(),
            prompts: Vec::new(),
            latency_secs: 0.5,
        }
    }

    /// Override the reported per-call latency.
    pub fn with_latency(mut self, secs: f64) -> Self {
        self.latency_secs = secs;
        self
    }
}

impl LanguageModel for ScriptedBackend {
    fn model_name(&self) -> &str {
        "scripted"
    }

    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        self.prompts.push(prompt.to_string());
        let text = self
            .responses
            .pop_front()
            .ok_or_else(|| LlmError::new("scripted backend exhausted"))?;
        Ok(Completion {
            prompt_tokens: estimate_tokens(prompt),
            completion_tokens: estimate_tokens(&text),
            latency_secs: self.latency_secs,
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_in_order_then_errors() {
        let mut b = ScriptedBackend::new(["first", "second"]);
        assert_eq!(b.complete("p1").expect("ok").text, "first");
        assert_eq!(b.complete("p2").expect("ok").text, "second");
        assert!(b.complete("p3").is_err());
        assert_eq!(b.prompts, vec!["p1", "p2", "p3"]);
    }

    #[test]
    fn latency_override() {
        let mut b = ScriptedBackend::new(["x"]).with_latency(9.0);
        assert_eq!(b.complete("p").expect("ok").latency_secs, 9.0);
    }
}
