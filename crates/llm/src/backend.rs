//! The language-model interface: a prompt in, a completion out.
//!
//! A [`Prompt`] is the prompt's bytes in the parts it was assembled from,
//! its history lines lent in place under a [`HistoryKey`]; a backend that
//! wants text gets exactly that text ([`LanguageModel::complete_prompt`]).

use std::fmt;

/// One model completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The raw completion text (expected to contain `Thought:` and
    /// `Action:` lines, but the agent's parser is the judge of that).
    pub text: String,
    /// Tokens consumed by the prompt (estimated for simulated backends).
    pub prompt_tokens: u32,
    /// Tokens produced in the completion.
    pub completion_tokens: u32,
    /// Wall-clock inference latency in seconds. For simulated backends this
    /// is *sampled* from the persona's calibrated latency model rather than
    /// measured — it feeds the overhead analysis (paper §3.7), not the
    /// simulation clock.
    pub latency_secs: f64,
}

/// An error from a language-model backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmError {
    /// Human-readable description.
    pub message: String,
}

impl LlmError {
    /// Construct from anything string-like.
    pub fn new(message: impl Into<String>) -> Self {
        LlmError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LLM backend error: {}", self.message)
    }
}

impl std::error::Error for LlmError {}

/// Where a prompt's history lines start in their stream: the bytes of every
/// line pushed to one history since it was made, cloned or cleared. Lines
/// leave only at the front, so equal keys name equal bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryKey {
    /// The stream's id, unique in the process.
    pub stream: u64,
    /// Byte offset in the stream at which [`Prompt::lines`] starts.
    pub offset: u64,
}

impl HistoryKey {
    /// A stream id that no earlier call in this process has returned.
    pub fn new_stream() -> u64 {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// One prompt in the parts it was assembled from; it displays as its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prompt<'a> {
    /// Everything through the `# Scratchpad (Decision History)` line.
    pub head: &'a str,
    /// `(nothing yet)` or `(earlier history truncated)` and a newline, or "".
    pub marker: &'a str,
    /// The kept history: whole `[t=…]` lines, each newline-terminated.
    pub lines: &'a str,
    /// The objectives and the output format.
    pub tail: &'a str,
    /// Where `lines` starts in its stream; `None` for text, which names none.
    pub key: Option<HistoryKey>,
}

impl<'a> Prompt<'a> {
    /// Split text into parts, with no key: the head through the first
    /// scratchpad header line (or all of it), a parenthesised marker line,
    /// then terminated `[t=…]` lines. Every cut falls after a newline.
    pub fn from_text(text: &'a str) -> Self {
        const HEADER: &str = "# Scratchpad (Decision History)\n";
        // Past the terminated line that starts at `at`, if `keep` takes it.
        let past = |at: usize, keep: fn(&str) -> bool| {
            let line = text[at..].split_inclusive('\n').next()?;
            (line.ends_with('\n') && keep(line)).then_some(at + line.len())
        };
        let head = text.find(HEADER).map_or(text.len(), |at| at + HEADER.len());
        let lines = past(head, |line| line.starts_with('(')).unwrap_or(head);
        let mut tail = lines;
        while let Some(end) = past(tail, |line| line.starts_with("[t=")) {
            tail = end;
        }
        Prompt {
            head: &text[..head],
            marker: &text[head..lines],
            lines: &text[lines..tail],
            tail: &text[tail..],
            key: None,
        }
    }
}

impl fmt::Display for Prompt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}{}", self.head, self.marker, self.lines, self.tail)
    }
}

/// A language model: a prompt in, a completion out.
///
/// Implementations in this workspace: [`crate::SimulatedLlm`] (the
/// calibrated personas), [`crate::script::ScriptedBackend`] (canned
/// responses for tests), and [`crate::process::ProcessBackend`] (an
/// external command, e.g. a wrapper around a real API client).
pub trait LanguageModel {
    /// Stable model identifier (e.g. `"Claude-3.7"`, `"O4-Mini"`).
    fn model_name(&self) -> &str;

    /// Complete one prompt.
    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError>;

    /// Complete one prompt handed over in parts. The default completes its
    /// text; a model that remembers history it has read overrides it.
    fn complete_prompt(&mut self, prompt: &Prompt<'_>) -> Result<Completion, LlmError> {
        self.complete(&prompt.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LlmError::new("boom");
        assert_eq!(e.to_string(), "LLM backend error: boom");
    }

    #[test]
    fn completion_is_plain_data() {
        let c = Completion {
            text: "Thought: x\nAction: Delay".into(),
            prompt_tokens: 100,
            completion_tokens: 8,
            latency_secs: 4.2,
        };
        assert!(c.text.contains("Action"));
        assert_eq!(c.clone(), c);
    }
}
