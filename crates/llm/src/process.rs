//! Bridge to an external command — the hook for plugging a *real* model
//! into the agent.
//!
//! The command receives the prompt on stdin and must print the completion
//! (`Thought: …\nAction: …`) to stdout. A thin shell script around any API
//! CLI client therefore drops straight into the agent loop; the rest of the
//! system is unchanged, which is exactly the paper's architecture (the
//! model is behind a text interface).

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::backend::{Completion, LanguageModel, LlmError};
use crate::tokens::estimate_tokens;

/// Runs `program [args…]` per completion; prompt on stdin, completion on
/// stdout. Latency is measured wall time.
#[derive(Debug, Clone)]
pub struct ProcessBackend {
    name: String,
    program: String,
    args: Vec<String>,
}

impl ProcessBackend {
    /// A backend invoking the given program and arguments.
    pub fn new(
        name: impl Into<String>,
        program: impl Into<String>,
        args: impl IntoIterator<Item = String>,
    ) -> Self {
        ProcessBackend {
            name: name.into(),
            program: program.into(),
            args: args.into_iter().collect(),
        }
    }
}

impl LanguageModel for ProcessBackend {
    fn model_name(&self) -> &str {
        &self.name
    }

    fn complete(&mut self, prompt: &str) -> Result<Completion, LlmError> {
        let started = Instant::now();
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| LlmError::new(format!("spawn `{}`: {e}", self.program)))?;
        let stdin = child.stdin.take();
        let mut stdin = stdin.ok_or_else(|| LlmError::new("child stdin unavailable"))?;
        // A child that exits without reading its prompt breaks the pipe. Its
        // own verdict says more than the write's, so reap it either way: a
        // non-zero exit reports status and stderr, and a zero exit's
        // completion stands — the command did not need the prompt.
        let _ = stdin.write_all(prompt.as_bytes());
        drop(stdin);
        let output = child
            .wait_with_output()
            .map_err(|e| LlmError::new(format!("waiting for child: {e}")))?;
        if !output.status.success() {
            return Err(LlmError::new(format!(
                "`{}` exited with {}: {}",
                self.program,
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )));
        }
        let text = String::from_utf8(output.stdout)
            .map_err(|e| LlmError::new(format!("non-UTF-8 completion: {e}")))?;
        Ok(Completion {
            prompt_tokens: estimate_tokens(prompt),
            completion_tokens: estimate_tokens(&text),
            latency_secs: started.elapsed().as_secs_f64(),
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipes_prompt_and_reads_completion() {
        // Consume stdin, then answer in the canonical format.
        let mut backend = ProcessBackend::new(
            "shell-model",
            "sh",
            [
                "-c",
                "cat > /dev/null; printf 'Thought: scripted\\nAction: Delay'",
            ]
            .map(String::from),
        );
        let c = backend.complete("a prompt").expect("completes");
        assert_eq!(c.text, "Thought: scripted\nAction: Delay");
        assert!(c.latency_secs >= 0.0);
        assert_eq!(backend.model_name(), "shell-model");
    }

    #[test]
    fn stdin_reaches_the_command() {
        let mut backend = ProcessBackend::new(
            "echo-model",
            "sh",
            ["-c", "tr 'a-z' 'A-Z'"].map(String::from),
        );
        let c = backend.complete("hello").expect("completes");
        assert_eq!(c.text, "HELLO");
    }

    /// Neither command reads its stdin, and a 1 MB prompt is past any pipe
    /// buffer, so the write fails every time, not only when the child wins
    /// a race: the child's verdict is reported all the same.
    #[test]
    fn nonzero_exit_is_an_error() {
        let prompt = "p".repeat(1 << 20);
        let mut backend = ProcessBackend::new(
            "failing-model",
            "sh",
            ["-c", "echo doom >&2; exit 3"].map(String::from),
        );
        let err = backend.complete(&prompt).unwrap_err();
        assert!(err.message.contains("doom"), "{err}");
        assert!(err.message.contains("exit status: 3"), "{err}");

        let args = ["-c", "printf 'Action: Delay'"].map(String::from);
        let mut deaf = ProcessBackend::new("deaf-model", "sh", args);
        let c = deaf.complete(&prompt).expect("a zero exit stands");
        assert_eq!(c.text, "Action: Delay");
    }

    #[test]
    fn missing_program_is_an_error() {
        let mut backend = ProcessBackend::new("ghost", "definitely-not-a-real-binary-2026", []);
        assert!(backend.complete("p").is_err());
    }
}
