//! The external-command model bridge under prompts larger than a pipe
//! holds: `ProcessBackend` writes the prompt while it reads the answer, so
//! a command that answers as it reads does not leave both sides waiting.

use std::sync::mpsc;
use std::time::Duration;

use reasoned_scheduler::llm::process::ProcessBackend;
use reasoned_scheduler::llm::LanguageModel;

/// `cat` echoes a 1 MB prompt — sixteen times a 64 KB pipe — back as its
/// completion. Run on a thread of its own under a watchdog, so that a
/// backend that writes the whole prompt before reading fails here instead
/// of hanging the suite.
#[test]
fn a_command_that_answers_as_it_reads_gets_the_whole_prompt() {
    let prompt: String = (0..1 << 20)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    let (done, finished) = mpsc::channel();
    let sent = prompt.clone();
    std::thread::spawn(move || {
        let mut backend = ProcessBackend::new("cat-model", "sh", ["-c", "cat"].map(String::from));
        let _ = done.send(backend.complete(&sent));
    });
    let completion = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the backend answered within a minute instead of deadlocking")
        .expect("cat exits 0");
    assert_eq!(completion.text.len(), prompt.len());
    assert!(
        completion.text == prompt,
        "the echo differs from the prompt"
    );
}
