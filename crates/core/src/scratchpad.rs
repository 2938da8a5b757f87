//! The persistent scratchpad memory (paper §2.2).
//!
//! *"The ReAct agent is prompted with … a running scratchpad that logs all
//! past thoughts, actions, and feedback. This scratchpad-based prompting
//! acts as a form of memory, enabling continuity across steps without
//! retraining or fine-tuning."*
//!
//! Entries are rendered as `[t=<secs>] <Kind>: <text>` lines. A token
//! budget (the paper ran O4-Mini with a 100 k-token context) truncates the
//! *oldest* entries first when the history outgrows the context window.
//!
//! Every query re-sends the whole history, so each line is written once,
//! at push, in the form the prompt carries it: the lines sit end to end in
//! one buffer, the only copy of their text, and a prompt borrows the kept
//! ones in place under their [`HistoryKey`] — the pad's stream, new when it
//! is cloned or cleared, and their byte offset in it. Lines the budget has
//! dropped can never render again; the buffer lets go of them once they
//! outweigh the kept ones, so what a long-lived agent holds is bounded by
//! its budget and not by its age.

use std::fmt::Write as _;

use rsched_llm::backend::{HistoryKey, Prompt};
use rsched_llm::tokens::estimate_tokens;

/// The default rendering budget: the paper ran O4-Mini with a 100 k
/// context; this leaves headroom for the state sections of the prompt.
pub(crate) const DEFAULT_TOKEN_BUDGET: u32 = 80_000;

/// What a line costs against the budget beyond its text: the
/// `[t=…] Kind: ` frame.
const FRAME_TOKENS: u32 = 6;

/// One rendered line of the history buffer.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Stream offset of the line's `[`.
    start: u64,
    /// Its cost against the token budget.
    tokens: u32,
}

/// The decision-history memory.
#[derive(Debug)]
pub struct Scratchpad {
    /// This history's stream id.
    stream: u64,
    /// Bytes of the stream released from the front of `text`.
    released_bytes: u64,
    /// The entries not yet released, each as its rendered,
    /// newline-terminated line, oldest first.
    text: String,
    lines: Vec<Line>,
    /// Entries released: pushed, dropped by the budget, their lines gone.
    released: usize,
    /// Index of the oldest line the budget still admits: the kept lines are
    /// the longest suffix whose tokens sum to at most the budget, and since
    /// pushes only append, this cursor only moves forward.
    first_kept: usize,
    /// Token sum of `lines[first_kept..]`.
    kept_tokens: u64,
    token_budget: u32,
}

impl Default for Scratchpad {
    fn default() -> Self {
        Scratchpad::new(DEFAULT_TOKEN_BUDGET)
    }
}

/// A clone goes on as a history of its own: a new stream.
impl Clone for Scratchpad {
    fn clone(&self) -> Self {
        Scratchpad {
            stream: HistoryKey::new_stream(),
            text: self.text.clone(),
            lines: self.lines.clone(),
            ..*self
        }
    }
}

impl Scratchpad {
    /// An empty scratchpad with the given rendering token budget.
    pub fn new(token_budget: u32) -> Self {
        Scratchpad {
            stream: HistoryKey::new_stream(),
            released_bytes: 0,
            text: String::new(),
            lines: Vec::new(),
            released: 0,
            first_kept: 0,
            kept_tokens: 0,
            token_budget,
        }
    }

    /// Append a thought.
    pub fn push_thought(&mut self, time_secs: u64, text: &str) {
        self.push(time_secs, "Thought", text);
    }

    /// Append an action.
    pub fn push_action(&mut self, time_secs: u64, text: &str) {
        self.push(time_secs, "Action", text);
    }

    /// Append environment feedback.
    pub fn push_feedback(&mut self, time_secs: u64, text: &str) {
        self.push(time_secs, "Feedback", text);
    }

    /// Write the entry's line — `text` flattened to single-spaced words —
    /// and move the budget cursor past whatever it pushed out.
    fn push(&mut self, time_secs: u64, kind: &str, text: &str) {
        let start = self.released_bytes + self.text.len() as u64;
        let _ = write!(self.text, "[t={time_secs}] {kind}: ");
        let body = self.text.len();
        for word in text.split_whitespace() {
            if self.text.len() > body {
                self.text.push(' ');
            }
            self.text.push_str(word);
        }
        let tokens = estimate_tokens(&self.text[body..]) + FRAME_TOKENS;
        self.text.push('\n');
        self.lines.push(Line { start, tokens });
        self.kept_tokens += u64::from(tokens);
        while self.kept_tokens > u64::from(self.token_budget) {
            self.kept_tokens -= u64::from(self.lines[self.first_kept].tokens);
            self.first_kept += 1;
        }
        // Release the dropped prefix when it outweighs the kept suffix: a
        // byte is moved at most once for every byte pushed after it.
        let kept_from = self.kept_from();
        if kept_from > self.text.len() - kept_from {
            self.text.drain(..kept_from);
            self.released_bytes += kept_from as u64;
            self.lines.drain(..self.first_kept);
            self.released += self.first_kept;
            self.first_kept = 0;
        }
    }

    /// Buffer offset of the oldest line the budget still admits.
    fn kept_from(&self) -> usize {
        let start = self.lines.get(self.first_kept).map(|line| line.start);
        start.map_or(self.text.len(), |start| {
            (start - self.released_bytes) as usize
        })
    }

    /// Number of entries pushed, whether or not the budget still admits them.
    pub fn len(&self) -> usize {
        self.released + self.lines.len()
    }

    /// `true` if no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries and start a new stream (the buffers keep their
    /// capacity for the next run).
    pub fn clear(&mut self) {
        self.stream = HistoryKey::new_stream();
        self.released_bytes = 0;
        self.text.clear();
        self.lines.clear();
        self.released = 0;
        self.first_kept = 0;
        self.kept_tokens = 0;
    }

    /// `head` and `tail` around the history: the newest entries the token
    /// budget admits, oldest first, as newline-terminated lines borrowed in
    /// place, under a truncation marker when history was dropped;
    /// `(nothing yet)` when empty.
    pub fn prompt<'a>(&'a self, head: &'a str, tail: &'a str) -> Prompt<'a> {
        let (kept_from, dropped) = (self.kept_from(), self.released + self.first_kept);
        let offset = self.released_bytes + kept_from as u64;
        Prompt {
            head,
            marker: match (self.is_empty(), dropped > 0) {
                (true, _) => "(nothing yet)\n",
                (_, true) => "(earlier history truncated)\n",
                _ => "",
            },
            lines: &self.text[kept_from..],
            tail,
            key: Some(HistoryKey {
                stream: self.stream,
                offset,
            }),
        }
    }

    /// The history as a prompt carries it, without the final newline.
    pub fn render(&self) -> String {
        let mut out = self.prompt("", "").to_string();
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scratchpad as it was before its lines were written at push:
    /// entries kept apart from their rendering, and a render that walks
    /// them newest-first under the budget on every call. The buffer-backed
    /// [`Scratchpad`] must produce the same text, push for push.
    struct ReferencePad {
        entries: Vec<(u64, &'static str, String)>,
        token_budget: u32,
    }

    impl ReferencePad {
        fn push(&mut self, time_secs: u64, kind: &'static str, text: &str) {
            let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
            self.entries.push((time_secs, kind, flat));
        }

        fn render(&self) -> String {
            if self.entries.is_empty() {
                return "(nothing yet)".to_string();
            }
            let mut kept = Vec::new();
            let mut tokens = 0u32;
            for entry in self.entries.iter().rev() {
                let line_tokens = estimate_tokens(&entry.2) + 6;
                if tokens + line_tokens > self.token_budget {
                    break;
                }
                tokens += line_tokens;
                kept.push(entry);
            }
            let mut out = String::new();
            if kept.len() < self.entries.len() {
                out.push_str("(earlier history truncated)\n");
            }
            for (time_secs, kind, text) in kept.iter().rev() {
                out.push_str(&format!("[t={time_secs}] {kind}: {text}\n"));
            }
            out.pop();
            out
        }
    }

    /// Interleaved kinds; empty, one-char, multi-line and non-ASCII texts;
    /// and one line long enough to exceed the small budgets by itself.
    const PUSHES: &[(&str, &str)] = &[
        ("Thought", "job 9 is extremely short, start it"),
        ("Action", "StartJob(job_id=9)"),
        (
            "Feedback",
            "Action: StartJob failed (not enough resources) — Job 9 cannot be started.",
        ),
        ("Thought", "x"),
        ("Action", "Delay"),
        ("Thought", ""),
        (
            "Feedback",
            "  line one\nline two\t tab\u{a0}nbsp\u{2003}em  ",
        ),
        (
            "Thought",
            "é — ünïcödé wörds 😀 and\u{3000}an ideographic space",
        ),
        ("Action", "BackfillJob(job_id=4294967295)"),
        (
            "Thought",
            "a long deliberation that weighs fairness against makespan against utilization \
             against throughput for every one of the waiting jobs in turn and so costs far \
             more than sixty tokens all by itself, which leaves the small budgets nothing \
             but the truncation marker to show for it, as the greedy renderer always did \
             when the newest line alone would not fit under the budget it was handed",
        ),
        ("Action", "Stop"),
        ("Feedback", "y"),
    ];

    /// Push `PUSHES` into both pads, comparing the renderings after every
    /// push.
    fn push_all_and_compare(pad: &mut Scratchpad, reference: &mut ReferencePad, t0: u64) {
        for (i, &(kind, text)) in PUSHES.iter().enumerate() {
            let t = t0 + 37 * i as u64;
            match kind {
                "Thought" => pad.push_thought(t, text),
                "Action" => pad.push_action(t, text),
                _ => pad.push_feedback(t, text),
            }
            reference.push(t, kind, text);
            assert_eq!(
                pad.render(),
                reference.render(),
                "budget {} after push {i}",
                reference.token_budget
            );
            assert_eq!(pad.len(), reference.entries.len());
        }
    }

    #[test]
    fn renders_what_the_greedy_reference_renders_after_every_push() {
        for token_budget in [0, 5, 7, 12, 60, 10_000] {
            let mut pad = Scratchpad::new(token_budget);
            let mut reference = ReferencePad {
                entries: Vec::new(),
                token_budget,
            };
            assert_eq!(pad.render(), reference.render());
            push_all_and_compare(&mut pad, &mut reference, 0);
            // A cleared pad is a new pad: no line, cursor or token sum of
            // the first run survives into the second.
            pad.clear();
            reference.entries.clear();
            assert_eq!(pad.render(), "(nothing yet)");
            push_all_and_compare(&mut pad, &mut reference, 5000);
        }
    }

    /// A daemon's agent pushes for as long as it lives; what it holds must
    /// follow the budget, not the number of decisions made.
    #[test]
    fn buffers_stay_within_a_small_multiple_of_what_the_budget_keeps() {
        let token_budget = 400;
        let mut pad = Scratchpad::new(token_budget);
        let mut reference = ReferencePad {
            entries: Vec::new(),
            token_budget,
        };
        for i in 0..20_000u64 {
            let (kind, text) = PUSHES[i as usize % PUSHES.len()];
            match kind {
                "Thought" => pad.push_thought(i, text),
                "Action" => pad.push_action(i, text),
                _ => pad.push_feedback(i, text),
            }
            reference.push(i, kind, text);
            assert_eq!(pad.render(), reference.render(), "after push {i}");
            assert_eq!(pad.len(), reference.entries.len());
        }
        // The budget keeps a few KB; 20 000 lines are over a megabyte.
        let kept = pad.render().len();
        assert!(kept > 1000 && kept < 6400, "kept {kept}");
        assert!(pad.text.capacity() <= 8 * kept, "{}", pad.text.capacity());
        assert!(pad.lines.capacity() < 200, "{}", pad.lines.capacity());
    }

    #[test]
    fn newest_line_alone_over_budget_renders_only_the_marker() {
        let mut pad = Scratchpad::new(7);
        pad.push_thought(0, "x");
        assert_eq!(pad.render(), "[t=0] Thought: x");
        pad.push_action(1, "Delay");
        assert_eq!(pad.render(), "(earlier history truncated)");
        pad.push_feedback(2, "y");
        assert_eq!(
            pad.render(),
            "(earlier history truncated)\n[t=2] Feedback: y"
        );
    }

    #[test]
    fn a_prompt_lends_newline_terminated_lines() {
        let mut pad = Scratchpad::default();
        let prompt = |pad: &Scratchpad| pad.prompt("# header\n", "tail").to_string();
        assert_eq!(prompt(&pad), "# header\n(nothing yet)\ntail");
        pad.push_action(3, "Delay");
        assert_eq!(prompt(&pad), "# header\n[t=3] Action: Delay\ntail");
    }

    /// A stream's offsets count every byte pushed to it; a clone or a
    /// cleared pad is a new stream.
    #[test]
    fn kept_lines_are_keyed_by_stream_and_offset() {
        let mut pad = Scratchpad::new(12);
        let key = |pad: &Scratchpad| pad.prompt("", "").key.expect("a pad keys its lines");
        let first = key(&pad);
        assert_eq!(first.offset, 0);
        let mut pushed = 0;
        for i in 0..50 {
            pad.push_action(i, "Delay");
            pushed += format!("[t={i}] Action: Delay\n").len() as u64;
            let prompt = pad.prompt("", "");
            assert_eq!(key(&pad).stream, first.stream);
            assert_eq!(key(&pad).offset + prompt.lines.len() as u64, pushed);
        }
        let clone = pad.clone();
        assert_eq!(clone.render(), pad.render());
        assert_ne!(key(&clone).stream, first.stream);
        pad.clear();
        assert_ne!(key(&pad).stream, first.stream);
        assert_ne!(key(&pad).stream, key(&clone).stream);
        assert_eq!(key(&pad).offset, 0);
    }

    #[test]
    fn empty_renders_placeholder() {
        let s = Scratchpad::default();
        assert_eq!(s.render(), "(nothing yet)");
        assert!(s.is_empty());
    }

    #[test]
    fn renders_in_order_with_kinds() {
        let mut s = Scratchpad::default();
        s.push_thought(0, "short job first");
        s.push_action(0, "StartJob(job_id=9)");
        s.push_feedback(10, "job 9 cannot be started");
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "[t=0] Thought: short job first");
        assert_eq!(lines[1], "[t=0] Action: StartJob(job_id=9)");
        assert_eq!(lines[2], "[t=10] Feedback: job 9 cannot be started");
    }

    #[test]
    fn newlines_are_flattened() {
        let mut s = Scratchpad::default();
        s.push_thought(0, "line one\nline two\t tab");
        assert_eq!(s.render(), "[t=0] Thought: line one line two tab");
    }

    #[test]
    fn token_budget_drops_oldest_first() {
        let mut s = Scratchpad::new(60);
        for i in 0..20 {
            s.push_thought(i, &format!("thought number {i} with some padding words"));
        }
        let text = s.render();
        assert!(text.starts_with("(earlier history truncated)"), "{text}");
        assert!(text.contains("thought number 19"), "newest kept: {text}");
        assert!(!text.contains("thought number 0"), "oldest dropped: {text}");
        assert_eq!(s.len(), 20, "dropped entries still count");
    }

    #[test]
    fn within_budget_keeps_everything() {
        let mut s = Scratchpad::new(10_000);
        for i in 0..10 {
            s.push_action(i, "Delay");
        }
        let text = s.render();
        assert!(!text.contains("truncated"));
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn clear_resets() {
        let mut s = Scratchpad::default();
        s.push_thought(0, "x");
        s.clear();
        assert_eq!(s.render(), "(nothing yet)");
    }
}
