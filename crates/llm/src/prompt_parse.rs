//! Parsing the agent's rendered prompt back into structured state.
//!
//! The simulated personas receive exactly what a hosted model would: the
//! prompt *text* built by the agent crate (paper §3.4's template). This
//! module recovers the system state, job queue and scratchpad feedback from
//! that text. The grammar is the one `rsched-core`'s prompt builder emits;
//! its round-trip is tested on both sides.
//!
//! Every prompt carries the whole decision history again (§2.2), so a
//! [`PromptReader`] remembers the history it last read, as a serving
//! endpoint's prefix cache does. Not as a copy — a third buffer the size of
//! the prompt, beside the scratchpad's and the agent's, reads as that much
//! resident memory — but as *blocks* of whole `[t=…]` lines: each its first
//! line, its length, a 64-bit digest, and what reading it gave (its share of
//! the token count, its feedback entries). The next history has grown at the
//! back and may have lost lines at the front, so the reader *re-anchors* —
//! reads on until a line is the first line of a remembered block whose digest
//! verifies there — skips every following block that still verifies, and
//! reads the rest like any text, closing it into new blocks. Two different
//! blocks alike in first line and digest would be taken for each other; the
//! price is a stale feedback list or token count inside the *simulated*
//! model, whose every action the constraint module (§2.4) still validates.

use crate::tokens::{tally, Tally};

/// A waiting job as described in the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedWaitingJob {
    /// Job id.
    pub id: u32,
    /// Submitting user id (from `user_<n>`).
    pub user: u32,
    /// Nodes requested.
    pub nodes: u32,
    /// Memory requested (GB).
    pub memory_gb: u64,
    /// Requested walltime, seconds.
    pub walltime_secs: u64,
    /// Submission time, seconds.
    pub submitted_secs: u64,
    /// Time spent waiting so far, seconds.
    pub waiting_secs: u64,
}

/// A running job as described in the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRunningJob {
    /// Job id.
    pub id: u32,
    /// Owning user id.
    pub user: u32,
    /// Nodes held.
    pub nodes: u32,
    /// Memory held (GB).
    pub memory_gb: u64,
    /// Start time, seconds.
    pub started_secs: u64,
    /// Expected end time, seconds.
    pub expected_end_secs: u64,
}

/// Everything the personas need from one prompt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedPrompt {
    /// Current simulation time, seconds.
    pub now_secs: u64,
    /// Machine node capacity.
    pub capacity_nodes: u32,
    /// Machine memory capacity (GB).
    pub capacity_memory_gb: u64,
    /// Free nodes.
    pub available_nodes: u32,
    /// Free memory (GB).
    pub available_memory_gb: u64,
    /// Running jobs.
    pub running: Vec<ParsedRunningJob>,
    /// Waiting (eligible) jobs.
    pub waiting: Vec<ParsedWaitingJob>,
    /// Jobs completed so far.
    pub completed: usize,
    /// Total jobs in the workload.
    pub total_jobs: usize,
    /// Jobs not yet submitted.
    pub pending_arrivals: usize,
    /// Feedback lines from the scratchpad (most recent last), with their
    /// timestamps.
    pub feedback: Vec<(u64, String)>,
}

/// A prompt-parsing error with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of what failed.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prompt parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

/// Parse a rendered prompt.
pub fn parse_prompt(text: &str) -> Result<ParsedPrompt, ParseError> {
    read(text, None).map(|(prompt, _)| prompt)
}

#[derive(Default, PartialEq)]
enum Section {
    #[default]
    Preamble,
    Running,
    Waiting,
    Scratchpad,
    Tail,
}

/// The line state machine: every line that is read at all is read here.
#[derive(Default)]
struct Lines {
    out: ParsedPrompt,
    count: Tally,
    section: Section,
    saw_time: bool,
    saw_capacity: bool,
}

impl Lines {
    fn line(&mut self, line: &str) -> Result<(), ParseError> {
        let out = &mut self.out;
        let trimmed = line.trim();
        match trimmed {
            "Running Jobs:" => {
                self.section = Section::Running;
                return Ok(());
            }
            "Waiting Jobs (eligible to schedule):" => {
                self.section = Section::Waiting;
                return Ok(());
            }
            "# Scratchpad (Decision History)" => {
                self.section = Section::Scratchpad;
                return Ok(());
            }
            "Your scheduling objectives are:" => {
                self.section = Section::Tail;
                return Ok(());
            }
            _ => {}
        }
        match self.section {
            Section::Preamble => {
                if let Some(rest) = trimmed.strip_prefix("System capacity: ") {
                    let (nodes, memory) = parse_capacity(rest)?;
                    out.capacity_nodes = nodes;
                    out.capacity_memory_gb = memory;
                    self.saw_capacity = true;
                } else if let Some(rest) = trimmed.strip_prefix("Current time: ") {
                    out.now_secs = parse_num(rest, "current time")?;
                    self.saw_time = true;
                } else if let Some(rest) = trimmed.strip_prefix("Available Nodes: ") {
                    out.available_nodes = parse_num(rest, "available nodes")?;
                } else if let Some(rest) = trimmed.strip_prefix("Available Memory: ") {
                    let rest = rest.strip_suffix(" GB").unwrap_or(rest);
                    out.available_memory_gb = parse_num(rest, "available memory")?;
                }
            }
            Section::Running => {
                if trimmed == "None" || trimmed.is_empty() {
                    // fall through; section ends at the next header
                } else if let Some(rest) = trimmed.strip_prefix("- Job ") {
                    out.running.push(parse_running(rest)?);
                } else if let Some(rest) = trimmed.strip_prefix("Completed Jobs: ") {
                    let (completed, total, pending) = parse_completed(rest)?;
                    out.completed = completed;
                    out.total_jobs = total;
                    out.pending_arrivals = pending;
                }
            }
            Section::Waiting => {
                if trimmed == "None" || trimmed.is_empty() {
                } else if let Some(rest) = trimmed.strip_prefix("- Job ") {
                    out.waiting.push(parse_waiting(rest)?);
                }
            }
            Section::Scratchpad => {
                if let Some(rest) = trimmed.strip_prefix("[t=") {
                    if let Some((ts, body)) = rest.split_once("] ") {
                        if let Some(feedback) = body.strip_prefix("Feedback: ") {
                            let t = parse_num(ts, "scratchpad timestamp")?;
                            out.feedback.push((t, feedback.to_string()));
                        }
                    }
                }
            }
            Section::Tail => {}
        }
        Ok(())
    }
}

/// One pass of the line state machine over `text`. With a `reader`, the run
/// of `[t=…]` lines that opens the scratchpad section goes to its `history`
/// and the text is tallied; without, nothing is remembered or counted.
fn read(
    text: &str,
    mut reader: Option<&mut PromptReader>,
) -> Result<(ParsedPrompt, Tally), ParseError> {
    let mut state = Lines::default();
    // Where the next line starts and, for a reader, how far its count has got.
    let (mut at, mut counted) = (0, reader.is_some().then_some(0));
    let mut lines = text.split_inclusive('\n');
    while let Some(line) = lines.next() {
        if state.section == Section::Scratchpad && line.starts_with("[t=") {
            if let Some(reader) = reader.take() {
                at = reader.history(text, at, &mut state)?;
                counted = Some(at);
                lines = text[at..].split_inclusive('\n');
                continue;
            }
        }
        state.line(line)?;
        at += line.len();
    }
    if let Some(counted) = counted {
        state.count += tally(&text[counted..]);
    }
    match (state.saw_time, state.saw_capacity) {
        (false, _) => Err(err("missing `Current time:` line")),
        (_, false) => Err(err("missing `System capacity:` line")),
        _ => Ok((state.out, state.count)),
    }
}

/// History is remembered in blocks of whole lines, each closed at the first
/// line end this many bytes in.
const BLOCK: usize = 4096;

/// A closed block of `[t=…]` lines: enough to recognise its bytes in a later
/// prompt, and what reading them gave.
#[derive(Debug, Clone)]
struct Block {
    /// Its first line, newline included.
    anchor: String,
    len: usize,
    digest: u64,
    tally: Tally,
    feedback: Vec<(u64, String)>,
}

/// Whether `block`'s bytes are at `at`: cheaply refused unless its first line
/// is. Its length is applied to bytes, not to `str` — in an unrelated text it
/// can end inside a character — and a block that verifies ends in a newline,
/// so a line starts after it.
fn is_at(block: &Block, bytes: &[u8], at: usize) -> bool {
    let anchor = block.anchor.as_bytes();
    let here = bytes
        .get(at..at + block.len)
        .filter(|here| here.starts_with(anchor));
    here.is_some_and(|here| here.ends_with(b"\n") && digest(here) == block.digest)
}

/// 64 bits of `bytes`, 32 at a step in four lanes whose multiplies overlap:
/// a byte-at-a-time hash costs more than the parse that skipping saves.
fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B1_85EB_CA87;
    let mix = |h: u64, word: u64| (h.rotate_left(27) ^ word).wrapping_mul(K);
    let mut lanes = [K, !K, K >> 1, !K >> 1];
    let mut step = |chunk: &[u8; 32]| {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let word = word.try_into().expect("eight bytes");
            *lane = mix(*lane, u64::from_le_bytes(word));
        }
    };
    let (steps, rest) = bytes.as_chunks();
    steps.iter().for_each(&mut step);
    // The ragged end, zero-padded; the length tells the paddings apart.
    let mut last = [0; 32];
    last[..rest.len()].copy_from_slice(rest);
    step(&last);
    let h = lanes.into_iter().fold(bytes.len() as u64, mix);
    h ^ (h >> 29)
}

/// The end of the `[t=…]` line that starts at `at`, past its newline, if one
/// starts there and is terminated.
fn history_line(text: &str, at: usize) -> Option<usize> {
    let rest = text.get(at..).filter(|rest| rest.starts_with("[t="))?;
    Some(at + rest.find('\n')? + 1)
}

/// A reader that remembers the decision history it last read (see the module
/// documentation) and does not read again the lines of it that it recognises.
#[derive(Debug, Clone, Default)]
pub struct PromptReader {
    /// Consecutive blocks of the history last read, oldest first.
    blocks: Vec<Block>,
    /// The longest block ever closed: no remembered history has a longer
    /// stretch without a block start, whatever was cut off its front.
    longest: usize,
    received: u64,
    skipped: u64,
}

impl PromptReader {
    /// What [`parse_prompt`] and [`crate::tokens::estimate_tokens`] return.
    pub fn read(&mut self, text: &str) -> Result<(ParsedPrompt, u32), ParseError> {
        self.received += text.len() as u64;
        read(text, Some(self)).map(|(prompt, count)| (prompt, count.tokens()))
    }

    /// Bytes handed in over all calls, and how many of them were read line
    /// by line: all but the blocks skipped.
    pub fn bytes(&self) -> (u64, u64) {
        (self.received, self.received - self.skipped)
    }

    /// Read the decision history — the run of `[t=…]` lines that starts at
    /// `hist` — and return where it ends, with `state.count` taken that far.
    /// The search for an anchor stops `longest` bytes in: an unrelated
    /// history costs a few line comparisons and is then read like any text.
    fn history(&mut self, text: &str, hist: usize, state: &mut Lines) -> Result<usize, ParseError> {
        let bytes = text.as_bytes();
        let mut entries = state.out.feedback.len();
        let mut at = hist;
        let mut anchor = None;
        while let Some(end) = history_line(text, at).filter(|_| at - hist <= self.longest) {
            anchor = self.blocks.iter().position(|b| is_at(b, bytes, at));
            if anchor.is_some() {
                break;
            }
            state.line(&text[at..end])?;
            at = end;
        }
        // Blocks ahead of the anchor have left the prompt, their feedback too.
        // With no anchor, none is left and the new blocks start at `hist`.
        self.blocks.drain(..anchor.unwrap_or(self.blocks.len()));
        // The count has got this far, and the next block to close starts here.
        let mut open = if anchor.is_some() { at } else { hist };
        state.count += tally(&text[..open]);
        let mut kept = 0;
        while let Some(block) = self.blocks.get(kept) {
            if kept > 0 && !is_at(block, bytes, at) {
                break;
            }
            state.out.feedback.extend_from_slice(&block.feedback);
            state.count += block.tally;
            self.skipped += block.len as u64;
            at += block.len;
            kept += 1;
            (open, entries) = (at, state.out.feedback.len());
        }
        self.blocks.truncate(kept);
        while let Some(end) = history_line(text, at) {
            state.line(&text[at..end])?;
            at = end;
            if at - open >= BLOCK {
                let lines = &text[open..at];
                let block = Block {
                    anchor: text[open..history_line(text, open).unwrap_or(at)].into(),
                    len: lines.len(),
                    digest: digest(lines.as_bytes()),
                    tally: tally(lines),
                    feedback: state.out.feedback[entries..].to_vec(),
                };
                state.count += block.tally;
                self.longest = self.longest.max(block.len);
                self.blocks.push(block);
                (open, entries) = (at, state.out.feedback.len());
            }
        }
        state.count += tally(&text[open..at]);
        Ok(at)
    }
}

/// A decimal number of the width its field has; one too large for the
/// field is an error, never a wrapped value.
fn parse_num<T>(text: &str, what: &str) -> Result<T, ParseError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text.trim()
        .parse()
        .map_err(|e| err(format!("bad {what} `{text}`: {e}")))
}

/// `"256 nodes, 2048 GB memory"`.
fn parse_capacity(text: &str) -> Result<(u32, u64), ParseError> {
    let (nodes_part, mem_part) = text
        .split_once(", ")
        .ok_or_else(|| err(format!("bad capacity line `{text}`")))?;
    let nodes = parse_num(
        nodes_part.strip_suffix(" nodes").unwrap_or(nodes_part),
        "capacity nodes",
    )?;
    let memory = parse_num(
        mem_part.strip_suffix(" GB memory").unwrap_or(mem_part),
        "capacity memory",
    )?;
    Ok((nodes, memory))
}

/// `"12 of 80 total jobs; 3 not yet submitted"`.
fn parse_completed(text: &str) -> Result<(usize, usize, usize), ParseError> {
    let (counts, pending_part) = text
        .split_once("; ")
        .ok_or_else(|| err(format!("bad completed line `{text}`")))?;
    let (done, total) = counts
        .split_once(" of ")
        .ok_or_else(|| err(format!("bad completed counts `{counts}`")))?;
    let total = total.strip_suffix(" total jobs").unwrap_or(total);
    let pending = pending_part
        .strip_suffix(" not yet submitted")
        .unwrap_or(pending_part);
    Ok((
        parse_num(done, "completed count")?,
        parse_num(total, "total jobs")?,
        parse_num(pending, "pending arrivals")?,
    ))
}

/// The `", "`-separated fields of one job line: exactly `N` of them.
fn split_fields<const N: usize>(line: &str) -> Result<[&str; N], ParseError> {
    let mut parts = line.split(", ");
    let mut fields = [""; N];
    for field in &mut fields {
        *field = parts
            .next()
            .ok_or_else(|| err(format!("too few fields in job entry `{line}`")))?;
    }
    if parts.next().is_some() {
        return Err(err(format!("too many fields in job entry `{line}`")));
    }
    Ok(fields)
}

/// `"46: user_3, 256 nodes, 128 GB, started t=0, expected end t=10000"`.
fn parse_running(rest: &str) -> Result<ParsedRunningJob, ParseError> {
    let (id_part, fields) = rest
        .split_once(": ")
        .ok_or_else(|| err(format!("bad running entry `{rest}`")))?;
    let [user, nodes, memory, started, expected_end] = split_fields(fields)?;
    Ok(ParsedRunningJob {
        id: parse_num(id_part, "running job id")?,
        user: parse_user(user)?,
        nodes: parse_suffixed(nodes, " nodes")?,
        memory_gb: parse_suffixed(memory, " GB")?,
        started_secs: parse_prefixed(started, "started t=")?,
        expected_end_secs: parse_prefixed(expected_end, "expected end t=")?,
    })
}

/// `"32: user_6, 256 nodes, 8 GB, walltime 147 s, submitted t=0, waiting 1554 s"`.
fn parse_waiting(rest: &str) -> Result<ParsedWaitingJob, ParseError> {
    let (id_part, fields) = rest
        .split_once(": ")
        .ok_or_else(|| err(format!("bad waiting entry `{rest}`")))?;
    let [user, nodes, memory, walltime, submitted, waiting] = split_fields(fields)?;
    Ok(ParsedWaitingJob {
        id: parse_num(id_part, "waiting job id")?,
        user: parse_user(user)?,
        nodes: parse_suffixed(nodes, " nodes")?,
        memory_gb: parse_suffixed(memory, " GB")?,
        walltime_secs: parse_seconds(walltime, "walltime ")?,
        submitted_secs: parse_prefixed(submitted, "submitted t=")?,
        waiting_secs: parse_seconds(waiting, "waiting ")?,
    })
}

fn parse_user(text: &str) -> Result<u32, ParseError> {
    let id = text
        .strip_prefix("user_")
        .ok_or_else(|| err(format!("bad user `{text}`")))?;
    parse_num(id, "user id")
}

/// `"<prefix><n> s"`.
fn parse_seconds(text: &str, prefix: &str) -> Result<u64, ParseError> {
    let v = text
        .strip_prefix(prefix)
        .and_then(|s| s.strip_suffix(" s"))
        .ok_or_else(|| err(format!("expected `{prefix}<n> s` in `{text}`")))?;
    parse_num(v, "seconds")
}

fn parse_suffixed<T>(text: &str, suffix: &str) -> Result<T, ParseError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let v = text
        .strip_suffix(suffix)
        .ok_or_else(|| err(format!("expected `{suffix}` in `{text}`")))?;
    parse_num(v, "suffixed value")
}

fn parse_prefixed(text: &str, prefix: &str) -> Result<u64, ParseError> {
    let v = text
        .strip_prefix(prefix)
        .ok_or_else(|| err(format!("expected `{prefix}` in `{text}`")))?;
    parse_num(v, "prefixed value")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A representative prompt in the canonical format (kept in sync with
    /// `rsched-core`'s builder, which round-trips against this parser in
    /// its own tests).
    pub(crate) fn sample_prompt() -> String {
        "\
You are an expert HPC resource manager, and your task is to schedule jobs in a \
high-performance computing (HPC) environment.

System capacity: 256 nodes, 2048 GB memory
Current time: 1554
Available Nodes: 238
Available Memory: 576 GB

Running Jobs:
- Job 46: user_3, 18 nodes, 1472 GB, started t=0, expected end t=10000

Completed Jobs: 12 of 80 total jobs; 3 not yet submitted

Waiting Jobs (eligible to schedule):
- Job 32: user_6, 256 nodes, 8 GB, walltime 147 s, submitted t=0, waiting 1554 s
- Job 40: user_1, 4 nodes, 4 GB, walltime 63 s, submitted t=100, waiting 1454 s

# Scratchpad (Decision History)
[t=0] Thought: starting with the short job maximizes throughput
[t=0] Action: StartJob(job_id=46)
[t=1554] Action: StartJob(job_id=32)
[t=1554] Feedback: job 32 cannot be started — requires 256 Nodes, 8 GB; available: 238 Nodes, 576 GB

Your scheduling objectives are:
...
Output format:
Thought: <your reasoning>
Action: <your action>
"
        .to_string()
    }

    #[test]
    fn parses_full_prompt() {
        let p = parse_prompt(&sample_prompt()).expect("parses");
        assert_eq!(p.now_secs, 1554);
        assert_eq!(p.capacity_nodes, 256);
        assert_eq!(p.capacity_memory_gb, 2048);
        assert_eq!(p.available_nodes, 238);
        assert_eq!(p.available_memory_gb, 576);
        assert_eq!(p.completed, 12);
        assert_eq!(p.total_jobs, 80);
        assert_eq!(p.pending_arrivals, 3);
        assert_eq!(p.running.len(), 1);
        assert_eq!(p.running[0].id, 46);
        assert_eq!(p.running[0].user, 3);
        assert_eq!(p.running[0].expected_end_secs, 10_000);
        assert_eq!(p.waiting.len(), 2);
        assert_eq!(p.waiting[0].id, 32);
        assert_eq!(p.waiting[0].walltime_secs, 147);
        assert_eq!(p.waiting[1].user, 1);
        assert_eq!(p.waiting[1].waiting_secs, 1454);
        assert_eq!(p.feedback.len(), 1);
        assert_eq!(p.feedback[0].0, 1554);
        assert!(p.feedback[0].1.contains("job 32 cannot be started"));
    }

    #[test]
    fn none_sections_parse_as_empty() {
        let prompt = "\
System capacity: 8 nodes, 64 GB memory
Current time: 0
Available Nodes: 8
Available Memory: 64 GB

Running Jobs:
None

Completed Jobs: 0 of 5 total jobs; 5 not yet submitted

Waiting Jobs (eligible to schedule):
None

# Scratchpad (Decision History)
(nothing yet)

Your scheduling objectives are:
...
";
        let p = parse_prompt(prompt).expect("parses");
        assert!(p.running.is_empty());
        assert!(p.waiting.is_empty());
        assert!(p.feedback.is_empty());
        assert_eq!(p.pending_arrivals, 5);
    }

    #[test]
    fn missing_time_is_error() {
        let e = parse_prompt("System capacity: 8 nodes, 64 GB memory\n").unwrap_err();
        assert!(e.message.contains("Current time"));
    }

    #[test]
    fn missing_capacity_is_error() {
        let e = parse_prompt("Current time: 5\n").unwrap_err();
        assert!(e.message.contains("System capacity"));
    }

    #[test]
    fn malformed_waiting_entry_is_error() {
        let prompt = "\
System capacity: 8 nodes, 64 GB memory
Current time: 0
Waiting Jobs (eligible to schedule):
- Job banana
";
        let e = parse_prompt(prompt).unwrap_err();
        assert!(e.message.contains("waiting"), "{e}");
    }

    /// 2^32 + 9 read into a `u32` by `as` is job 9 — a job the prompt
    /// never listed. Every 32-bit field must refuse instead.
    #[test]
    fn numbers_too_wide_for_their_field_are_errors_not_wrapped() {
        let good = sample_prompt();
        assert!(parse_prompt(&good).is_ok());
        for (field, wide) in [
            ("- Job 32: user_6", "- Job 4294967328: user_6"),
            ("- Job 46: user_3", "- Job 4294967342: user_3"),
            ("user_6, 256 nodes", "user_4294967302, 256 nodes"),
            ("user_6, 256 nodes", "user_6, 4294967552 nodes"),
            ("user_3, 18 nodes", "user_3, 4294967314 nodes"),
            (
                "System capacity: 256 nodes",
                "System capacity: 4294967552 nodes",
            ),
            ("Available Nodes: 238", "Available Nodes: 4294967534"),
        ] {
            assert!(good.contains(field), "sample prompt lost `{field}`");
            let e = parse_prompt(&good.replace(field, wide)).unwrap_err();
            assert!(e.message.contains("too large"), "`{wide}`: {e}");
        }
    }

    #[test]
    fn job_lines_must_hold_exactly_their_fields() {
        let good = sample_prompt();
        for (field, changed) in [
            (", waiting 1554 s", ""),
            (", waiting 1554 s", ", waiting 1554 s, priority 3"),
            (", expected end t=10000", ""),
            (
                ", expected end t=10000",
                ", expected end t=10000, on 18 nodes",
            ),
        ] {
            assert!(good.contains(field), "sample prompt lost `{field}`");
            let e = parse_prompt(&good.replace(field, changed)).unwrap_err();
            assert!(e.message.contains("fields in job entry"), "{e}");
        }
    }

    /// `sample_prompt` with `history` for its scratchpad lines.
    fn prompt_with_history(history: &str) -> String {
        let sample = sample_prompt();
        let (head, rest) = sample.split_once("[t=0] Thought").expect("history");
        let (_, tail) = rest.split_once("\n\nYour").expect("objectives");
        format!("{head}{history}\nYour{tail}")
    }

    /// What a reader with nothing remembered returns.
    fn stateless(text: &str) -> Result<(ParsedPrompt, u32), ParseError> {
        parse_prompt(text).map(|prompt| (prompt, crate::tokens::estimate_tokens(text)))
    }

    /// Decision `i` of a run: a thought, an action, and every third time a
    /// refusal, in the agent's words (the dash is `render_feedback`'s).
    fn decision(i: usize) -> String {
        let mut lines = format!(
            "[t={t}] Thought: At t={t} job {i} is the best balance of fairness and makespan: {}\n\
             [t={t}] Action: StartJob(job_id={i})\n",
            "it has waited long enough and fits the free nodes ".repeat(1 + i % 4),
            t = 10 * i
        );
        if i.is_multiple_of(3) {
            lines += &format!(
                "[t={}] Feedback: Action: StartJob failed — Job {i} cannot be started\n",
                10 * i
            );
        }
        lines
    }

    /// The agent's prompts over a run, through one reader: the history grows
    /// by a decision a call, and from call 60 on loses its oldest lines —
    /// none, a few, or several blocks' worth at a time, as a budget cursor
    /// would take them. Every call equals the stateless parse, and only the
    /// ragged ends of the history are read line by line.
    #[test]
    fn remembered_history_is_skipped_and_equals_the_stateless_parse() {
        let mut reader = PromptReader::default();
        let mut history = String::new();
        let (mut dropped, mut longest) = (0, 0);
        for i in 0..400 {
            let new = decision(i);
            history += &new;
            longest = longest.max(new.len());
            let mut cut = 0;
            if i >= 60 {
                let lines = if i % 100 == 0 { 80 } else { [0, 1, 3][i % 3] };
                cut = history[dropped..]
                    .split_inclusive('\n')
                    .take(lines)
                    .map(str::len)
                    .sum();
            }
            dropped += cut;
            let marker = if dropped > 0 {
                "(earlier history truncated)\n"
            } else {
                ""
            };
            let text = prompt_with_history(&format!("{marker}{}", &history[dropped..]));
            let before = reader.bytes().1;
            assert_eq!(reader.read(&text), stateless(&text), "call {i}");
            let read = (reader.bytes().1 - before) as usize;
            // Head and tail, the new decision, and at either end of the
            // history less than a block and a line — unless the cut went
            // past whole blocks, which costs reading what it left of one.
            let around = text.len() - (history.len() - dropped);
            let bound = around + new.len() + 2 * (BLOCK + longest);
            assert!(read <= bound, "call {i}: read {read} of {}", text.len());
        }
        assert!(dropped > 16 * BLOCK && history.len() - dropped > 6 * BLOCK);
        assert!(reader.blocks.len() >= 5);
    }

    /// A remembered length applied to an unrelated prompt can end inside a
    /// character, and `render_feedback` puts a three-byte dash in every
    /// message: lengths are applied to bytes. Here the first line is the
    /// remembered anchor, so the block is looked for.
    #[test]
    fn a_remembered_length_that_ends_inside_a_character_does_not_slice_the_text() {
        let first = "[t=0] Thought: x\n";
        let ascii = "[t=1] Thought: plain words, one byte a character\n".repeat(100);
        let mut reader = PromptReader::default();
        reader
            .read(&prompt_with_history(&format!("{first}{ascii}")))
            .expect("parses");
        let len = reader.blocks[0].len;
        let mut inside = 0;
        let dashes = format!("[t=1] Thought: {}\n", "—".repeat(40)).repeat(100);
        for shift in ["", "x", "xx"] {
            let text = prompt_with_history(&format!("{first}[t=1] Action: {shift}\n{dashes}"));
            let hist = text.find(first).expect("history");
            inside += usize::from(!text.is_char_boundary(hist + len));
            assert_eq!(reader.clone().read(&text), stateless(&text));
        }
        assert_eq!(inside, 2, "two of three shifts end the block inside a dash");
    }

    #[test]
    fn digest_tells_apart_what_a_block_of_lines_can_differ_in() {
        let line = "[t=5] Feedback: Action: StartJob failed — Job 9 cannot be started\n";
        let block = line.repeat(70);
        let same = digest(block.as_bytes());
        assert_eq!(same, digest(line.repeat(70).as_bytes()));
        for at in [0, 7, 31, 32, 33, 2048, block.len() - 2] {
            let mut changed = block.clone().into_bytes();
            changed[at] ^= 1;
            assert_ne!(same, digest(&changed), "byte {at}");
        }
        // A shorter text that zero-pads to the same last step.
        assert_ne!(digest(b"[t=1] x\n"), digest(b"[t=1] x\n\0"));
        assert_ne!(same, digest(&block.as_bytes()[..block.len() - line.len()]));
    }

    #[test]
    fn scratchpad_thoughts_are_not_feedback() {
        let p = parse_prompt(&sample_prompt()).expect("parses");
        // Only the Feedback line is extracted, not thoughts/actions.
        assert_eq!(p.feedback.len(), 1);
    }
}
