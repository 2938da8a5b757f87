//! Parsing the agent's rendered prompt back into structured state.
//!
//! The simulated personas receive exactly what a hosted model would: the
//! prompt built by the agent crate (paper §3.4's template), as a
//! [`Prompt`] whose parts are the bytes of that text. This module recovers
//! the system state, job queue and scratchpad feedback from them. The
//! grammar is the one `rsched-core`'s prompt builder emits; its round-trip
//! is tested on both sides. Every number is read by one left-to-right byte
//! scanner over its line, accumulating with overflow checks.
//!
//! Every prompt carries the whole decision history again (§2.2), so a
//! simulated model keeps a ledger: per history line it has read, where
//! the line ends in its stream, its share of the token count and its
//! feedback entry. A prompt's [`HistoryKey`] names its lines exactly — the
//! stream they were pushed to and the offset at which they start — so the
//! ledger drops the entries that left the front of the window, reads only
//! the lines past what it has read, and sums the rest. Text with no key
//! (`parse_prompt`, a model handed a plain string) is split into the same
//! parts and read in full by the same reader.

use std::collections::VecDeque;

use crate::backend::{HistoryKey, Prompt};
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
    read(&Prompt::from_text(text), &mut Ledger::default()).map(|(prompt, _)| prompt)
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
    /// Read one line. A job entry read in full that is `- Job …` and one
    /// byte of whitespace (a newline, or an unterminated last line's end)
    /// returns its template's word count: the scanner's grammar leaves it
    /// ASCII, so its tally is its length and that count.
    fn line(&mut self, line: &str) -> Result<Option<usize>, ParseError> {
        let out = &mut self.out;
        let trimmed = line.trim();
        let header = match trimmed {
            "Running Jobs:" => Some(Section::Running),
            "Waiting Jobs (eligible to schedule):" => Some(Section::Waiting),
            "# Scratchpad (Decision History)" => Some(Section::Scratchpad),
            "Your scheduling objectives are:" => Some(Section::Tail),
            _ => None,
        };
        if let Some(section) = header {
            self.section = section;
            return Ok(None);
        }
        let template = line.len() == trimmed.len() + 1 && line.starts_with("- Job ");
        const U32: u64 = u32::MAX as u64;
        const USIZE: u64 = usize::MAX as u64;
        // Every bound below is its field's type's, so each `as` is exact.
        match self.section {
            Section::Preamble => {
                if let Some(rest) = trimmed.strip_prefix("System capacity: ") {
                    let fields = [("", U32), (" nodes, ", u64::MAX)];
                    let [nodes, memory] = scan(rest, "capacity", fields, " GB memory")?;
                    (out.capacity_nodes, out.capacity_memory_gb) = (nodes as u32, memory);
                    self.saw_capacity = true;
                } else if let Some(rest) = trimmed.strip_prefix("Current time: ") {
                    [out.now_secs] = scan(rest, "current time", [("", u64::MAX)], "")?;
                    self.saw_time = true;
                } else if let Some(rest) = trimmed.strip_prefix("Available Nodes: ") {
                    out.available_nodes = scan(rest, "available nodes", [("", U32)], "")?[0] as u32;
                } else if let Some(rest) = trimmed.strip_prefix("Available Memory: ") {
                    [out.available_memory_gb] =
                        scan(rest, "available memory", [("", u64::MAX)], " GB")?;
                }
            }
            Section::Running => {
                if let Some(rest) = trimmed.strip_prefix("- Job ") {
                    const FIELDS: [(&str, u64); 6] = [
                        ("", U32),
                        (": user_", U32),
                        (", ", U32),
                        (" nodes, ", u64::MAX),
                        (" GB, started t=", u64::MAX),
                        (", expected end t=", u64::MAX),
                    ];
                    let [id, user, nodes, memory_gb, started_secs, expected_end_secs] =
                        scan(rest, "job entry (running)", FIELDS, "")?;
                    out.running.push(ParsedRunningJob {
                        id: id as u32,
                        user: user as u32,
                        nodes: nodes as u32,
                        memory_gb,
                        started_secs,
                        expected_end_secs,
                    });
                    return Ok(template.then_some(const { entry_words(&FIELDS, "") }));
                } else if let Some(rest) = trimmed.strip_prefix("Completed Jobs: ") {
                    let fields = [("", USIZE), (" of ", USIZE), (" total jobs; ", USIZE)];
                    let [done, total, pending] =
                        scan(rest, "completed", fields, " not yet submitted")?;
                    out.completed = done as usize;
                    out.total_jobs = total as usize;
                    out.pending_arrivals = pending as usize;
                }
            }
            Section::Waiting => {
                if let Some(rest) = trimmed.strip_prefix("- Job ") {
                    const FIELDS: [(&str, u64); 7] = [
                        ("", U32),
                        (": user_", U32),
                        (", ", U32),
                        (" nodes, ", u64::MAX),
                        (" GB, walltime ", u64::MAX),
                        (" s, submitted t=", u64::MAX),
                        (", waiting ", u64::MAX),
                    ];
                    let [id, user, nodes, memory_gb, walltime_secs, submitted_secs, waiting_secs] =
                        scan(rest, "job entry (waiting)", FIELDS, " s")?;
                    out.waiting.push(ParsedWaitingJob {
                        id: id as u32,
                        user: user as u32,
                        nodes: nodes as u32,
                        memory_gb,
                        walltime_secs,
                        submitted_secs,
                        waiting_secs,
                    });
                    return Ok(template.then_some(const { entry_words(&FIELDS, " s") }));
                }
            }
            Section::Scratchpad => {
                if let Some(rest) = trimmed.strip_prefix("[t=") {
                    if let Some((ts, body)) = rest.split_once("] ") {
                        if let Some(feedback) = body.strip_prefix("Feedback: ") {
                            let [t] = scan(ts, "scratchpad timestamp", [("", u64::MAX)], "")?;
                            out.feedback.push((t, feedback.to_string()));
                        }
                    }
                }
            }
            Section::Tail => {}
        }
        Ok(None)
    }

    /// Read and tally every line of `part`, a job entry by its template.
    fn part(&mut self, part: &str) -> Result<(), ParseError> {
        let (mut counted, mut at) = (0, 0);
        for line in part.split_inclusive('\n') {
            if let Some(words) = self.line(line)? {
                self.count += tally(&part[counted..at]);
                self.count += Tally::ascii(line.len(), words);
                counted = at + line.len();
            }
            at += line.len();
        }
        self.count += tally(&part[counted..]);
        Ok(())
    }
}

/// Words in a job entry [`scan`] reads in full from `fields` and `end`:
/// `- Job `, the lead-ins and `end`, each number a run of digits.
const fn entry_words(fields: &[(&str, u64)], end: &str) -> usize {
    const fn runs(text: &str, words: &mut usize, after_space: &mut bool) {
        let mut i = 0;
        while i < text.len() {
            let space = matches!(text.as_bytes()[i], b' ' | b'\t'..=b'\r');
            if *after_space && !space {
                *words += 1;
            }
            *after_space = space;
            i += 1;
        }
    }
    let (mut words, mut after_space) = (0, true);
    runs("- Job ", &mut words, &mut after_space);
    let mut i = 0;
    while i < fields.len() {
        runs(fields[i].0, &mut words, &mut after_space);
        runs("0", &mut words, &mut after_space);
        i += 1;
    }
    runs(end, &mut words, &mut after_space);
    words
}

/// The one reader: the line state machine over the prompt's parts, in
/// order, and what [`crate::tokens::estimate_tokens`] makes of its text.
/// With a key, and with the scratchpad header just read, the history lines
/// go through the `ledger`; otherwise they are read like any part.
pub(crate) fn read(
    prompt: &Prompt<'_>,
    ledger: &mut Ledger,
) -> Result<(ParsedPrompt, u32), ParseError> {
    let parts = [prompt.head, prompt.marker, prompt.lines, prompt.tail];
    ledger.received += parts.iter().map(|part| part.len() as u64).sum::<u64>();
    let mut state = Lines::default();
    // Room for every job line the head could hold: each is over 64 bytes.
    state.out.waiting.reserve(prompt.head.len() / 64);
    state.part(prompt.head)?;
    state.part(prompt.marker)?;
    match prompt.key {
        Some(key) if state.section == Section::Scratchpad => {
            ledger.history(key, prompt.lines, &mut state)?
        }
        _ => state.part(prompt.lines)?,
    }
    state.part(prompt.tail)?;
    match (state.saw_time, state.saw_capacity) {
        (false, _) => Err(err("missing `Current time:` line")),
        (_, false) => Err(err("missing `System capacity:` line")),
        _ => Ok((state.out, state.count.tokens())),
    }
}

/// What the history lines read from one stream gave, oldest first (see the
/// module documentation).
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    stream: Option<u64>,
    /// Stream offset at which the first line read starts.
    start: u64,
    /// Per line read: the stream offset just past its newline, its tally.
    lines: VecDeque<(u64, Tally)>,
    /// The sum of those tallies.
    kept: Tally,
    /// Per feedback line among them: where it ends, its feedback entry.
    feedback: VecDeque<(u64, (u64, String))>,
    received: u64,
    skipped: u64,
}

impl Ledger {
    /// Bytes handed in over all calls, and how many of them were read line
    /// by line: all but the history lines taken from the ledger.
    pub(crate) fn bytes(&self) -> (u64, u64) {
        (self.received, self.received - self.skipped)
    }

    /// Start over at `key`, with nothing read.
    fn restart(&mut self, key: HistoryKey) {
        (self.stream, self.start) = (Some(key.stream), key.offset);
        self.lines.clear();
        self.kept = Tally::default();
        self.feedback.clear();
    }

    /// Read `lines`, which start at `key`: what the lines already read
    /// gave, then the lines past them, each recorded.
    fn history(
        &mut self,
        key: HistoryKey,
        lines: &str,
        state: &mut Lines,
    ) -> Result<(), ParseError> {
        if self.stream != Some(key.stream) || key.offset < self.start {
            self.restart(key);
        }
        while let Some(&(end, tally)) = self.lines.front().filter(|(end, _)| *end <= key.offset) {
            self.start = end;
            self.kept -= tally;
            self.lines.pop_front();
        }
        while self.feedback.front().is_some_and(|f| f.0 <= key.offset) {
            self.feedback.pop_front();
        }
        // An offset inside a line, or past the last one read, is a window
        // this ledger never saw.
        if self.start != key.offset {
            self.restart(key);
        }
        let mut known = self.lines.back().map_or(0, |l| (l.0 - self.start) as usize);
        if known > 0 && lines.as_bytes().get(known - 1) != Some(&b'\n') {
            self.restart(key);
            known = 0;
        }
        state.count += self.kept;
        let feedback = self.feedback.iter().map(|(_, entry)| entry.clone());
        state.out.feedback.extend(feedback);
        self.skipped += known as u64;
        let mut at = known;
        for line in lines[known..].split_inclusive('\n') {
            if !line.starts_with("[t=") || !line.ends_with('\n') {
                return state.part(&lines[at..]);
            }
            let feedback = state.out.feedback.len();
            state.line(line)?;
            at += line.len();
            let end = key.offset.saturating_add(at as u64);
            let tally = tally(line);
            state.count += tally;
            self.kept += tally;
            self.lines.push_back((end, tally));
            if let Some(entry) = state.out.feedback.get(feedback) {
                self.feedback.push_back((end, entry.clone()));
            }
        }
        Ok(())
    }
}

/// The numbers of one line, read left to right in one pass over its bytes:
/// per field its text, then bare ASCII digits accumulated with overflow
/// checks up to the field's bound; then `end`, and nothing more. A number
/// past its bound is an error, never a wrapped value.
#[inline(always)]
fn scan<const N: usize>(
    line: &str,
    what: &str,
    fields: [(&str, u64); N],
    end: &str,
) -> Result<[u64; N], ParseError> {
    const STUCK: [&str; 2] = ["bad", "too few fields in"];
    let bytes = line.as_bytes();
    let stuck = |at: usize| refused(STUCK[usize::from(at == line.len())], what, line);
    let mut at = 0;
    let mut out = [0; N];
    for (i, &(text, bound)) in fields.iter().enumerate() {
        if !bytes[at..].starts_with(text.as_bytes()) {
            return Err(stuck(at));
        }
        at += text.len();
        let from = at;
        // A local, not `out[i]`: the loop then keeps it in a register.
        let mut value = 0;
        while let Some(&byte @ b'0'..=b'9') = bytes.get(at) {
            let digit = u64::from(byte - b'0');
            if value > (bound - digit) / 10 {
                return Err(refused("number too large in", what, line));
            }
            value = value * 10 + digit;
            at += 1;
        }
        if at == from {
            return Err(stuck(at));
        }
        out[i] = value;
    }
    match line[at..].strip_prefix(end) {
        Some("") => Ok(out),
        Some(more) if more.starts_with(", ") => Err(refused("too many fields in", what, line)),
        _ => Err(stuck(at)),
    }
}

#[cold]
fn refused(why: &str, what: &str, line: &str) -> ParseError {
    err(format!("{why} {what} `{line}`"))
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

    /// What the scanner refuses that the builder never writes: a sign, or
    /// whitespace padding a number. A 64-bit field holds `u64::MAX` and
    /// refuses one more.
    #[test]
    fn job_line_numbers_are_bare_digits() {
        let good = sample_prompt();
        for (field, changed) in [
            ("- Job 32:", "- Job +32:"),
            ("user_6,", "user_ 6,"),
            ("walltime 147 s", "walltime  147 s"),
            ("started t=0,", "started t=0 ,"),
            ("8 GB, walltime", "8GB, walltime"),
        ] {
            assert!(good.contains(field), "sample prompt lost `{field}`");
            assert!(
                parse_prompt(&good.replace(field, changed)).is_err(),
                "{changed}"
            );
        }
        let max = good.replace(
            "8 GB, walltime 147",
            &format!("{0} GB, walltime {0}", u64::MAX),
        );
        let p = parse_prompt(&max).expect("u64::MAX fits");
        assert_eq!(
            (p.waiting[0].memory_gb, p.waiting[0].walltime_secs),
            (u64::MAX, u64::MAX)
        );
        let over = good.replace("walltime 147", "walltime 18446744073709551616");
        let e = parse_prompt(&over).unwrap_err();
        assert!(e.message.contains("too large"), "{e}");
    }

    /// A job entry's tally is its length and its template's word count:
    /// 16 for a waiting job's, 13 for a running job's, each number a word.
    /// Closed by one other whitespace byte than its newline, as an
    /// unterminated last line may be, it counts alike; with any more
    /// whitespace around it, it is tallied.
    #[test]
    fn job_entries_tally_by_their_template() {
        let waiting =
            "- Job 32: user_6, 256 nodes, 8 GB, walltime 147 s, submitted t=0, waiting 1554 s\n";
        let running = "- Job 46: user_3, 18 nodes, 1472 GB, started t=0, expected end t=10000\n";
        for (header, line, words) in [
            ("Waiting Jobs (eligible to schedule):\n", waiting, 16),
            ("Running Jobs:\n", running, 13),
        ] {
            assert_eq!(line.split_whitespace().count(), words);
            assert_eq!(Tally::ascii(line.len(), words), tally(line));
            let mut state = Lines::default();
            assert_eq!(state.line(header), Ok(None));
            assert_eq!(state.line(line), Ok(Some(words)), "{line}");
            let others = [
                line.replace('\n', "\r\n"),
                format!(" {line}"),
                line.replace('\n', " \n"),
                line.trim_end().to_string(),
            ];
            for other in others {
                assert_eq!(state.line(&other), Ok(None), "{other:?}");
            }
            let spaced = line.replace('\n', "\t");
            assert_eq!(state.line(&spaced), Ok(Some(words)));
            assert_eq!(Tally::ascii(spaced.len(), words), tally(&spaced));
        }
    }

    /// One job entry of either template, each number small or, one time
    /// in four, its field's maximum.
    fn job_line(running: bool, pick: u64) -> String {
        let number = |field: u32, max: u64| match pick >> (2 * field) & 3 {
            0 => max,
            _ => pick % 997 + u64::from(field),
        };
        let [id, user, nodes] = [0, 1, 2].map(|field| number(field, u32::MAX.into()));
        let [memory, t1, t2, waited] = [3, 4, 5, 6].map(|field| number(field, u64::MAX));
        if running {
            format!(
                "- Job {id}: user_{user}, {nodes} nodes, {memory} GB, started t={t1}, \
                 expected end t={t2}"
            )
        } else {
            format!(
                "- Job {id}: user_{user}, {nodes} nodes, {memory} GB, walltime {t1} s, \
                 submitted t={t2}, waiting {waited} s"
            )
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Whatever the prompt, a read that succeeds counts what
        /// `estimate_tokens` counts of its text, with or without a history
        /// key: job entries at the numbers' limits, CRLF endings, leading
        /// spaces, U+00A0 / U+3000 padding, job entries in sections that do
        /// not read them (or in the other job section, which refuses them),
        /// lines cut short, and a last line with no newline. A line of
        /// one-letter words in the tail makes the word count, not the length, the
        /// estimate, so a template's count that is one off shows.
        #[test]
        fn a_read_counts_the_tokens_of_its_text(
            lines in proptest::prelude::prop::collection::vec(
                (0usize..5, 0u32..10, 0u64..1 << 14, 0u32..12, 0usize..160),
                0..24,
            ),
            unterminated in 0u32..2,
            filler in 0usize..240,
        ) {
            const HEADERS: [&str; 5] = [
                "System capacity: 256 nodes, 2048 GB memory\nCurrent time: 9\n",
                "Running Jobs:\n",
                "Completed Jobs: 1 of 9 total jobs; 2 not yet submitted\n\
                 Waiting Jobs (eligible to schedule):\n",
                "# Scratchpad (Decision History)\n[t=3] Feedback: no\n",
                "Your scheduling objectives are:\n",
            ];
            let mut sections: [String; 5] = Default::default();
            for (section, form, pick, decoration, cut) in lines {
                // The section's own template nine times in ten.
                let running = match (section, form) {
                    (1, 0) => false,
                    (1, _) => true,
                    (2, 0) => true,
                    (_, form) => form % 2 == 1,
                };
                let mut line = job_line(running, pick);
                if cut < line.len() && decoration == 11 {
                    line.truncate(cut);
                }
                let (lead, end) = match decoration {
                    4 => ("", "\r\n"),
                    5 => (" ", "\n"),
                    6 => ("\u{a0}", "\u{3000}\n"),
                    7 => ("\u{3000}", "\n"),
                    8 => ("", "\u{a0}\n"),
                    9 => ("", " \r\n"),
                    _ => ("", "\n"),
                };
                sections[section] += &format!("{lead}{line}{end}");
            }
            sections[4].insert_str(0, &format!("{}\n", "a ".repeat(filler)));
            let mut text: String = HEADERS.iter().zip(&sections).map(|(h, s)| format!("{h}{s}")).collect();
            if unterminated == 1 {
                text.pop();
            }
            let key = HistoryKey { stream: HistoryKey::new_stream(), offset: 0 };
            let prompt = Prompt::from_text(&text);
            for prompt in [prompt, Prompt { key: Some(key), ..prompt }] {
                if let Ok((_, tokens)) = read(&prompt, &mut Ledger::default()) {
                    proptest::prop_assert_eq!(tokens, crate::tokens::estimate_tokens(&text));
                }
            }
        }
    }

    #[test]
    fn scratchpad_thoughts_are_not_feedback() {
        let p = parse_prompt(&sample_prompt()).expect("parses");
        // Only the Feedback line is extracted, not thoughts/actions.
        assert_eq!(p.feedback.len(), 1);
    }
}
