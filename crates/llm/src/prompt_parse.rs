//! Parsing the agent's rendered prompt back into structured state.
//!
//! The simulated personas receive exactly what a hosted model would: the
//! prompt *text* built by the agent crate (paper §3.4's template). This
//! module recovers the system state, job queue and scratchpad feedback from
//! that text. The grammar is the one `rsched-core`'s prompt builder emits;
//! its round-trip is tested on both sides.

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
    let mut out = ParsedPrompt::default();
    let mut saw_time = false;
    let mut saw_capacity = false;

    #[derive(PartialEq)]
    enum Section {
        Preamble,
        Running,
        Waiting,
        Scratchpad,
        Tail,
    }
    let mut section = Section::Preamble;

    for line in text.lines() {
        let trimmed = line.trim();
        match trimmed {
            "Running Jobs:" => {
                section = Section::Running;
                continue;
            }
            "Waiting Jobs (eligible to schedule):" => {
                section = Section::Waiting;
                continue;
            }
            "# Scratchpad (Decision History)" => {
                section = Section::Scratchpad;
                continue;
            }
            "Your scheduling objectives are:" => {
                section = Section::Tail;
                continue;
            }
            _ => {}
        }
        match section {
            Section::Preamble => {
                if let Some(rest) = trimmed.strip_prefix("System capacity: ") {
                    let (nodes, memory) = parse_capacity(rest)?;
                    out.capacity_nodes = nodes;
                    out.capacity_memory_gb = memory;
                    saw_capacity = true;
                } else if let Some(rest) = trimmed.strip_prefix("Current time: ") {
                    out.now_secs = parse_num(rest, "current time")?;
                    saw_time = true;
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
    }

    if !saw_time {
        return Err(err("missing `Current time:` line"));
    }
    if !saw_capacity {
        return Err(err("missing `System capacity:` line"));
    }
    Ok(out)
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

    #[test]
    fn scratchpad_thoughts_are_not_feedback() {
        let p = parse_prompt(&sample_prompt()).expect("parses");
        // Only the Feedback line is extracted, not thoughts/actions.
        assert_eq!(p.feedback.len(), 1);
    }
}
