//! Rendering the system state into the paper's prompt (§3.4).
//!
//! The template follows the paper's published prompt: role preamble, system
//! capacity and availability, running/completed/waiting job sections, the
//! scratchpad, the multiobjective instructions, and the output-format
//! contract. The emitted grammar is exactly what
//! [`rsched_llm::prompt_parse`] reads — round-tripped in tests on both
//! sides.
//!
//! A prompt is assembled in place by a builder the agent keeps: the history
//! is the scratchpad's, borrowed; the head is written every query and the
//! objectives tail when the capacity changes. Between two queries a running
//! job's line does not change and a waiting job's changes only in `waiting
//! N s`, so a *line store* keeps the last prompt's job lines (a waiting
//! one through `waiting `) and the fields each was written from, walked by
//! a cursor (jobs keep their order). A line whose job and fields are
//! unchanged is copied from it; any other is formatted. A fresh builder
//! formats everything: that is [`PromptBuilder::render`].

use std::fmt::Write as _;

use rsched_cluster::JobSpec;
use rsched_llm::backend::Prompt;
use rsched_sim::{RunningSummary, SystemView};

use crate::scratchpad::Scratchpad;

/// Renders prompts for the ReAct agent (see the module documentation).
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    /// The sections before the history, and after it for `capacity`.
    head: String,
    tail: String,
    capacity: Option<(u32, u64)>,
    /// The line store: the last prompt's job lines back to back, an entry
    /// each in prompt order, and how many the next has walked past.
    store: String,
    lines: Vec<Line>,
    cursor: usize,
    /// Where the next prompt's job lines sit in its head.
    spans: Vec<(usize, usize)>,
}

/// One job line of the store: the job and fields it was written from (see
/// [`running`] and [`waiting`]), and where its bytes sit.
#[derive(Debug, Clone, Copy)]
struct Line {
    job: [u64; 6],
    at: usize,
    len: usize,
}

/// Sets a running job's line apart from a waiting job's of the same id.
const RUNNING: u64 = 1 << 32;

/// How far past its cursor the store looks for a job's line: room for the
/// jobs that left between two prompts at one spot of the order. A line
/// further off is formatted anew.
const WINDOW: usize = 8;

impl PromptBuilder {
    /// Render the full prompt for one decision epoch into a new string: what
    /// a builder that has rendered nothing yet gives.
    pub fn render(view: &SystemView<'_>, scratchpad: &Scratchpad) -> String {
        Self::default().prompt(view, scratchpad).to_string()
    }

    /// The prompt for one decision epoch, in parts: the builder's buffers
    /// hold the sections before and after the history, and the history is
    /// the scratchpad's. Reads entirely through the view's borrows — nothing
    /// is cloned — and formats only what the line store does not hold.
    pub fn prompt<'a>(&'a mut self, view: &SystemView<'_>, pad: &'a Scratchpad) -> Prompt<'a> {
        self.cursor = 0;
        self.spans.clear();
        let p = &mut self.head;
        p.clear();
        p.push_str(
            "You are an expert HPC resource manager, and your task is to schedule jobs \
             in a high-performance computing (HPC) environment. Use the current system \
             state, job queue, scratchpad (decision history), and fairness indicators \
             to make well-balanced decisions.\n\n",
        );
        let _ = writeln!(
            p,
            "System capacity: {} nodes, {} GB memory",
            view.config.nodes, view.config.memory_gb
        );
        let _ = writeln!(p, "Current time: {}", view.now.as_secs());
        let _ = writeln!(p, "Available Nodes: {}", view.free_nodes);
        let _ = writeln!(p, "Available Memory: {} GB\n", view.free_memory_gb);

        p.push_str("Running Jobs:\n");
        if view.running.is_empty() {
            p.push_str("None\n");
        }
        for r in view.running {
            self.job_line(running(r), |p, [id, user, nodes, mem, start, end]| {
                let _ = writeln!(
                    p,
                    "- Job {id}: user_{user}, {nodes} nodes, {mem} GB, started t={start}, \
                     expected end t={end}"
                );
            });
        }
        let p = &mut self.head;
        // A count — the view holds no completed records.
        let _ = writeln!(
            p,
            "\nCompleted Jobs: {} of {} total jobs; {} not yet submitted\n",
            view.completed, view.total_jobs, view.pending_arrivals
        );

        p.push_str("Waiting Jobs (eligible to schedule):\n");
        if view.waiting.is_empty() {
            p.push_str("None\n");
        }
        for j in view.waiting {
            self.job_line(waiting(j), |p, [id, user, nodes, mem, walltime, submit]| {
                let _ = write!(
                    p,
                    "- Job {id}: user_{user}, {nodes} nodes, {mem} GB, walltime {walltime} s, \
                     submitted t={submit}, waiting "
                );
            });
            let _ = writeln!(self.head, "{} s", view.wait_so_far(j).as_secs());
        }
        self.head.push_str("\n# Scratchpad (Decision History)\n");
        self.keep_lines(view);

        let (nodes, memory_gb) = (view.config.nodes, view.config.memory_gb);
        if self.capacity != Some((nodes, memory_gb)) {
            self.capacity = Some((nodes, memory_gb));
            self.tail.clear();
            let _ = writeln!(
                self.tail,
                "\nYour scheduling objectives are:\n\
                 You must balance all of the following:\n\
                 - Fairness: Minimize variance in user wait times. Avoid starving any user.\n\
                 - Makespan: Minimize total time to finish all jobs.\n\
                 - Utilization: Maximize Node & memory usage over time (avoid idle resources).\n\
                 - Throughput: Maximize the number of jobs completed per unit time.\n\
                 - Feasibility: Do not exceed {nodes} Nodes or {memory_gb} GB memory at any time.\n\n\
                 Trade-offs are allowed. Do not over-optimize one metric at the expense of \
                 others.\n\
                 For example:\n\
                 - Prioritizing a long-waiting job improves fairness, but may slightly hurt \
                 makespan.\n\
                 - Choosing short jobs improves throughput, but may increase wait time for \
                 large jobs.\n\n\
                 Decide:\n\
                 (1) Which job should be started now (if any)?\n\
                 (2) Justify your decision in thought.\n\
                 (3) Return only one of:\n\
                 - StartJob(job_id=X)\n\
                 - BackfillJob(job_id=Y)\n\
                 - Delay\n\
                 - Stop (when all jobs have been scheduled)\n\n\
                 Output format:\n\
                 Thought: <your reasoning>\n\
                 Action: <your action>"
            );
        }
        pad.prompt(&self.head, &self.tail)
    }

    /// Write the line of `job` to the head: from the store if the last
    /// prompt wrote it from the same fields, else by `render`.
    fn job_line(&mut self, job: [u64; 6], render: impl FnOnce(&mut String, [u64; 6])) {
        let at = self.head.len();
        let ahead = &self.lines[self.cursor..];
        match ahead.iter().take(WINDOW).position(|line| line.job == job) {
            Some(i) => {
                let line = ahead[i];
                self.head.push_str(&self.store[line.at..][..line.len]);
                self.cursor += i + 1;
            }
            None => {
                let mut fields = job;
                fields[0] &= !RUNNING;
                render(&mut self.head, fields);
            }
        }
        self.spans.push((at, self.head.len() - at));
    }

    /// Refill the store from the head just written, job by job.
    fn keep_lines(&mut self, view: &SystemView<'_>) {
        let jobs = view.running.iter().map(running);
        let jobs = jobs.chain(view.waiting.iter().map(waiting));
        self.lines.clear();
        self.store.clear();
        for (job, &(from, len)) in jobs.zip(&self.spans) {
            let at = self.store.len();
            self.store.push_str(&self.head[from..][..len]);
            self.lines.push(Line { job, at, len });
        }
    }
}

/// A running job's id plus [`RUNNING`], then the fields its line renders.
fn running(r: RunningSummary) -> [u64; 6] {
    [
        u64::from(r.id.0) | RUNNING,
        r.user.0.into(),
        r.nodes.into(),
        r.memory_gb,
        r.start.as_secs(),
        r.expected_end.as_secs(),
    ]
}

/// The fields a waiting job's line renders before its seconds.
fn waiting(j: &JobSpec) -> [u64; 6] {
    [
        j.id.0.into(),
        j.user.0.into(),
        j.nodes.into(),
        j.memory_gb,
        j.walltime.as_secs(),
        j.submit.as_secs(),
    ]
}

#[cfg(test)]
impl PromptBuilder {
    /// Entries in the line store, job lines in the last prompt, and the
    /// heap bytes the builder holds.
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        use std::mem::size_of;
        let job_lines = self
            .head
            .lines()
            .filter(|l| l.starts_with("- Job "))
            .count();
        let bytes = self.head.capacity()
            + self.tail.capacity()
            + self.store.capacity()
            + self.lines.capacity() * size_of::<Line>()
            + self.spans.capacity() * size_of::<(usize, usize)>();
        (self.lines.len(), job_lines, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec, UserId};
    use rsched_llm::prompt_parse::parse_prompt;
    use rsched_sim::RunningSummary;
    use rsched_simkit::{SimDuration, SimTime};

    /// Owns the collections the borrowed view points into.
    struct Fixture {
        waiting: Vec<JobSpec>,
        running: Vec<RunningSummary>,
    }

    fn fixture() -> Fixture {
        Fixture {
            waiting: vec![
                JobSpec::new(32, 6, SimTime::ZERO, SimDuration::from_secs(147), 200, 8),
                JobSpec::new(
                    40,
                    1,
                    SimTime::from_secs(100),
                    SimDuration::from_secs(63),
                    4,
                    4,
                ),
            ],
            running: vec![RunningSummary {
                id: JobId(46),
                user: UserId(3),
                nodes: 18,
                memory_gb: 1472,
                start: SimTime::ZERO,
                submit: SimTime::ZERO,
                expected_end: SimTime::from_secs(10_000),
                class: None,
            }],
        }
    }

    impl Fixture {
        fn view(&self) -> SystemView<'_> {
            SystemView {
                now: SimTime::from_secs(1554),
                config: ClusterConfig::paper_default(),
                free_nodes: 238,
                free_memory_gb: 576,
                free_by_class: [0; rsched_cluster::MAX_CLASSES],
                waiting: self.waiting.as_slice().into(),
                running: self.running.as_slice().into(),
                completed: 1,
                pending_arrivals: 3,
                total_jobs: 80,
                telemetry: None,
                queue: None,
            }
        }
    }

    #[test]
    fn prompt_contains_paper_sections() {
        let f = fixture();
        let text = PromptBuilder::render(&f.view(), &Scratchpad::default());
        for section in [
            "You are an expert HPC resource manager",
            "System capacity: 256 nodes, 2048 GB memory",
            "Current time: 1554",
            "Available Nodes: 238",
            "Available Memory: 576 GB",
            "Running Jobs:",
            "Waiting Jobs (eligible to schedule):",
            "# Scratchpad (Decision History)",
            "(nothing yet)",
            "Your scheduling objectives are:",
            "- Fairness: Minimize variance in user wait times",
            "- Feasibility: Do not exceed 256 Nodes or 2048 GB memory",
            "StartJob(job_id=X)",
            "Output format:",
            "Thought: <your reasoning>",
        ] {
            assert!(text.contains(section), "missing `{section}`");
        }
    }

    #[test]
    fn round_trips_through_the_llm_parser() {
        let mut pad = Scratchpad::default();
        pad.push_thought(0, "start the short job");
        pad.push_action(0, "StartJob(job_id=46)");
        pad.push_feedback(1554, "job 32 cannot be started — requires 256 Nodes");
        let f = fixture();
        let text = PromptBuilder::render(&f.view(), &pad);
        let parsed = parse_prompt(&text).expect("llm parser accepts builder output");
        assert_eq!(parsed.now_secs, 1554);
        assert_eq!(parsed.capacity_nodes, 256);
        assert_eq!(parsed.capacity_memory_gb, 2048);
        assert_eq!(parsed.available_nodes, 238);
        assert_eq!(parsed.available_memory_gb, 576);
        assert_eq!(parsed.running.len(), 1);
        assert_eq!(parsed.running[0].id, 46);
        assert_eq!(parsed.running[0].user, 3);
        assert_eq!(parsed.running[0].expected_end_secs, 10_000);
        assert_eq!(parsed.waiting.len(), 2);
        assert_eq!(parsed.waiting[0].id, 32);
        assert_eq!(parsed.waiting[0].user, 6);
        assert_eq!(parsed.waiting[0].walltime_secs, 147);
        assert_eq!(parsed.waiting[1].id, 40);
        assert_eq!(parsed.waiting[1].waiting_secs, 1454);
        assert_eq!(parsed.completed, 1);
        assert_eq!(parsed.total_jobs, 80);
        assert_eq!(parsed.pending_arrivals, 3);
        assert_eq!(parsed.feedback.len(), 1);
        assert_eq!(parsed.feedback[0].0, 1554);
    }

    #[test]
    fn empty_sections_render_none() {
        let mut f = fixture();
        f.waiting.clear();
        f.running.clear();
        let text = PromptBuilder::render(&f.view(), &Scratchpad::default());
        let parsed = parse_prompt(&text).expect("parses");
        assert!(parsed.running.is_empty());
        assert!(parsed.waiting.is_empty());
        assert_eq!(text.matches("None").count(), 2);
    }
}
