//! Rendering the system state into the paper's prompt (§3.4).
//!
//! The template follows the paper's published prompt: role preamble, system
//! capacity and availability, running/completed/waiting job sections, the
//! scratchpad, the multiobjective instructions, and the output-format
//! contract. The emitted grammar is exactly what
//! [`rsched_llm::prompt_parse`] reads — round-tripped in tests on both
//! sides.

use std::fmt::Write as _;

use rsched_sim::SystemView;

use crate::scratchpad::Scratchpad;

/// Renders prompts for the ReAct agent.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder;

impl PromptBuilder {
    /// Render the full prompt for one decision epoch into a new string.
    pub fn render(view: &SystemView<'_>, scratchpad: &Scratchpad) -> String {
        let mut p = String::new();
        Self::render_into(&mut p, view, scratchpad);
        p
    }

    /// Replace the contents of `p` with the full prompt for one decision
    /// epoch, so a caller that asks every epoch can keep one buffer. Reads
    /// entirely through the view's borrows — nothing is cloned.
    pub fn render_into(p: &mut String, view: &SystemView<'_>, scratchpad: &Scratchpad) {
        p.clear();
        let _ = writeln!(
            p,
            "You are an expert HPC resource manager, and your task is to schedule jobs \
             in a high-performance computing (HPC) environment. Use the current system \
             state, job queue, scratchpad (decision history), and fairness indicators \
             to make well-balanced decisions.\n"
        );
        let _ = writeln!(
            p,
            "System capacity: {} nodes, {} GB memory",
            view.config.nodes, view.config.memory_gb
        );
        let _ = writeln!(p, "Current time: {}", view.now.as_secs());
        let _ = writeln!(p, "Available Nodes: {}", view.free_nodes);
        let _ = writeln!(p, "Available Memory: {} GB\n", view.free_memory_gb);

        let _ = writeln!(p, "Running Jobs:");
        if view.running.is_empty() {
            let _ = writeln!(p, "None");
        } else {
            for r in view.running {
                let _ = writeln!(
                    p,
                    "- Job {}: user_{}, {} nodes, {} GB, started t={}, expected end t={}",
                    r.id,
                    r.user.0,
                    r.nodes,
                    r.memory_gb,
                    r.start.as_secs(),
                    r.expected_end.as_secs()
                );
            }
        }
        // The O(1) aggregate — rendering never walks the completed slice.
        let _ = writeln!(
            p,
            "\nCompleted Jobs: {} of {} total jobs; {} not yet submitted\n",
            view.completed_stats.count, view.total_jobs, view.pending_arrivals
        );

        let _ = writeln!(p, "Waiting Jobs (eligible to schedule):");
        if view.waiting.is_empty() {
            let _ = writeln!(p, "None");
        } else {
            for j in view.waiting {
                let _ = writeln!(
                    p,
                    "- Job {}: user_{}, {} nodes, {} GB, walltime {} s, submitted t={}, waiting {} s",
                    j.id,
                    j.user.0,
                    j.nodes,
                    j.memory_gb,
                    j.walltime.as_secs(),
                    j.submit.as_secs(),
                    view.wait_so_far(j).as_secs()
                );
            }
        }

        let _ = writeln!(p, "\n# Scratchpad (Decision History)");
        scratchpad.write_lines(p);

        let _ = writeln!(
            p,
            "\nYour scheduling objectives are:\n\
             You must balance all of the following:\n\
             - Fairness: Minimize variance in user wait times. Avoid starving any user.\n\
             - Makespan: Minimize total time to finish all jobs.\n\
             - Utilization: Maximize Node & memory usage over time (avoid idle resources).\n\
             - Throughput: Maximize the number of jobs completed per unit time.\n\
             - Feasibility: Do not exceed {} Nodes or {} GB memory at any time.\n\n\
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
             Action: <your action>",
            view.config.nodes, view.config.memory_gb
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, CompletedStats, JobId, JobRecord, JobSpec, UserId};
    use rsched_llm::prompt_parse::parse_prompt;
    use rsched_sim::RunningSummary;
    use rsched_simkit::{SimDuration, SimTime};

    /// Owns the collections the borrowed view points into.
    struct Fixture {
        waiting: Vec<JobSpec>,
        running: Vec<RunningSummary>,
        completed: Vec<JobRecord>,
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
            completed: vec![JobRecord::new(
                JobSpec::new(7, 0, SimTime::ZERO, SimDuration::from_secs(10), 1, 1),
                SimTime::ZERO,
            )],
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
                waiting: &self.waiting,
                running: &self.running,
                completed: &self.completed,
                completed_stats: CompletedStats::from_records(&self.completed),
                pending_arrivals: 3,
                total_jobs: 80,
                calendar: None,
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
