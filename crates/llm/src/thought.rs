//! Natural-language reasoning generation.
//!
//! The paper's central interpretability claim is that "all scheduling
//! decisions are made through text-based reasoning, providing full
//! visibility into the model's thought process" (§3.4). The simulated
//! personas honour that: every action ships with a thought that explains
//! the actual score breakdown that produced it, phrased in the register of
//! the paper's Figure 2 traces.

use std::fmt::Write as _;

use crate::persona::ThoughtStyle;
use crate::prompt_parse::ParsedPrompt;
use crate::reasoner::{Deliberation, Rationale, ReasonedAction};

/// Render the thought text for one deliberation.
pub(crate) fn render_thought(
    prompt: &ParsedPrompt,
    deliberation: &Deliberation,
    style: ThoughtStyle,
) -> String {
    match &deliberation.rationale {
        Rationale::Picked {
            chosen,
            backfill,
            scores,
            head_id,
            head_fits,
        } => picked_thought(
            prompt, *chosen, *backfill, scores, *head_id, *head_fits, style,
        ),
        Rationale::NothingFits {
            next_completion_secs,
            waiting,
        } => nothing_fits_thought(prompt, *next_completion_secs, *waiting),
        Rationale::AwaitingArrivals { pending } => {
            format!(
                "The waiting queue is empty but {pending} job(s) have not yet been \
                 submitted. With {free_n} nodes and {free_m} GB free there is nothing \
                 to schedule; the right move is to wait for the next arrival.",
                free_n = prompt.available_nodes,
                free_m = prompt.available_memory_gb,
            )
        }
        Rationale::AllScheduled { still_running } => all_scheduled_thought(prompt, *still_running),
    }
}

#[allow(clippy::too_many_arguments)]
fn picked_thought(
    prompt: &ParsedPrompt,
    chosen: u32,
    backfill: bool,
    scores: &[crate::reasoner::JobScore],
    head_id: u32,
    head_fits: bool,
    style: ThoughtStyle,
) -> String {
    let winner = &scores[0];
    let job = prompt
        .waiting
        .iter()
        .find(|j| j.id == chosen)
        .expect("chosen job is in the waiting queue");
    let mut t = String::new();

    if style == ThoughtStyle::Deliberative {
        let _ = write!(
            t,
            "I need to analyze the current system state and job queue to make an \
             optimal scheduling decision. At t={}, {} of {} nodes and {} of {} GB \
             are available, with {} job(s) running and {} waiting. Let me consider \
             several scheduling strategies. ",
            prompt.now_secs,
            prompt.available_nodes,
            prompt.capacity_nodes,
            prompt.available_memory_gb,
            prompt.capacity_memory_gb,
            prompt.running.len(),
            prompt.waiting.len(),
        );
        // Walk the top candidates like O4-Mini's long chains do.
        for s in scores.iter().take(3) {
            if let Some(j) = prompt.waiting.iter().find(|j| j.id == s.id) {
                let _ = write!(
                    t,
                    "Job {} ({} nodes, {} GB, walltime={} s) scores fairness {:.2}, \
                     throughput {:.2}, packing {:.2}, makespan {:.2}. ",
                    s.id,
                    j.nodes,
                    j.memory_gb,
                    j.walltime_secs,
                    s.fairness,
                    s.throughput,
                    s.packing,
                    s.makespan,
                );
            }
        }
    } else {
        let _ = write!(
            t,
            "At t={} there are {} free nodes and {} GB free memory with {} eligible \
             job(s). ",
            prompt.now_secs,
            prompt.available_nodes,
            prompt.available_memory_gb,
            scores.len(),
        );
    }

    // The dominant objective is the largest weighted contributor.
    let dominant = dominant_objective(winner);
    let _ = write!(
        t,
        "Job {} ({} nodes, {} GB, walltime={} s, {}) is the best balance: {}",
        chosen,
        job.nodes,
        job.memory_gb,
        job.walltime_secs,
        format_args!("user_{}", job.user),
        dominant,
    );

    if backfill {
        let _ = write!(
            t,
            " Head-of-queue job {head_id} does not fit the current free resources, \
             so starting job {chosen} opportunistically keeps the system busy without \
             delaying the head's reserved start."
        );
    } else if !head_fits && chosen == head_id {
        let _ = write!(t, " It is also the head of the queue.");
    }
    t
}

fn dominant_objective(score: &crate::reasoner::JobScore) -> &'static str {
    let components = [
        (
            score.fairness,
            "it has been waiting longest, so starting it minimizes variance in user wait times",
        ),
        (
            score.throughput,
            "it completes quickly, improving the number of jobs finished per unit time",
        ),
        (
            score.packing,
            "it makes efficient use of the free nodes and memory, avoiding idle resources",
        ),
        (
            score.makespan,
            "getting this long job started early shortens the total time to finish all jobs",
        ),
    ];
    components
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        .expect("non-empty")
        .1
}

fn nothing_fits_thought(
    prompt: &ParsedPrompt,
    next_completion_secs: Option<u64>,
    waiting: usize,
) -> String {
    let mut t = format!(
        "All {} eligible job(s) currently require more nodes or memory than is \
         available ({} nodes, {} GB free).",
        waiting, prompt.available_nodes, prompt.available_memory_gb,
    );
    if let Some(end) = next_completion_secs {
        let releasing = prompt
            .running
            .iter()
            .filter(|r| r.expected_end_secs == end)
            .map(|r| r.id)
            .next();
        match releasing {
            Some(id) => {
                let _ = write!(
                    t,
                    " The next likely completion is Job {id} (ends at t={end}), which \
                     will release its resources. Since I cannot start any new jobs now, \
                     I should wait until then."
                );
            }
            None => {
                let _ = write!(t, " The next completion is expected at t={end}.");
            }
        }
    }
    t
}

fn all_scheduled_thought(prompt: &ParsedPrompt, still_running: usize) -> String {
    let mut t = format!(
        "Reviewing the decision history, all {} jobs have been scheduled already \
         ({} completed).",
        prompt.total_jobs, prompt.completed,
    );
    if still_running > 0 {
        let last = prompt
            .running
            .iter()
            .map(|r| r.id)
            .max()
            .expect("running non-empty");
        let _ = write!(
            t,
            " Job {last} and {n} other running job(s) will complete on their own. \
             Since there are no more jobs to schedule and all jobs have been assigned \
             a start time, the appropriate action is to stop the scheduling process.",
            n = still_running - 1,
        );
    } else {
        let _ = write!(t, " Nothing is running; the schedule is complete.");
    }
    t
}

/// Assemble the final completion text in the paper's output format.
pub(crate) fn render_completion(thought: &str, action: ReasonedAction) -> String {
    let action_text = match action {
        ReasonedAction::Start(id) => format!("StartJob(job_id={id})"),
        ReasonedAction::Backfill(id) => format!("BackfillJob(job_id={id})"),
        ReasonedAction::Delay => "Delay".to_string(),
        ReasonedAction::Stop => "Stop".to_string(),
    };
    format!("Thought: {thought}\nAction: {action_text}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::ObjectiveWeights;
    use crate::prompt_parse::{ParsedRunningJob, ParsedWaitingJob};
    use crate::reasoner::deliberate;
    use rsched_simkit::rng::Xoshiro256PlusPlus;

    fn prompt_with_queue() -> ParsedPrompt {
        ParsedPrompt {
            now_secs: 0,
            capacity_nodes: 256,
            capacity_memory_gb: 2048,
            available_nodes: 256,
            available_memory_gb: 2048,
            running: vec![],
            waiting: vec![
                ParsedWaitingJob {
                    id: 9,
                    user: 2,
                    nodes: 256,
                    memory_gb: 2,
                    walltime_secs: 2,
                    submitted_secs: 0,
                    waiting_secs: 0,
                },
                ParsedWaitingJob {
                    id: 7,
                    user: 3,
                    nodes: 256,
                    memory_gb: 2048,
                    walltime_secs: 480,
                    submitted_secs: 0,
                    waiting_secs: 0,
                },
            ],
            completed: 0,
            total_jobs: 10,
            pending_arrivals: 0,
            feedback: vec![],
        }
    }

    #[test]
    fn picked_thought_mentions_job_and_reason() {
        let p = prompt_with_queue();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng);
        let text = render_thought(&p, &d, ThoughtStyle::Concise);
        if let ReasonedAction::Start(id) | ReasonedAction::Backfill(id) = d.action {
            assert!(text.contains(&format!("Job {id}")), "{text}");
        } else {
            panic!("expected a pick, got {:?}", d.action);
        }
        assert!(text.contains("free nodes"), "{text}");
    }

    #[test]
    fn deliberative_style_is_longer_and_walks_candidates() {
        let p = prompt_with_queue();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng);
        let concise = render_thought(&p, &d, ThoughtStyle::Concise);
        let verbose = render_thought(&p, &d, ThoughtStyle::Deliberative);
        assert!(verbose.len() > concise.len());
        assert!(verbose.contains("Let me consider several scheduling strategies"));
        assert!(verbose.contains("scores fairness"));
    }

    #[test]
    fn delay_thought_names_next_completion() {
        let p = ParsedPrompt {
            now_secs: 1554,
            capacity_nodes: 256,
            capacity_memory_gb: 2048,
            available_nodes: 0,
            available_memory_gb: 1920,
            running: vec![ParsedRunningJob {
                id: 7,
                user: 0,
                nodes: 256,
                memory_gb: 128,
                started_secs: 0,
                expected_end_secs: 1707,
            }],
            waiting: vec![ParsedWaitingJob {
                id: 32,
                user: 6,
                nodes: 256,
                memory_gb: 8,
                walltime_secs: 147,
                submitted_secs: 0,
                waiting_secs: 1554,
            }],
            completed: 3,
            total_jobs: 10,
            pending_arrivals: 0,
            feedback: vec![],
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng);
        assert_eq!(d.action, ReasonedAction::Delay);
        let text = render_thought(&p, &d, ThoughtStyle::Concise);
        assert!(text.contains("Job 7"), "{text}");
        assert!(text.contains("t=1707"), "{text}");
    }

    #[test]
    fn stop_thought_references_remaining_running_jobs() {
        let p = ParsedPrompt {
            now_secs: 9997,
            capacity_nodes: 256,
            capacity_memory_gb: 2048,
            available_nodes: 0,
            available_memory_gb: 1920,
            running: vec![ParsedRunningJob {
                id: 46,
                user: 0,
                nodes: 256,
                memory_gb: 128,
                started_secs: 0,
                expected_end_secs: 12_000,
            }],
            waiting: vec![],
            completed: 79,
            total_jobs: 80,
            pending_arrivals: 0,
            feedback: vec![],
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng);
        assert_eq!(d.action, ReasonedAction::Stop);
        let text = render_thought(&p, &d, ThoughtStyle::Concise);
        assert!(text.contains("Job 46"), "{text}");
        assert!(text.contains("stop the scheduling process"), "{text}");
    }

    #[test]
    fn completion_format_matches_paper() {
        let text = render_completion("because reasons", ReasonedAction::Backfill(40));
        assert_eq!(
            text,
            "Thought: because reasons\nAction: BackfillJob(job_id=40)"
        );
        let text = render_completion("waiting", ReasonedAction::Delay);
        assert!(text.ends_with("Action: Delay"));
    }
}
