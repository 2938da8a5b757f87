//! The multiobjective deliberation engine behind the simulated personas.
//!
//! Given a parsed prompt, the reasoner scores every *eligible* waiting job
//! (fits the free resources, not just rejected at this timestep) on the
//! four objectives the prompt asks it to balance, combines them with the
//! persona's weights, and picks an action. The per-job score breakdown is
//! kept so the thought generator can explain the decision — the decision
//! *is* the explanation, as in the paper's Figure 2 traces.

use std::cmp::Ordering;

use rsched_simkit::dist::Normal;
use rsched_simkit::rng::Rng;

use crate::persona::ObjectiveWeights;
use crate::prompt_parse::{ParsedPrompt, ParsedWaitingJob};

/// The action the reasoner settled on (the paper's §2.2 action space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReasonedAction {
    /// Start this job now.
    Start(u32),
    /// Start this job as a backfill around the blocked queue head.
    Backfill(u32),
    /// Nothing can or should run now.
    Delay,
    /// Every job has been scheduled.
    Stop,
}

/// One candidate's score breakdown.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobScore {
    /// Job id.
    pub id: u32,
    /// Owning user.
    pub user: u32,
    /// Weighted total (including any sampling noise).
    pub total: f64,
    /// Fairness component (wait-time pressure, user starvation).
    pub fairness: f64,
    /// Throughput component (short-job preference).
    pub throughput: f64,
    /// Packing component (resource-filling preference).
    pub packing: f64,
    /// Makespan component (long-job-first preference).
    pub makespan: f64,
}

/// Why the reasoner chose what it chose — consumed by the thought
/// generator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Rationale {
    /// A job was picked; scores of all candidates are attached (sorted by
    /// descending total).
    Picked {
        /// The winner's id.
        chosen: u32,
        /// Whether it goes out as a backfill.
        backfill: bool,
        /// All candidate scores, best first.
        scores: Vec<JobScore>,
        /// Id of the queue head at decision time.
        head_id: u32,
        /// Whether the head fit the free resources.
        head_fits: bool,
    },
    /// Nothing fits: wait for the next completion.
    NothingFits {
        /// Earliest expected completion among running jobs, seconds.
        next_completion_secs: Option<u64>,
        /// Number of waiting jobs that were all too large.
        waiting: usize,
    },
    /// Queue empty but arrivals pending: wait for them.
    AwaitingArrivals {
        /// Jobs still to arrive.
        pending: usize,
    },
    /// Everything has been scheduled.
    AllScheduled {
        /// Jobs still running at stop time.
        still_running: usize,
    },
}

/// A complete deliberation: the action plus its explanation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Deliberation {
    /// The chosen action.
    pub action: ReasonedAction,
    /// The reasoning behind it.
    pub(crate) rationale: Rationale,
}

/// Run one deliberation.
///
/// `temperature` adds Gaussian noise to candidate totals (0 = argmax); a
/// hair of tie-breaking noise is always added so equal-scoring candidates
/// do not depend on queue order across runs — this is the "API
/// non-determinism" the paper's robustness study (§4) exercises.
pub(crate) fn deliberate(
    prompt: &ParsedPrompt,
    weights: &ObjectiveWeights,
    temperature: f64,
    rng: &mut dyn Rng,
) -> Deliberation {
    // Jobs rejected by the constraint module at this very timestep (visible
    // as scratchpad feedback) are off the table for this query.
    let blacklisted: Vec<u32> = prompt
        .feedback
        .iter()
        .filter(|(t, _)| *t == prompt.now_secs)
        .filter_map(|(_, msg)| extract_job_id(msg))
        .collect();

    if prompt.waiting.is_empty() {
        if prompt.pending_arrivals == 0 {
            return Deliberation {
                action: ReasonedAction::Stop,
                rationale: Rationale::AllScheduled {
                    still_running: prompt.running.len(),
                },
            };
        }
        return Deliberation {
            action: ReasonedAction::Delay,
            rationale: Rationale::AwaitingArrivals {
                pending: prompt.pending_arrivals,
            },
        };
    }

    let fits = |j: &ParsedWaitingJob| {
        j.nodes <= prompt.available_nodes && j.memory_gb <= prompt.available_memory_gb
    };
    let eligible: Vec<&ParsedWaitingJob> = prompt
        .waiting
        .iter()
        .filter(|j| fits(j) && !blacklisted.contains(&j.id))
        .collect();

    if eligible.is_empty() {
        return Deliberation {
            action: ReasonedAction::Delay,
            rationale: Rationale::NothingFits {
                next_completion_secs: prompt.running.iter().map(|r| r.expected_end_secs).min(),
                waiting: prompt.waiting.len(),
            },
        };
    }

    let scores = score_candidates(prompt, &eligible, weights, temperature, rng);
    let chosen = &scores[0];

    let head = prompt
        .waiting
        .iter()
        .min_by_key(|j| (j.submitted_secs, j.id))
        .expect("waiting non-empty");
    let head_fits = fits(head) && !blacklisted.contains(&head.id);
    let backfill = chosen.id != head.id && !head_fits;

    Deliberation {
        action: if backfill {
            ReasonedAction::Backfill(chosen.id)
        } else {
            ReasonedAction::Start(chosen.id)
        },
        rationale: Rationale::Picked {
            chosen: chosen.id,
            backfill,
            scores,
            head_id: head.id,
            head_fits,
        },
    }
}

fn score_candidates(
    prompt: &ParsedPrompt,
    eligible: &[&ParsedWaitingJob],
    weights: &ObjectiveWeights,
    temperature: f64,
    rng: &mut dyn Rng,
) -> Vec<JobScore> {
    // Each at least 1 s; `eligible` is never empty.
    let max_wait = eligible.iter().map(|j| j.waiting_secs).fold(1, u64::max) as f64;
    let walltimes = || eligible.iter().map(|j| j.walltime_secs);
    let max_walltime = walltimes().fold(1, u64::max) as f64;
    let min_walltime = walltimes().fold(u64::MAX, u64::min).max(1) as f64;
    let running_users: Vec<u32> = prompt.running.iter().map(|r| r.user).collect();

    // Log-position of a walltime between the shortest and longest eligible
    // job: 0 for the shortest, 1 for the longest. Log scaling keeps
    // mid-length jobs meaningfully differentiated even when walltimes span
    // two orders of magnitude (500 s vs 50 000 s in Long-Job Dominant).
    let log_span = (max_walltime / min_walltime).ln().max(1e-9);
    let log_pos = |walltime_secs: u64| -> f64 {
        if max_walltime <= min_walltime {
            0.5
        } else {
            ((walltime_secs.max(1) as f64 / min_walltime).ln() / log_span).clamp(0.0, 1.0)
        }
    };

    let mut scores: Vec<JobScore> = eligible
        .iter()
        .map(|j| {
            let wait_pressure = j.waiting_secs as f64 / max_wait;
            let starvation_bonus = if running_users.contains(&j.user) {
                0.0
            } else {
                0.15
            };
            let fairness = wait_pressure + starvation_bonus;
            let position = log_pos(j.walltime_secs);
            let throughput = 1.0 - position;
            let packing = 0.5 * (j.nodes as f64 / prompt.available_nodes.max(1) as f64)
                + 0.5 * (j.memory_gb as f64 / prompt.available_memory_gb.max(1) as f64);
            let makespan = position;
            let noise = if temperature > 0.0 {
                temperature * Normal::standard_variate(rng)
            } else {
                0.0
            };
            let tie_break = 1e-9 * rng.unit_f64();
            let total = weights.fairness * fairness
                + weights.throughput * throughput
                + weights.packing * packing
                + weights.makespan * makespan
                + noise
                + tie_break;
            JobScore {
                id: j.id,
                user: j.user,
                total,
                fairness,
                throughput,
                packing,
                makespan,
            }
        })
        .collect();
    // Best first; a total a NaN or infinite weight or temperature made
    // non-finite ranks after every finite one, in queue order.
    scores.sort_by(|a, b| match (a.total.is_finite(), b.total.is_finite()) {
        (true, true) => b.total.partial_cmp(&a.total).unwrap_or(Ordering::Equal),
        (a_finite, b_finite) => b_finite.cmp(&a_finite),
    });
    scores
}

/// Pull the refused job's id out of a feedback message like `"Action:
/// StartJob failed (not enough resources) — Job 32 cannot be started —
/// requires …"`: the first ASCII-case-insensitive `"job "` that a number
/// follows. The `Job` of `StartJob failed` and of `(job not in queue)` is
/// followed by none and is passed over. Offsets are taken on the message's
/// own bytes, so no text can put one inside a character.
fn extract_job_id(message: &str) -> Option<u32> {
    let words = message.as_bytes().windows(4).enumerate();
    words
        .filter(|(_, word)| word.eq_ignore_ascii_case(b"job "))
        .find_map(|(at, _)| {
            let rest = &message[at + 4..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            rest[..digits].parse().ok()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt_parse::{ParsedRunningJob, ParsedWaitingJob};
    use rsched_simkit::rng::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(42)
    }

    fn waiting(
        id: u32,
        user: u32,
        nodes: u32,
        mem: u64,
        walltime: u64,
        wait: u64,
    ) -> ParsedWaitingJob {
        ParsedWaitingJob {
            id,
            user,
            nodes,
            memory_gb: mem,
            walltime_secs: walltime,
            submitted_secs: 0,
            waiting_secs: wait,
        }
    }

    fn base_prompt() -> ParsedPrompt {
        ParsedPrompt {
            now_secs: 0,
            capacity_nodes: 256,
            capacity_memory_gb: 2048,
            available_nodes: 256,
            available_memory_gb: 2048,
            running: vec![],
            waiting: vec![],
            completed: 0,
            total_jobs: 10,
            pending_arrivals: 0,
            feedback: vec![],
        }
    }

    #[test]
    fn stops_when_everything_scheduled() {
        let mut p = base_prompt();
        p.running = vec![ParsedRunningJob {
            id: 9,
            user: 0,
            nodes: 4,
            memory_gb: 8,
            started_secs: 0,
            expected_end_secs: 100,
        }];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Stop);
        assert_eq!(d.rationale, Rationale::AllScheduled { still_running: 1 });
    }

    #[test]
    fn delays_when_arrivals_pending_and_queue_empty() {
        let mut p = base_prompt();
        p.pending_arrivals = 3;
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Delay);
        assert_eq!(d.rationale, Rationale::AwaitingArrivals { pending: 3 });
    }

    #[test]
    fn delays_when_nothing_fits() {
        let mut p = base_prompt();
        p.available_nodes = 2;
        p.waiting = vec![waiting(1, 0, 64, 128, 100, 50)];
        p.running = vec![ParsedRunningJob {
            id: 7,
            user: 1,
            nodes: 254,
            memory_gb: 512,
            started_secs: 0,
            expected_end_secs: 1707,
        }];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Delay);
        assert_eq!(
            d.rationale,
            Rationale::NothingFits {
                next_completion_secs: Some(1707),
                waiting: 1
            }
        );
    }

    #[test]
    fn throughput_heavy_weights_pick_the_short_job() {
        let mut p = base_prompt();
        p.waiting = vec![waiting(1, 0, 4, 8, 10_000, 0), waiting(2, 1, 4, 8, 50, 0)];
        let w = ObjectiveWeights {
            fairness: 0.0,
            throughput: 1.0,
            packing: 0.0,
            makespan: 0.0,
        };
        let d = deliberate(&p, &w, 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Start(2));
    }

    #[test]
    fn makespan_heavy_weights_pick_the_long_job() {
        let mut p = base_prompt();
        p.waiting = vec![waiting(1, 0, 4, 8, 10_000, 0), waiting(2, 1, 4, 8, 50, 0)];
        let w = ObjectiveWeights {
            fairness: 0.0,
            throughput: 0.0,
            packing: 0.0,
            makespan: 1.0,
        };
        let d = deliberate(&p, &w, 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Start(1));
    }

    #[test]
    fn fairness_prefers_long_waiters_and_starved_users() {
        let mut p = base_prompt();
        p.running = vec![ParsedRunningJob {
            id: 5,
            user: 0,
            nodes: 1,
            memory_gb: 1,
            started_secs: 0,
            expected_end_secs: 50,
        }];
        p.waiting = vec![
            waiting(1, 0, 4, 8, 100, 500), // same user as running job
            waiting(2, 6, 4, 8, 100, 500), // starved user_6
        ];
        let w = ObjectiveWeights {
            fairness: 1.0,
            throughput: 0.0,
            packing: 0.0,
            makespan: 0.0,
        };
        let d = deliberate(&p, &w, 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Start(2), "starved user wins");
    }

    #[test]
    fn feedback_blacklists_jobs_for_this_timestep() {
        let mut p = base_prompt();
        p.now_secs = 1554;
        p.available_nodes = 238;
        p.available_memory_gb = 576;
        // Job 32 was just rejected; job 40 is the fallback.
        p.waiting = vec![
            waiting(32, 6, 200, 8, 147, 1554),
            waiting(40, 1, 4, 4, 63, 1454),
        ];
        p.feedback = vec![(
            1554,
            "job 32 cannot be started — requires 256 Nodes, 8 GB; available: 238 Nodes, 576 GB"
                .to_string(),
        )];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        match d.action {
            ReasonedAction::Start(id) | ReasonedAction::Backfill(id) => assert_eq!(id, 40),
            other => panic!("expected job 40, got {other:?}"),
        }
    }

    #[test]
    fn stale_feedback_does_not_blacklist() {
        let mut p = base_prompt();
        p.now_secs = 2000;
        p.waiting = vec![waiting(32, 6, 4, 8, 147, 2000)];
        p.feedback = vec![(1554, "job 32 cannot be started".to_string())];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Start(32));
    }

    #[test]
    fn backfill_emitted_when_head_is_blocked() {
        let mut p = base_prompt();
        p.available_nodes = 8;
        p.available_memory_gb = 64;
        // Head (earliest submit, lowest id) needs 200 nodes — blocked.
        p.waiting = vec![
            ParsedWaitingJob {
                id: 1,
                user: 0,
                nodes: 200,
                memory_gb: 512,
                walltime_secs: 1000,
                submitted_secs: 0,
                waiting_secs: 100,
            },
            ParsedWaitingJob {
                id: 40,
                user: 1,
                nodes: 4,
                memory_gb: 4,
                walltime_secs: 63,
                submitted_secs: 10,
                waiting_secs: 90,
            },
        ];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        assert_eq!(d.action, ReasonedAction::Backfill(40));
        match d.rationale {
            Rationale::Picked {
                backfill,
                head_id,
                head_fits,
                ..
            } => {
                assert!(backfill);
                assert_eq!(head_id, 1);
                assert!(!head_fits);
            }
            other => panic!("unexpected rationale {other:?}"),
        }
    }

    #[test]
    fn plain_start_when_head_fits_but_another_job_wins() {
        let mut p = base_prompt();
        p.waiting = vec![waiting(1, 0, 2, 4, 10_000, 10), waiting(2, 1, 2, 4, 50, 10)];
        let w = ObjectiveWeights {
            fairness: 0.0,
            throughput: 1.0,
            packing: 0.0,
            makespan: 0.0,
        };
        let d = deliberate(&p, &w, 0.0, &mut rng());
        // Head (job 1) fits, so picking job 2 is a plain StartJob.
        assert_eq!(d.action, ReasonedAction::Start(2));
    }

    #[test]
    fn scores_are_sorted_best_first() {
        let mut p = base_prompt();
        p.waiting = vec![
            waiting(1, 0, 2, 4, 500, 10),
            waiting(2, 1, 2, 4, 50, 10),
            waiting(3, 2, 2, 4, 5000, 10),
        ];
        let d = deliberate(&p, &ObjectiveWeights::balanced(), 0.0, &mut rng());
        if let Rationale::Picked { scores, chosen, .. } = d.rationale {
            assert_eq!(scores.len(), 3);
            assert_eq!(scores[0].id, chosen);
            for w in scores.windows(2) {
                assert!(w[0].total >= w[1].total);
            }
        } else {
            panic!("expected a pick");
        }
    }

    #[test]
    fn extract_job_id_variants() {
        assert_eq!(extract_job_id("job 32 cannot be started"), Some(32));
        assert_eq!(extract_job_id("Job 7 exceeds capacity"), Some(7));
        assert_eq!(
            extract_job_id("backfilling job 40 would delay head-of-queue job 1"),
            Some(40)
        );
        assert_eq!(extract_job_id("no identifiers here"), None);
        // As the agent writes it: the verb's own "Job " comes first.
        assert_eq!(
            extract_job_id(
                "Action: StartJob failed (not enough resources) — Job 32 cannot be started"
            ),
            Some(32)
        );
        assert_eq!(
            extract_job_id("Action: BackfillJob failed (job not in queue) — Job 7 is not"),
            Some(7)
        );
        assert_eq!(extract_job_id("job 99999999999 overflows; job 6"), Some(6));
        // `to_lowercase` lengthens İ: offsets into a lowered copy used to
        // miss ("İ job 5") or land out of range ("İİİİ job 5", a panic).
        assert_eq!(extract_job_id("İ job 5"), Some(5));
        assert_eq!(extract_job_id("İİİİ job 5"), Some(5));
        assert_eq!(extract_job_id("job"), None);
    }

    #[test]
    fn zero_temperature_is_deterministic_across_rng_states() {
        let mut p = base_prompt();
        p.waiting = vec![waiting(1, 0, 2, 4, 500, 10), waiting(2, 1, 2, 4, 50, 10)];
        // Different rng seeds, temperature 0: tie-break noise is 1e-9 scale
        // and the scores differ by much more, so the pick is stable.
        let d1 = deliberate(
            &p,
            &ObjectiveWeights::balanced(),
            0.0,
            &mut Xoshiro256PlusPlus::seed_from_u64(1),
        );
        let d2 = deliberate(
            &p,
            &ObjectiveWeights::balanced(),
            0.0,
            &mut Xoshiro256PlusPlus::seed_from_u64(999),
        );
        assert_eq!(d1.action, d2.action);
    }
}
