//! FCFS with EASY backfilling — an ablation baseline.
//!
//! Not part of the paper's comparison set, but essential for interpreting
//! it: the LLM agent's biggest wins come from backfilling around blocked
//! heads, and this policy isolates exactly that mechanism without any
//! multiobjective reasoning.

use rsched_sim::{Action, CapacityCalendar, DelayReason, SchedulingPolicy, SystemView};

/// FCFS head-first; when the head is blocked, backfill the first (arrival
/// order) waiting job that fits now and does not move the head's
/// reservation: the head's shadow start and the level free at it are read
/// off the estimated capacity calendar at `now` — the one
/// [`ConservativeBackfill`](crate::ConservativeBackfill) plans over, and
/// the only future a scheduler may know — and a candidate must end by the
/// shadow or fit beside the head there
/// ([`HeadReservation::admits`](rsched_sim::HeadReservation::admits)).
/// Every pick is safe by that rule before it is proposed, so the policy
/// needs no veto from the kernel and keeps no memory between queries.
///
/// The [`sjbf`](EasyBackfill::sjbf) variant orders backfill candidates by
/// shortest requested walltime first (SJBF) instead of arrival order — the
/// classic walltime-estimate-aware refinement.
#[derive(Debug, Clone, Default)]
pub struct EasyBackfill {
    /// Order backfill candidates by shortest walltime instead of arrival.
    shortest_first: bool,
    /// Reusable buffer the estimated calendar is rebuilt into whenever the
    /// head is blocked, so steady state allocates nothing.
    calendar: CapacityCalendar,
    /// Why the most recent `decide` returned [`Action::Delay`]; harvested
    /// by the kernel through [`SchedulingPolicy::provenance`].
    last_delay: Option<DelayReason>,
}

impl EasyBackfill {
    /// A fresh policy with arrival-order backfilling.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shortest-job-backfilled-first variant (`EASY-SJBF`).
    pub fn sjbf() -> Self {
        EasyBackfill {
            shortest_first: true,
            ..Self::default()
        }
    }
}

impl SchedulingPolicy for EasyBackfill {
    fn name(&self) -> &str {
        if self.shortest_first {
            "EASY-SJBF"
        } else {
            "EASY"
        }
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        self.last_delay = None;
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let Some(head) = view.head_of_queue() else {
            self.last_delay = Some(DelayReason::QueueEmpty);
            return Action::Delay;
        };
        if view.fits_now(head) {
            return Action::StartJob(head.id);
        }
        // Head blocked: reserve its shadow start, then take the first safe
        // candidate behind it in arrival order (or the shortest under
        // SJBF).
        view.capacity_calendar(&mut self.calendar);
        let reservation =
            self.calendar
                .head_reservation(&view.config.topology, view.free_by_class, head);
        let pick = if self.shortest_first {
            // A minimum over walltime: no queue order answers it.
            let safe = view.eligible_now().filter(|j| reservation.admits(j));
            safe.min_by_key(|j| (j.walltime, j.submit, j.id))
                .map(|j| j.id)
        } else {
            view.first_admitted(&reservation)
        };
        match pick {
            Some(id) => Action::BackfillJob(id),
            None => {
                // The kernel asks only while something fits now, so
                // candidates existed and the reservation turned each down.
                self.last_delay = Some(DelayReason::HeadShadowVeto {
                    head: head.id,
                    shadow: reservation.shadow(),
                });
                Action::Delay
            }
        }
    }

    fn provenance(&mut self) -> Option<DelayReason> {
        self.last_delay.take()
    }

    fn reset(&mut self) {
        self.last_delay = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::{ClusterConfig, JobId, JobSpec};
    use rsched_sim::{run_simulation, SimOptions};
    use rsched_simkit::{SimDuration, SimTime};

    fn spec(id: u32, submit_s: u64, dur_s: u64, nodes: u32) -> JobSpec {
        JobSpec::new(
            id,
            id % 3,
            SimTime::from_secs(submit_s),
            SimDuration::from_secs(dur_s),
            nodes,
            1,
        )
    }

    fn run(jobs: &[JobSpec]) -> rsched_sim::SimOutcome {
        run_with(jobs, EasyBackfill::new())
    }

    /// Default options: the kernel checks fit only, the reservation is the
    /// policy's.
    fn run_with(jobs: &[JobSpec], mut policy: EasyBackfill) -> rsched_sim::SimOutcome {
        run_simulation(
            ClusterConfig::new(8, 64),
            jobs,
            &mut policy,
            &SimOptions::default(),
        )
        .expect("completes")
    }

    fn start(out: &rsched_sim::SimOutcome, id: u32) -> SimTime {
        let record = out.records.iter().find(|r| r.spec.id == JobId(id));
        record.expect("ran").start
    }

    #[test]
    fn backfills_small_jobs_around_blocked_head() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, leaves 2 nodes
            spec(1, 5, 1000, 8), // head, blocked until t=100
            spec(2, 6, 10, 1),   // backfill candidate (ends t<=100: safe)
        ];
        let out = run(&jobs);
        assert_eq!(start(&out, 2), SimTime::from_secs(6), "EASY backfills");
        assert!(out.stats.backfills >= 1);
    }

    #[test]
    fn unsafe_backfill_is_never_proposed() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, 2 nodes free
            spec(1, 5, 50, 8),   // head blocked until t=100
            spec(2, 6, 1000, 2), // would overlap shadow & steal nodes: unsafe
            spec(3, 7, 10, 1),   // safe alternative
        ];
        let out = run(&jobs);
        // Job 2 (2 nodes, very long) would leave only 6 free at shadow time
        // t=100 where head needs 8; job 3 backfills instead, and nobody
        // had to refuse anything.
        assert_eq!(start(&out, 3), SimTime::from_secs(7));
        assert_eq!(start(&out, 1), SimTime::from_secs(100), "head on time");
        assert!(start(&out, 2) >= SimTime::from_secs(100));
        assert_eq!(out.stats.rejections, 0);
    }

    #[test]
    fn a_long_candidate_backfills_when_it_fits_beside_the_head() {
        let jobs = vec![
            spec(0, 0, 100, 6),  // running, 2 nodes free
            spec(1, 5, 50, 6),   // head blocked until t=100, 2 nodes to spare
            spec(2, 6, 1000, 2), // outlasts the shadow, fits the spare
        ];
        let out = run(&jobs);
        assert_eq!(start(&out, 2), SimTime::from_secs(6));
        assert_eq!(start(&out, 1), SimTime::from_secs(100), "head on time");
    }

    #[test]
    fn sjbf_prefers_the_shortest_backfill_candidate() {
        let jobs = vec![
            spec(0, 0, 100, 6), // running, 2 nodes free
            spec(1, 5, 50, 8),  // head blocked until t=100
            spec(2, 6, 80, 1),  // arrival-order pick (safe: ends t=86)
            spec(3, 6, 10, 1),  // same arrival, shortest — SJBF's pick
        ];
        let arrival = run(&jobs);
        let sjbf = run_with(&jobs, EasyBackfill::sjbf());
        // Both candidates fit side by side and end up backfilled at t=6;
        // what differs is which one each variant proposes first.
        let first_backfill = |o: &rsched_sim::SimOutcome| {
            o.decisions
                .iter()
                .find_map(|d| match d.action {
                    Action::BackfillJob(id) => Some(id),
                    _ => None,
                })
                .expect("backfilled")
        };
        assert_eq!(first_backfill(&arrival), JobId(2));
        assert_eq!(first_backfill(&sjbf), JobId(3));
        for out in [&arrival, &sjbf] {
            for id in [2u32, 3] {
                assert_eq!(start(out, id), SimTime::from_secs(6), "job {id}");
            }
        }
    }

    #[test]
    fn behaves_like_fcfs_when_no_backfill_possible() {
        let jobs = vec![spec(0, 0, 50, 8), spec(1, 1, 20, 8), spec(2, 2, 20, 8)];
        let easy = run(&jobs);
        let fcfs = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut crate::fcfs::Fcfs::default(),
            &SimOptions::default(),
        )
        .expect("completes");
        let starts = |o: &rsched_sim::SimOutcome| {
            let mut v: Vec<(JobId, u64)> = o
                .records
                .iter()
                .map(|r| (r.spec.id, r.start.as_secs()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(starts(&easy), starts(&fcfs));
    }
}
