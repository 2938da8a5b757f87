//! Shortest Job First.

use rsched_sim::{Action, DelayReason, SchedulingPolicy, SystemView};

/// SJF: among the waiting jobs that fit right now, start the one with the
/// shortest *estimated* runtime (walltime). Reduces turnaround at the cost
/// of starving long jobs — the fairness trade-off the paper calls out.
#[derive(Debug, Clone, Default)]
pub struct Sjf {
    /// Why the most recent `decide` returned [`Action::Delay`]; harvested
    /// by the kernel through [`SchedulingPolicy::provenance`].
    last_delay: Option<DelayReason>,
}

impl Sjf {
    /// A fresh SJF policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulingPolicy for Sjf {
    fn name(&self) -> &str {
        "SJF"
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        self.last_delay = None;
        if view.all_jobs_started() {
            return Action::Stop;
        }
        match view.shortest_eligible() {
            Some(id) => Action::StartJob(id),
            None => {
                self.last_delay = Some(if view.waiting.is_empty() {
                    DelayReason::QueueEmpty
                } else {
                    DelayReason::NoFitNow
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
        run_simulation(
            ClusterConfig::new(8, 64),
            jobs,
            &mut Sjf::default(),
            &SimOptions::default(),
        )
        .expect("completes")
    }

    #[test]
    fn shortest_job_starts_first() {
        // Machine fits one job at a time; three jobs of different length.
        let jobs = vec![spec(0, 0, 300, 8), spec(1, 0, 10, 8), spec(2, 0, 100, 8)];
        let out = run(&jobs);
        let order: Vec<JobId> = {
            let mut recs = out.records.clone();
            recs.sort_by_key(|r| r.start);
            recs.iter().map(|r| r.spec.id).collect()
        };
        assert_eq!(order, vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn sjf_beats_fcfs_on_average_wait_for_static_loads() {
        let jobs: Vec<JobSpec> = (0..20)
            .map(|i| spec(i, 0, 10 + (i as u64 * 97) % 500, 8))
            .collect();
        let sjf = run(&jobs);
        let fcfs = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut crate::fcfs::Fcfs::default(),
            &SimOptions::default(),
        )
        .expect("completes");
        let wait = |out: &rsched_sim::SimOutcome| -> f64 {
            out.records
                .iter()
                .map(|r| r.wait().as_secs_f64())
                .sum::<f64>()
                / out.records.len() as f64
        };
        assert!(
            wait(&sjf) <= wait(&fcfs),
            "SJF avg wait {} should not exceed FCFS {}",
            wait(&sjf),
            wait(&fcfs)
        );
    }

    #[test]
    fn long_jobs_are_starved_while_short_ones_flow() {
        // One long job and a stream of short ones that keep arriving
        // before the machine frees fully.
        let mut jobs = vec![spec(0, 0, 50, 8)];
        for i in 1..10 {
            jobs.push(spec(i, 0, 5, 8));
        }
        let out = run(&jobs);
        let long = out.records.iter().find(|r| r.spec.id == JobId(0)).unwrap();
        // All nine short jobs (45 s total) run before the 50 s job.
        assert_eq!(long.start, SimTime::from_secs(45));
    }

    #[test]
    fn skips_blocked_head_unlike_fcfs() {
        let jobs = vec![
            spec(0, 0, 100, 7),  // running first, leaves one node free
            spec(1, 5, 1000, 8), // long head, blocked
            spec(2, 6, 10, 1),   // small job SJF happily starts
        ];
        let out = run(&jobs);
        let small = out.records.iter().find(|r| r.spec.id == JobId(2)).unwrap();
        assert_eq!(small.start, SimTime::from_secs(6), "no convoy under SJF");
    }
}
