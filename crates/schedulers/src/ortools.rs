//! The optimization-based baseline (paper §3.3's Google OR-Tools role).
//!
//! Solves the whole workload *offline* — release times known upfront, as an
//! optimization baseline is entitled to — for minimum makespan via
//! `rsched-cpsolver`, then replays the planned order against the live
//! cluster: the next job in planned-start order starts as soon as it has
//! arrived and fits. With truthful walltimes this reproduces the planned
//! schedule exactly; with overestimated walltimes (Polaris) it can only
//! finish earlier. A cursor walks the plan: the policy proposes a start only
//! after the checks the kernel makes of it (the job is waiting and fits
//! now), so every proposal is accepted and the cursor moves on with it.
//!
//! The objective is makespan/utilization only — no fairness term — which
//! is precisely the trade-off profile the paper measures for OR-Tools
//! (top utilization, degraded wait-time fairness).

use rsched_cluster::{JobId, JobSpec};
use rsched_cpsolver::{Instance, Solver, SolverConfig, Task};
use rsched_sim::{Action, SchedulingPolicy, SystemView};

/// The offline-plan-replay policy.
pub struct OrToolsPolicy {
    jobs: Vec<JobSpec>,
    solver: Solver,
    /// Planned `(start_ms, job)` pairs, ascending.
    plan: Option<Vec<(u64, JobId)>>,
    /// The next job of the plan to start: every one before it has started.
    cursor: usize,
}

impl OrToolsPolicy {
    /// Build for a known workload with the default solver budget.
    pub fn new(jobs: &[JobSpec]) -> Self {
        Self::with_config(jobs, SolverConfig::default())
    }

    /// Build with a custom solver configuration (benchmarks shrink the
    /// budget; ablations raise it).
    pub fn with_config(jobs: &[JobSpec], config: SolverConfig) -> Self {
        OrToolsPolicy {
            jobs: jobs.to_vec(),
            solver: Solver::new(config),
            plan: None,
            cursor: 0,
        }
    }

    /// The plan, solved at the first ask.
    fn ensure_plan(&mut self, view: &SystemView<'_>) -> &[(u64, JobId)] {
        self.plan.get_or_insert_with(|| {
            let tasks: Vec<Task> = self
                .jobs
                .iter()
                .map(|j| Task {
                    id: j.id.0,
                    duration: j.walltime.as_millis().max(1),
                    nodes: j.nodes,
                    memory: j.memory_gb,
                    release: j.submit.as_millis(),
                })
                .collect();
            let instance = Instance::new(tasks, view.config.nodes, view.config.memory_gb);
            let solution = self.solver.solve(&instance);
            let mut plan: Vec<(u64, JobId)> = solution
                .schedule
                .starts
                .iter()
                .zip(&self.jobs)
                .map(|(&start, job)| (start, job.id))
                .collect();
            plan.sort();
            plan
        })
    }
}

impl SchedulingPolicy for OrToolsPolicy {
    fn name(&self) -> &str {
        "OR-Tools"
    }

    fn decide(&mut self, view: &SystemView<'_>) -> Action {
        if view.all_jobs_started() {
            return Action::Stop;
        }
        let cursor = self.cursor;
        let Some(&(_, next_id)) = self.ensure_plan(view).get(cursor) else {
            return Action::Delay;
        };
        match view.waiting_job(next_id) {
            Some(spec) if view.fits_now(spec) => {
                self.cursor += 1;
                Action::StartJob(next_id)
            }
            // Not yet arrived or doesn't fit yet: hold the plan order.
            _ => Action::Delay,
        }
    }

    fn reset(&mut self) {
        self.plan = None;
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_cluster::ClusterConfig;
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

    fn fast_config() -> SolverConfig {
        SolverConfig {
            sa_iterations_per_task: 50,
            ..SolverConfig::default()
        }
    }

    fn run(jobs: &[JobSpec]) -> rsched_sim::SimOutcome {
        run_simulation(
            ClusterConfig::new(8, 64),
            jobs,
            &mut OrToolsPolicy::with_config(jobs, fast_config()),
            &SimOptions::default(),
        )
        .expect("completes")
    }

    #[test]
    fn achieves_optimal_makespan_on_packable_instance() {
        // Two wide + two narrow, optimal pairing gives 200 s (vs 300+ for a
        // bad order).
        let jobs = vec![
            spec(0, 0, 100, 6),
            spec(1, 0, 100, 6),
            spec(2, 0, 100, 2),
            spec(3, 0, 100, 2),
        ];
        let out = run(&jobs);
        assert_eq!(out.end_time, SimTime::from_secs(200));
    }

    #[test]
    fn beats_fcfs_makespan_on_fragmenting_workload() {
        // Alternating wide/narrow jobs that FCFS handles poorly.
        let mut jobs = Vec::new();
        for i in 0..6 {
            jobs.push(spec(i * 2, 0, 100, 6));
            jobs.push(spec(i * 2 + 1, 0, 100, 2));
        }
        let or = run(&jobs);
        let fcfs = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut crate::fcfs::Fcfs::default(),
            &SimOptions::default(),
        )
        .expect("completes");
        assert!(
            or.end_time <= fcfs.end_time,
            "OR-Tools {} vs FCFS {}",
            or.end_time,
            fcfs.end_time
        );
    }

    #[test]
    fn respects_release_times() {
        let jobs = vec![spec(0, 100, 10, 8), spec(1, 0, 10, 8)];
        let out = run(&jobs);
        let late = out.records.iter().find(|r| r.spec.id == JobId(0)).unwrap();
        assert!(late.start >= SimTime::from_secs(100));
    }

    #[test]
    fn reset_replans() {
        let jobs = vec![spec(0, 0, 10, 4), spec(1, 0, 10, 4)];
        let mut p = OrToolsPolicy::with_config(&jobs, fast_config());
        let a = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut p,
            &SimOptions::default(),
        )
        .expect("completes");
        p.reset();
        let b = run_simulation(
            ClusterConfig::new(8, 64),
            &jobs,
            &mut p,
            &SimOptions::default(),
        )
        .expect("completes");
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn completes_a_mixed_dynamic_workload() {
        let jobs: Vec<JobSpec> = (0..25)
            .map(|i| {
                spec(
                    i,
                    (i as u64 * 17) % 120,
                    10 + (i as u64 * 23) % 200,
                    1 + i % 8,
                )
            })
            .collect();
        let out = run(&jobs);
        assert_eq!(out.records.len(), 25);
    }
}
