//! The portfolio driver: the best priority rule, refined by simulated
//! annealing unless it already meets the lower bound — mirroring how CP-SAT
//! behaves on this problem class ("globally optimal or near-optimal for
//! small-to-medium workloads", paper §3.3).

use crate::anneal::{anneal, AnnealConfig};
use crate::bounds::lower_bound;
use crate::listsched::{priority_order, PriorityRule};
use crate::model::{Instance, Schedule};
use crate::sgs::decode_with_makespan;

/// Which engine produced the returned schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Priority-rule list scheduling only.
    ListScheduling,
    /// Simulated annealing refinement.
    Annealing,
}

/// A produced schedule plus provenance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The schedule (starts indexed like `instance.tasks`).
    pub schedule: Schedule,
    /// Its makespan from time zero.
    pub makespan: u64,
    /// Engine that found it.
    pub method: SolveMethod,
    /// `true` when the makespan is provably optimal (the lower bound was
    /// met).
    pub proven_optimal: bool,
}

/// Portfolio configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// SA iterations (scaled ×n internally).
    pub sa_iterations_per_task: u32,
    /// Hard ceiling on total SA iterations regardless of instance size —
    /// keeps replanning latency bounded on 100-job instances.
    pub sa_iteration_cap: u32,
    /// Seed for the stochastic stages.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            sa_iterations_per_task: 400,
            sa_iteration_cap: 6_000,
            seed: 0xC0FFEE,
        }
    }
}

/// The portfolio solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Configuration knobs.
    pub config: SolverConfig,
}

impl Solver {
    /// A solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Solve the instance.
    pub fn solve(&self, instance: &Instance) -> Solution {
        if instance.is_empty() {
            return Solution {
                schedule: Schedule { starts: vec![] },
                makespan: 0,
                method: SolveMethod::ListScheduling,
                proven_optimal: true,
            };
        }
        let lb = lower_bound(instance);

        // Stage 1: best priority rule.
        let mut best_order: Vec<usize> = Vec::new();
        let mut best_mk = u64::MAX;
        for rule in PriorityRule::all() {
            let order = priority_order(instance, rule);
            let (_, mk) = decode_with_makespan(instance, &order);
            if mk < best_mk {
                best_mk = mk;
                best_order = order;
            }
        }
        let mut method = SolveMethod::ListScheduling;

        if best_mk > lb {
            // Stage 2: simulated annealing from the best seed.
            let iterations = self
                .config
                .sa_iterations_per_task
                .saturating_mul(instance.len() as u32)
                .min(self.config.sa_iteration_cap);
            let sa = anneal(
                instance,
                &best_order,
                &AnnealConfig {
                    iterations,
                    seed: self.config.seed,
                    ..AnnealConfig::default()
                },
            );
            if sa.makespan < best_mk {
                best_mk = sa.makespan;
                best_order = sa.order;
                method = SolveMethod::Annealing;
            }
        }

        let (schedule, makespan) = decode_with_makespan(instance, &best_order);
        debug_assert_eq!(makespan, best_mk);
        Solution {
            schedule,
            makespan,
            method,
            proven_optimal: makespan == lb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;

    fn task(id: u32, duration: u64, nodes: u32, memory: u64, release: u64) -> Task {
        Task {
            id,
            duration,
            nodes,
            memory,
            release,
        }
    }

    fn pseudo_random_instance(seed: u64, n: usize) -> Instance {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x2545F4914F6CDD1D)
                    .wrapping_add(i as u64 * 17);
                task(
                    i as u32,
                    25 + (x % 400),
                    1 + ((x / 3) % 4) as u32,
                    1 + (x / 7) % 12,
                    0,
                )
            })
            .collect();
        Instance::new(tasks, 4, 16)
    }

    #[test]
    fn large_instances_stay_feasible_and_bounded() {
        let inst = pseudo_random_instance(11, 60);
        let sol = Solver::default().solve(&inst);
        assert!(sol.schedule.is_feasible(&inst));
        assert!(sol.makespan >= lower_bound(&inst));
        // Near-optimality proxy: within 2× of the lower bound on this
        // well-behaved instance class.
        assert!(
            sol.makespan <= 2 * lower_bound(&inst),
            "makespan {} vs LB {}",
            sol.makespan,
            lower_bound(&inst)
        );
    }

    #[test]
    fn empty_instance() {
        let sol = Solver::default().solve(&Instance::new(vec![], 4, 16));
        assert_eq!(sol.makespan, 0);
        assert!(sol.proven_optimal);
    }

    #[test]
    fn trivially_packable_instance_solves_by_list_scheduling() {
        // Everything fits at once: LB == makespan, no search needed.
        let tasks: Vec<Task> = (0..4).map(|i| task(i, 100, 1, 1, 0)).collect();
        let inst = Instance::new(tasks, 4, 16);
        let sol = Solver::default().solve(&inst);
        assert_eq!(sol.makespan, 100);
        assert!(sol.proven_optimal);
        assert_eq!(sol.method, SolveMethod::ListScheduling);
    }

    #[test]
    fn releases_are_honored() {
        let inst = Instance::new(vec![task(0, 100, 4, 1, 0), task(1, 100, 4, 1, 50)], 4, 16);
        let sol = Solver::default().solve(&inst);
        assert!(sol.schedule.is_feasible(&inst));
        assert_eq!(sol.makespan, 200, "serializes due to node conflict");
    }

    #[test]
    fn deterministic() {
        let inst = pseudo_random_instance(8, 30);
        let a = Solver::default().solve(&inst);
        let b = Solver::default().solve(&inst);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.schedule, b.schedule);
    }
}
