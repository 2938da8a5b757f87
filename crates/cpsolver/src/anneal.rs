//! Simulated annealing over SGS permutations.
//!
//! The near-optimal engine for medium/large instances (and one of the
//! classical metaheuristics the paper's related-work section cites for HPC
//! scheduling). Deterministic given the seed and iteration budget.

use rsched_simkit::rng::{Rng, Xoshiro256PlusPlus};

use crate::model::{Instance, Schedule};
use crate::sgs::decode_with_makespan;

/// Annealing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Total neighbor evaluations.
    pub iterations: u32,
    /// Initial acceptance temperature as a fraction of the seed makespan.
    pub initial_temp_fraction: f64,
    /// Geometric cooling factor applied each iteration.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 20_000,
            initial_temp_fraction: 0.1,
            cooling: 0.9995,
            seed: 0x5EED,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: u64,
    /// Best order found (SGS permutation).
    pub order: Vec<usize>,
    /// Accepted moves (diagnostic).
    pub accepted_moves: u32,
}

/// Anneal starting from `seed_order`.
pub fn anneal(instance: &Instance, seed_order: &[usize], config: &AnnealConfig) -> AnnealResult {
    assert_eq!(seed_order.len(), instance.len(), "seed order arity");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let mut current: Vec<usize> = seed_order.to_vec();
    let (_, mut current_mk) = decode_with_makespan(instance, &current);
    let mut best = current.clone();
    let mut best_mk = current_mk;
    let mut temp = (current_mk as f64 * config.initial_temp_fraction).max(1.0);
    let mut accepted = 0u32;

    let n = instance.len();
    if n < 2 {
        let (schedule, makespan) = decode_with_makespan(instance, &current);
        return AnnealResult {
            schedule,
            makespan,
            order: current,
            accepted_moves: 0,
        };
    }

    for _ in 0..config.iterations {
        let mut candidate = current.clone();
        // Neighborhood: swap two positions or reinsert one element.
        if rng.gen_bool(0.5) {
            let i = rng.gen_index(n);
            let j = rng.gen_index(n);
            candidate.swap(i, j);
        } else {
            let from = rng.gen_index(n);
            let to = rng.gen_index(n);
            let task = candidate.remove(from);
            candidate.insert(to.min(candidate.len()), task);
        }
        let (_, cand_mk) = decode_with_makespan(instance, &candidate);
        let delta = cand_mk as f64 - current_mk as f64;
        if delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp() {
            current = candidate;
            current_mk = cand_mk;
            accepted += 1;
            if current_mk < best_mk {
                best_mk = current_mk;
                best = current.clone();
            }
        }
        temp = (temp * config.cooling).max(1e-6);
    }

    let (schedule, makespan) = decode_with_makespan(instance, &best);
    debug_assert_eq!(makespan, best_mk);
    AnnealResult {
        schedule,
        makespan,
        order: best,
        accepted_moves: accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listsched::{priority_order, PriorityRule};
    use crate::model::Task;

    fn task(id: u32, duration: u64, nodes: u32, memory: u64) -> Task {
        Task {
            id,
            duration,
            nodes,
            memory,
            release: 0,
        }
    }

    fn pseudo_random_instance(seed: u64, n: usize) -> Instance {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let x = seed.wrapping_mul(0x9E3779B9).wrapping_add(i as u64 * 131);
                task(
                    i as u32,
                    20 + (x % 300),
                    1 + ((x / 11) % 4) as u32,
                    1 + (x / 23) % 12,
                )
            })
            .collect();
        Instance::new(tasks, 4, 16)
    }

    /// The least makespan over the serial-SGS decodings of every order
    /// that extends `prefix`.
    fn exhaustive_optimum(inst: &Instance, prefix: &mut Vec<usize>) -> u64 {
        if prefix.len() == inst.len() {
            return decode_with_makespan(inst, prefix).1;
        }
        let mut best = u64::MAX;
        for i in 0..inst.len() {
            if !prefix.contains(&i) {
                prefix.push(i);
                best = best.min(exhaustive_optimum(inst, prefix));
                prefix.pop();
            }
        }
        best
    }

    #[test]
    fn never_worse_than_seed() {
        for seed in 0..5u64 {
            let inst = pseudo_random_instance(seed, 20);
            let order: Vec<usize> = (0..inst.len()).collect();
            let (_, seed_mk) = decode_with_makespan(&inst, &order);
            let result = anneal(
                &inst,
                &order,
                &AnnealConfig {
                    iterations: 2_000,
                    seed,
                    ..AnnealConfig::default()
                },
            );
            assert!(result.makespan <= seed_mk, "seed {seed}");
            assert!(result.schedule.is_feasible(&inst));
        }
    }

    #[test]
    fn reaches_optimum_on_small_instance() {
        let inst = pseudo_random_instance(7, 7);
        let exact = exhaustive_optimum(&inst, &mut Vec::new());
        let result = anneal(
            &inst,
            &priority_order(&inst, PriorityRule::LongestFirst),
            &AnnealConfig {
                iterations: 10_000,
                seed: 1,
                ..AnnealConfig::default()
            },
        );
        assert_eq!(result.makespan, exact);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = pseudo_random_instance(2, 15);
        let order: Vec<usize> = (0..inst.len()).collect();
        let cfg = AnnealConfig {
            iterations: 1_000,
            seed: 42,
            ..AnnealConfig::default()
        };
        let a = anneal(&inst, &order, &cfg);
        let b = anneal(&inst, &order, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn single_task_short_circuits() {
        let inst = Instance::new(vec![task(0, 100, 1, 1)], 4, 16);
        let result = anneal(&inst, &[0], &AnnealConfig::default());
        assert_eq!(result.makespan, 100);
        assert_eq!(result.accepted_moves, 0);
    }

    #[test]
    fn improves_a_pathological_order() {
        // Alternating wide/narrow where the identity order wastes capacity.
        let mut tasks = Vec::new();
        for i in 0..6 {
            tasks.push(task(i * 2, 100, 3, 1));
            tasks.push(task(i * 2 + 1, 100, 1, 1));
        }
        let inst = Instance::new(tasks, 4, 64);
        let bad_order: Vec<usize> = (0..inst.len()).collect();
        let (_, bad_mk) = decode_with_makespan(&inst, &bad_order);
        let result = anneal(
            &inst,
            &bad_order,
            &AnnealConfig {
                iterations: 5_000,
                seed: 3,
                ..AnnealConfig::default()
            },
        );
        assert!(
            result.makespan <= bad_mk,
            "SA should not regress: {} vs {}",
            result.makespan,
            bad_mk
        );
    }
}
