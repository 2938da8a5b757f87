//! Exact branch-and-bound over SGS permutations.
//!
//! For a regular objective like makespan, the set of serial-SGS decodings
//! over all task permutations contains an optimal schedule, so depth-first
//! search over permutation prefixes with lower-bound pruning is exact. This
//! is what makes the solver "globally optimal for small workloads" like the
//! paper's OR-Tools baseline.

use crate::model::{Instance, Schedule};
use crate::sgs::{decode_with_makespan, Timetable};

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: u64,
    /// `true` if the search completed within budget (the schedule is
    /// provably optimal).
    pub proven_optimal: bool,
    /// Search-tree nodes expanded.
    pub nodes_explored: u64,
}

/// Branch-and-bound driver.
pub struct BranchAndBound {
    /// Maximum search-tree nodes to expand before giving up on the proof.
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            node_budget: 2_000_000,
        }
    }
}

struct SearchState<'a> {
    instance: &'a Instance,
    best_makespan: u64,
    best_order: Vec<usize>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl BranchAndBound {
    /// Solve `instance`, warm-started with `incumbent` (any feasible order,
    /// e.g. from list scheduling).
    pub fn solve(&self, instance: &Instance, incumbent: &[usize]) -> BnbResult {
        let (_, warm_makespan) = decode_with_makespan(instance, incumbent);
        let mut state = SearchState {
            instance,
            best_makespan: warm_makespan,
            best_order: incumbent.to_vec(),
            nodes: 0,
            budget: self.node_budget,
            exhausted: false,
        };
        let mut order: Vec<usize> = Vec::with_capacity(instance.len());
        let mut used = vec![false; instance.len()];
        let timetable = Timetable::new(instance);
        dfs(&mut state, &mut order, &mut used, &timetable, 0);
        let (schedule, makespan) = decode_with_makespan(instance, &state.best_order);
        debug_assert_eq!(makespan, state.best_makespan);
        BnbResult {
            schedule,
            makespan,
            proven_optimal: !state.exhausted,
            nodes_explored: state.nodes,
        }
    }
}

fn dfs(
    state: &mut SearchState<'_>,
    order: &mut Vec<usize>,
    used: &mut [bool],
    timetable: &Timetable,
    partial_makespan: u64,
) {
    if state.exhausted {
        return;
    }
    state.nodes += 1;
    if state.nodes > state.budget {
        state.exhausted = true;
        return;
    }
    let n = state.instance.len();
    if order.len() == n {
        if partial_makespan < state.best_makespan {
            state.best_makespan = partial_makespan;
            state.best_order = order.clone();
        }
        return;
    }
    // Remaining-energy lower bound: even with perfect packing the leftover
    // work needs this much more machine time.
    let mut rem_node_energy: u128 = 0;
    let mut rem_mem_energy: u128 = 0;
    let mut rem_critical: u64 = 0;
    for (i, t) in state.instance.tasks.iter().enumerate() {
        if !used[i] {
            rem_node_energy += t.node_energy();
            rem_mem_energy += t.memory_energy();
            rem_critical = rem_critical.max(t.release + t.duration);
        }
    }
    let energy_lb = (rem_node_energy.div_ceil(state.instance.node_capacity.max(1) as u128))
        .max(rem_mem_energy.div_ceil(state.instance.memory_capacity.max(1) as u128))
        as u64;
    let lb = partial_makespan.max(rem_critical).max(energy_lb);
    if lb >= state.best_makespan {
        return;
    }

    for i in 0..n {
        if used[i] {
            continue;
        }
        // Symmetry breaking: among identical unscheduled tasks, only try the
        // lowest-index one at this position.
        let ti = &state.instance.tasks[i];
        let duplicate_of_earlier = (0..i).any(|j| {
            !used[j] && {
                let tj = &state.instance.tasks[j];
                tj.duration == ti.duration
                    && tj.nodes == ti.nodes
                    && tj.memory == ti.memory
                    && tj.release == ti.release
            }
        });
        if duplicate_of_earlier {
            continue;
        }
        let end = timetable.earliest_start(ti) + ti.duration;
        let child_makespan = partial_makespan.max(end);
        if child_makespan >= state.best_makespan {
            continue;
        }
        let mut child_timetable = timetable.clone();
        child_timetable.place(ti);
        used[i] = true;
        order.push(i);
        dfs(state, order, used, &child_timetable, child_makespan);
        order.pop();
        used[i] = false;
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

    /// Exhaustive optimum via Heap's-algorithm permutation enumeration.
    fn brute_force_optimum(instance: &Instance) -> u64 {
        fn heap_permutations(k: usize, arr: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
            if k <= 1 {
                visit(arr);
                return;
            }
            for i in 0..k {
                heap_permutations(k - 1, arr, visit);
                if k.is_multiple_of(2) {
                    arr.swap(i, k - 1);
                } else {
                    arr.swap(0, k - 1);
                }
            }
        }
        let mut best = u64::MAX;
        let mut arr: Vec<usize> = (0..instance.len()).collect();
        let n = arr.len();
        heap_permutations(n, &mut arr, &mut |order| {
            let (_, mk) = decode_with_makespan(instance, order);
            best = best.min(mk);
        });
        best
    }

    fn pseudo_random_instance(seed: u64, n: usize) -> Instance {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let x = seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 97);
                task(
                    i as u32,
                    20 + (x % 180),
                    1 + ((x / 7) % 4) as u32,
                    1 + (x / 13) % 12,
                    if x.is_multiple_of(3) {
                        (x / 17) % 100
                    } else {
                        0
                    },
                )
            })
            .collect();
        Instance::new(tasks, 4, 16)
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..8u64 {
            let inst = pseudo_random_instance(seed, 6);
            let incumbent: Vec<usize> = (0..inst.len()).collect();
            let result = BranchAndBound::default().solve(&inst, &incumbent);
            assert!(result.proven_optimal, "seed {seed} should close");
            let brute = brute_force_optimum(&inst);
            assert_eq!(result.makespan, brute, "seed {seed}");
            assert!(result.schedule.is_feasible(&inst));
        }
    }

    #[test]
    fn improves_on_bad_incumbent() {
        // Two wide tasks + two narrow: LPT-ish order packs better than the
        // pathological incumbent.
        let inst = Instance::new(
            vec![
                task(0, 100, 3, 1, 0),
                task(1, 100, 3, 1, 0),
                task(2, 100, 1, 1, 0),
                task(3, 100, 1, 1, 0),
            ],
            4,
            16,
        );
        let result = BranchAndBound::default().solve(&inst, &[0, 1, 2, 3]);
        // Optimal: pair each wide with a narrow → makespan 200.
        assert_eq!(result.makespan, 200);
        assert!(result.proven_optimal);
    }

    #[test]
    fn budget_exhaustion_returns_incumbent_quality() {
        let inst = pseudo_random_instance(3, 10);
        let incumbent: Vec<usize> = (0..inst.len()).collect();
        let (_, warm) = decode_with_makespan(&inst, &incumbent);
        let result = BranchAndBound { node_budget: 5 }.solve(&inst, &incumbent);
        assert!(!result.proven_optimal);
        assert!(result.makespan <= warm);
        assert!(result.schedule.is_feasible(&inst));
    }

    #[test]
    fn single_task_is_trivially_optimal() {
        let inst = Instance::new(vec![task(0, 50, 2, 4, 10)], 4, 16);
        let result = BranchAndBound::default().solve(&inst, &[0]);
        assert!(result.proven_optimal);
        assert_eq!(result.makespan, 60);
    }

    #[test]
    fn symmetry_breaking_keeps_optimality() {
        // Six identical tasks: the search space collapses but the optimum
        // must still be found. 6 × (100 ms, 2 nodes) on 4 nodes → 300 ms.
        let tasks: Vec<Task> = (0..6).map(|i| task(i, 100, 2, 1, 0)).collect();
        let inst = Instance::new(tasks, 4, 16);
        let incumbent: Vec<usize> = (0..6).collect();
        let result = BranchAndBound::default().solve(&inst, &incumbent);
        assert!(result.proven_optimal);
        assert_eq!(result.makespan, 300);
        assert!(
            result.nodes_explored < 100,
            "symmetry breaking should prune"
        );
    }

    #[test]
    fn releases_respected_in_optimum() {
        let inst = Instance::new(vec![task(0, 10, 4, 1, 1000), task(1, 10, 4, 1, 0)], 4, 16);
        let result = BranchAndBound::default().solve(&inst, &[0, 1]);
        assert!(result.proven_optimal);
        assert_eq!(result.makespan, 1010);
        assert!(result.schedule.is_feasible(&inst));
    }
}
