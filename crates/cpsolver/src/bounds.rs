//! Makespan lower bounds, used for optimality proofs and pruning.

use crate::model::Instance;

/// A valid lower bound on the optimal makespan (measured from time zero):
/// the maximum of
///
/// 1. the critical task bound `max_i (release_i + duration_i)`,
/// 2. the node energy bound `⌈Σ nodes_i·dur_i / C⌉ + min_i release_i`,
/// 3. the memory energy bound `⌈Σ mem_i·dur_i / M⌉ + min_i release_i`.
pub fn lower_bound(instance: &Instance) -> u64 {
    let tasks = &instance.tasks;
    let critical = tasks.iter().map(|t| t.release + t.duration).max();
    let min_release = tasks.iter().map(|t| t.release).min();
    let (Some(critical), Some(min_release)) = (critical, min_release) else {
        return 0;
    };
    let node_energy: u128 = instance.tasks.iter().map(|t| t.node_energy()).sum();
    let memory_energy: u128 = instance.tasks.iter().map(|t| t.memory_energy()).sum();
    let node_bound =
        div_ceil_u128(node_energy, instance.node_capacity as u128) as u64 + min_release;
    let memory_bound =
        div_ceil_u128(memory_energy, instance.memory_capacity as u128) as u64 + min_release;
    critical.max(node_bound).max(memory_bound)
}

fn div_ceil_u128(a: u128, b: u128) -> u128 {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;
    use crate::sgs::decode_with_makespan;

    fn task(id: u32, duration: u64, nodes: u32, memory: u64, release: u64) -> Task {
        Task {
            id,
            duration,
            nodes,
            memory,
            release,
        }
    }

    #[test]
    fn empty_instance_bound_is_zero() {
        let inst = Instance::new(vec![], 4, 16);
        assert_eq!(lower_bound(&inst), 0);
    }

    #[test]
    fn critical_task_dominates() {
        let inst = Instance::new(vec![task(1, 1000, 1, 1, 0), task(2, 10, 1, 1, 0)], 8, 64);
        assert_eq!(lower_bound(&inst), 1000);
    }

    #[test]
    fn energy_bound_dominates_when_machine_is_tight() {
        // 4 tasks × 100 ms × 2 nodes on a 2-node machine → ≥ 400 ms.
        let tasks = (0..4).map(|i| task(i, 100, 2, 1, 0)).collect();
        let inst = Instance::new(tasks, 2, 64);
        assert_eq!(lower_bound(&inst), 400);
    }

    #[test]
    fn release_shifts_the_bound() {
        let inst = Instance::new(vec![task(1, 100, 1, 1, 500)], 8, 64);
        assert_eq!(lower_bound(&inst), 600);
    }

    #[test]
    fn memory_energy_bound() {
        // 3 tasks × 100 ms × 32 GB on a 64 GB machine → ≥ 150 ms.
        let tasks = (0..3).map(|i| task(i, 100, 1, 32, 0)).collect();
        let inst = Instance::new(tasks, 64, 64);
        assert_eq!(lower_bound(&inst), 150);
    }

    #[test]
    fn bound_never_exceeds_any_feasible_makespan() {
        // Structured pseudo-random instances; SGS gives a feasible schedule,
        // whose makespan must dominate the bound.
        for seed in 0..20u64 {
            let tasks: Vec<Task> = (0..10)
                .map(|i| {
                    let x = seed * 31 + i as u64 * 7;
                    task(
                        i,
                        20 + (x * 13) % 200,
                        1 + ((x * 5) % 4) as u32,
                        1 + (x * 3) % 16,
                        (x * 11) % 100,
                    )
                })
                .collect();
            let inst = Instance::new(tasks, 4, 16);
            let order: Vec<usize> = (0..inst.len()).collect();
            let (_, mk) = decode_with_makespan(&inst, &order);
            assert!(
                lower_bound(&inst) <= mk,
                "seed {seed}: LB {} > makespan {mk}",
                lower_bound(&inst)
            );
        }
    }
}
