//! Priority-rule list scheduling.
//!
//! Classic constructive heuristics: order tasks by a dispatch rule, decode
//! with the serial SGS. These seed the metaheuristics and provide fast
//! standalone solutions.

use crate::model::Instance;

/// A dispatch rule producing a task order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PriorityRule {
    /// Shortest processing time first.
    ShortestFirst,
    /// Longest processing time first (good for makespan packing).
    LongestFirst,
    /// Largest node-energy (`nodes × duration`) first.
    MaxNodeEnergy,
    /// Largest node demand first (pack the awkward jobs early).
    WidestFirst,
    /// Earliest release first (FIFO).
    EarliestRelease,
}

impl PriorityRule {
    /// Every rule, for portfolio seeding.
    pub fn all() -> [PriorityRule; 5] {
        [
            PriorityRule::ShortestFirst,
            PriorityRule::LongestFirst,
            PriorityRule::MaxNodeEnergy,
            PriorityRule::WidestFirst,
            PriorityRule::EarliestRelease,
        ]
    }
}

/// The task order induced by `rule` (ties broken by task index for
/// determinism).
pub(crate) fn priority_order(instance: &Instance, rule: PriorityRule) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    match rule {
        PriorityRule::ShortestFirst => {
            order.sort_by_key(|&i| (instance.tasks[i].duration, i));
        }
        PriorityRule::LongestFirst => {
            order.sort_by_key(|&i| (std::cmp::Reverse(instance.tasks[i].duration), i));
        }
        PriorityRule::MaxNodeEnergy => {
            order.sort_by_key(|&i| (std::cmp::Reverse(instance.tasks[i].node_energy()), i));
        }
        PriorityRule::WidestFirst => {
            order.sort_by_key(|&i| (std::cmp::Reverse(instance.tasks[i].nodes), i));
        }
        PriorityRule::EarliestRelease => {
            order.sort_by_key(|&i| (instance.tasks[i].release, i));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;
    use crate::sgs::decode_with_makespan;

    fn task(id: u32, duration: u64, nodes: u32, release: u64) -> Task {
        Task {
            id,
            duration,
            nodes,
            memory: 1,
            release,
        }
    }

    fn sample_instance() -> Instance {
        Instance::new(
            vec![
                task(0, 300, 2, 0),
                task(1, 50, 1, 0),
                task(2, 200, 4, 10),
                task(3, 50, 3, 5),
            ],
            4,
            64,
        )
    }

    #[test]
    fn shortest_first_orders_by_duration() {
        let order = priority_order(&sample_instance(), PriorityRule::ShortestFirst);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn longest_first_is_reverse_by_duration() {
        let order = priority_order(&sample_instance(), PriorityRule::LongestFirst);
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn max_node_energy_accounts_for_width() {
        // energies: 600, 50, 800, 150.
        let order = priority_order(&sample_instance(), PriorityRule::MaxNodeEnergy);
        assert_eq!(order, vec![2, 0, 3, 1]);
    }

    #[test]
    fn widest_first_orders_by_nodes() {
        let order = priority_order(&sample_instance(), PriorityRule::WidestFirst);
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn earliest_release_is_fifo() {
        let order = priority_order(&sample_instance(), PriorityRule::EarliestRelease);
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn ties_break_by_index() {
        let inst = Instance::new(vec![task(0, 100, 1, 0), task(1, 100, 1, 0)], 4, 64);
        for rule in PriorityRule::all() {
            let order = priority_order(&inst, rule);
            assert_eq!(order, vec![0, 1], "{rule:?}");
        }
    }

    #[test]
    fn every_rule_yields_feasible_schedules() {
        let inst = sample_instance();
        for rule in PriorityRule::all() {
            let order = priority_order(&inst, rule);
            let (s, _) = decode_with_makespan(&inst, &order);
            assert!(s.is_feasible(&inst), "{rule:?}");
        }
    }
}
