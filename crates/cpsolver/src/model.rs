//! The scheduling instance model: tasks, capacities, schedules.
//!
//! Times are in integer milliseconds, matching the simulator's `SimTime`.

/// One non-preemptive task with two cumulative demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Caller-side identifier (job id).
    pub id: u32,
    /// Processing time, ms. Must be positive.
    pub duration: u64,
    /// Node demand.
    pub nodes: u32,
    /// Memory demand (GB).
    pub memory: u64,
    /// Earliest allowed start, ms (release time).
    pub release: u64,
}

impl Task {
    /// Work content on the node resource (`nodes × duration`).
    pub(crate) fn node_energy(&self) -> u128 {
        self.nodes as u128 * self.duration as u128
    }

    /// Work content on the memory resource (`memory × duration`).
    pub(crate) fn memory_energy(&self) -> u128 {
        self.memory as u128 * self.duration as u128
    }
}

/// A cumulative-scheduling instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The tasks to place.
    pub tasks: Vec<Task>,
    /// Node capacity (`C`).
    pub(crate) node_capacity: u32,
    /// Memory capacity (`M`).
    pub(crate) memory_capacity: u64,
}

impl Instance {
    /// Build an instance, validating that every task can run alone.
    ///
    /// # Panics
    /// Panics on a task with zero duration or demands exceeding capacity.
    pub fn new(tasks: Vec<Task>, node_capacity: u32, memory_capacity: u64) -> Self {
        for t in &tasks {
            assert!(t.duration > 0, "task {} has zero duration", t.id);
            assert!(
                t.nodes <= node_capacity,
                "task {} node demand {} exceeds capacity {}",
                t.id,
                t.nodes,
                node_capacity
            );
            assert!(
                t.memory <= memory_capacity,
                "task {} memory demand {} exceeds capacity {}",
                t.id,
                t.memory,
                memory_capacity
            );
        }
        Instance {
            tasks,
            node_capacity,
            memory_capacity,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Start times for every task, indexed like `Instance::tasks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `starts[i]` is the start of `instance.tasks[i]`, in ms.
    pub starts: Vec<u64>,
}

impl Schedule {
    /// The makespan measured from time zero: `max_i (start_i + duration_i)`.
    pub fn makespan(&self, instance: &Instance) -> u64 {
        self.starts
            .iter()
            .zip(&instance.tasks)
            .map(|(&s, t)| s + t.duration)
            .max()
            .unwrap_or(0)
    }

    /// Check release times and both cumulative capacities at every start
    /// instant (capacity can only be exceeded starting at some task's
    /// start, so checking those instants is sufficient).
    pub fn is_feasible(&self, instance: &Instance) -> bool {
        if self.starts.len() != instance.tasks.len() {
            return false;
        }
        for (&s, t) in self.starts.iter().zip(&instance.tasks) {
            if s < t.release {
                return false;
            }
        }
        for (&probe, _) in self.starts.iter().zip(&instance.tasks) {
            let mut nodes: u64 = 0;
            let mut memory: u64 = 0;
            for (&s, t) in self.starts.iter().zip(&instance.tasks) {
                if s <= probe && probe < s + t.duration {
                    nodes += t.nodes as u64;
                    memory += t.memory;
                }
            }
            if nodes > instance.node_capacity as u64 || memory > instance.memory_capacity {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32, duration: u64, nodes: u32, memory: u64) -> Task {
        Task {
            id,
            duration,
            nodes,
            memory,
            release: 0,
        }
    }

    #[test]
    fn energies() {
        let t = task(1, 100, 4, 16);
        assert_eq!(t.node_energy(), 400);
        assert_eq!(t.memory_energy(), 1600);
    }

    #[test]
    fn makespan_of_schedule() {
        let inst = Instance::new(vec![task(1, 100, 1, 1), task(2, 50, 1, 1)], 2, 10);
        let s = Schedule {
            starts: vec![0, 80],
        };
        assert_eq!(s.makespan(&inst), 130);
    }

    #[test]
    fn feasibility_checks_capacity() {
        let inst = Instance::new(vec![task(1, 100, 2, 4), task(2, 100, 2, 4)], 3, 10);
        // Overlapping: 4 nodes > 3 capacity.
        assert!(!Schedule {
            starts: vec![0, 50]
        }
        .is_feasible(&inst));
        // Sequential: fine.
        assert!(Schedule {
            starts: vec![0, 100]
        }
        .is_feasible(&inst));
    }

    #[test]
    fn feasibility_checks_memory() {
        let inst = Instance::new(vec![task(1, 100, 1, 8), task(2, 100, 1, 8)], 10, 10);
        assert!(!Schedule { starts: vec![0, 0] }.is_feasible(&inst));
        assert!(Schedule {
            starts: vec![0, 100]
        }
        .is_feasible(&inst));
    }

    #[test]
    fn feasibility_checks_release() {
        let mut t = task(1, 10, 1, 1);
        t.release = 500;
        let inst = Instance::new(vec![t], 1, 1);
        assert!(!Schedule { starts: vec![0] }.is_feasible(&inst));
        assert!(Schedule { starts: vec![500] }.is_feasible(&inst));
    }

    #[test]
    fn feasibility_rejects_wrong_arity() {
        let inst = Instance::new(vec![task(1, 10, 1, 1)], 1, 1);
        assert!(!Schedule { starts: vec![] }.is_feasible(&inst));
    }

    #[test]
    fn exact_end_instants_do_not_conflict() {
        // Task 2 starts exactly when task 1 ends — no overlap.
        let inst = Instance::new(vec![task(1, 100, 2, 2), task(2, 100, 2, 2)], 2, 2);
        assert!(Schedule {
            starts: vec![0, 100]
        }
        .is_feasible(&inst));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_task_rejected() {
        let _ = Instance::new(vec![task(1, 10, 5, 1)], 4, 16);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn zero_duration_rejected() {
        let _ = Instance::new(vec![task(1, 0, 1, 1)], 4, 16);
    }
}
