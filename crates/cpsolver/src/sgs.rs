//! Serial schedule generation scheme (SGS).
//!
//! Decodes a task permutation into a feasible schedule by placing tasks in
//! order at their earliest feasible start. Every permutation decodes to a
//! feasible schedule, and for cumulative problems at least one permutation
//! decodes to an optimal one — which is why the metaheuristics search
//! permutation space.

use rsched_simkit::{ReservationProfile, SimDuration, SimTime};

use crate::model::{Instance, Schedule, Task};

/// The solver's timetable: the workspace's one reservation overlay
/// ([`ReservationProfile`], shared with conservative backfilling) laid over
/// a one-point base — the empty machine from time zero. Task times are
/// integer milliseconds, which is what `SimTime` counts.
#[derive(Debug)]
pub(crate) struct Timetable {
    base: [(SimTime, u32, u64); 1],
    reserved: ReservationProfile,
}

/// `clone_from` reuses the target's step buffer: the annealer snapshots
/// and restores timetables on every move.
impl Clone for Timetable {
    fn clone(&self) -> Self {
        Timetable {
            base: self.base,
            reserved: self.reserved.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.base = source.base;
        self.reserved.clone_from(&source.reserved);
    }
}

impl Timetable {
    pub(crate) fn new(instance: &Instance) -> Self {
        Timetable {
            base: [(
                SimTime::ZERO,
                instance.node_capacity,
                instance.memory_capacity,
            )],
            reserved: ReservationProfile::new(),
        }
    }

    /// Book the task at the earliest start `≥ task.release` from which it
    /// fits for its whole duration beside everything placed so far, and
    /// return that start.
    pub(crate) fn place(&mut self, task: &Task) -> u64 {
        self.reserved
            .place(
                &self.base,
                SimTime::from_millis(task.release),
                task.nodes,
                task.memory,
                SimDuration::from_millis(task.duration),
            )
            .as_millis()
    }
}

/// Decode `order` (indices into `instance.tasks`) into a schedule.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..instance.len()`.
pub fn decode(instance: &Instance, order: &[usize]) -> Schedule {
    assert_eq!(order.len(), instance.len(), "order arity mismatch");
    debug_assert!(
        {
            let mut seen = vec![false; order.len()];
            order.iter().all(|&i| {
                let fresh = !seen[i];
                seen[i] = true;
                fresh
            })
        },
        "order must be a permutation"
    );
    let mut timetable = Timetable::new(instance);
    let mut starts = vec![0u64; instance.len()];
    for &idx in order {
        starts[idx] = timetable.place(&instance.tasks[idx]);
    }
    Schedule { starts }
}

/// Decode and return `(schedule, makespan)` in one call.
pub fn decode_with_makespan(instance: &Instance, order: &[usize]) -> (Schedule, u64) {
    let schedule = decode(instance, order);
    let makespan = schedule.makespan(instance);
    (schedule, makespan)
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
    fn sequential_decoding_packs_greedily() {
        // 2-node machine; three 1-node tasks of 100 ms: two run together,
        // the third follows.
        let inst = Instance::new(
            vec![task(1, 100, 1, 1), task(2, 100, 1, 1), task(3, 100, 1, 1)],
            2,
            10,
        );
        let (s, mk) = decode_with_makespan(&inst, &[0, 1, 2]);
        assert!(s.is_feasible(&inst));
        assert_eq!(mk, 200);
        assert_eq!(s.starts.iter().filter(|&&x| x == 0).count(), 2);
    }

    #[test]
    fn order_changes_schedule() {
        // Big task then small vs small then big on a tight machine.
        let inst = Instance::new(vec![task(1, 100, 2, 2), task(2, 10, 1, 1)], 2, 2);
        let (_, mk_big_first) = decode_with_makespan(&inst, &[0, 1]);
        let (_, mk_small_first) = decode_with_makespan(&inst, &[1, 0]);
        assert_eq!(mk_big_first, 110);
        assert_eq!(mk_small_first, 110);
        // Same makespan here, but the starts differ.
        let s1 = decode(&inst, &[0, 1]);
        let s2 = decode(&inst, &[1, 0]);
        assert_ne!(s1.starts, s2.starts);
    }

    #[test]
    fn any_permutation_is_feasible() {
        let tasks: Vec<Task> = (0..8)
            .map(|i| task(i, 50 + 10 * i as u64, 1 + i % 4, 1 + (i as u64) % 8))
            .collect();
        let inst = Instance::new(tasks, 4, 16);
        // Try a handful of structured permutations.
        let n = inst.len();
        let idperm: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let evens_then_odds: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
        for order in [idperm, reversed, evens_then_odds] {
            let s = decode(&inst, &order);
            assert!(s.is_feasible(&inst), "order {order:?}");
        }
    }

    #[test]
    fn releases_are_respected() {
        let mut t1 = task(1, 10, 1, 1);
        t1.release = 100;
        let inst = Instance::new(vec![t1], 4, 16);
        let s = decode(&inst, &[0]);
        assert_eq!(s.starts[0], 100);
    }

    /// A task that ends and a task that starts at one instant do not both
    /// count there: task 2 fits from 0 beside task 1 and hands its nodes to
    /// task 0 at 10.
    #[test]
    fn an_end_and_a_start_at_one_instant_do_not_stack() {
        let mut t0 = task(0, 10, 2, 1);
        t0.release = 10;
        let inst = Instance::new(vec![t0, task(1, 10, 2, 1), task(2, 20, 2, 1)], 4, 16);
        let (s, mk) = decode_with_makespan(&inst, &[0, 1, 2]);
        assert_eq!(s.starts, [10, 0, 0]);
        assert_eq!(mk, 20);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let inst = Instance::new(vec![task(1, 10, 1, 1)], 4, 16);
        let _ = decode(&inst, &[0, 0]);
    }
}
