//! Simulated annealing over SGS permutations.
//!
//! The near-optimal engine for medium/large instances (and one of the
//! classical metaheuristics the paper's related-work section cites for HPC
//! scheduling). Deterministic given the seed and iteration budget.
//!
//! Each iteration draws one move — swap positions `i` and `j`, or take the
//! task at `from` out and reinsert it at `to` — which permutes only the span
//! `p..=q` of the current order, and accepts it by the Metropolis rule on
//! the change of makespan. The candidate is decoded only as far as that
//! verdict needs. The decode resumes from a timetable checkpoint: the
//! current order keeps at most eight snapshots of its own decode, one every
//! ⌈n / 8⌉ positions, and the nearest one at or below `p` is exactly the
//! state the candidate reaches there, because `order[..p]` is untouched.
//! Three exits end a decode early, each with the verdict a full decode
//! would reach:
//!
//! * **Identity.** A move with `p == q` (a swap with `i == j`, a reinsert
//!   with `from == to`) leaves the order as it is. It is accepted with
//!   delta 0 and decodes nothing.
//! * **Neutral.** The reserved step function depends only on the set of
//!   reservations, not on the order they were booked in. While every task
//!   placed since `p` has kept its current start, a task whose placed
//!   predecessors are a superset of its old ones gets its old start again:
//!   that start still fits, because the current schedule is feasible with
//!   all of them, and no earlier one does, because it did not fit beside
//!   fewer. Past position `q - 1` of a swap or a forward reinsert, and past
//!   `p` of a backward one, every task is such a task. A decode that gets
//!   there with every start kept has proven the rest of the schedule
//!   unchanged: accepted with delta 0.
//! * **Early rejection.** The makespan is at least the running maximum end,
//!   and the acceptance probability only falls as the makespan rises. Once
//!   the running maximum fails the test against the one uniform draw the
//!   loop would make (peeked from a clone of the RNG), the full decode
//!   would fail it too: the move is rejected and the draw consumed. The
//!   test keeps a margin of a few ulps, so the verdict never leans on `exp`
//!   being monotone to the last ulp.
//!
//! A checkpoint that a neutral accept leaves describing another prefix is
//! skipped until a later accepted decode refreshes it. The result — order,
//! schedule, makespan, accepted moves and the RNG stream — is the one a
//! loop decoding every candidate in full returns; `tests/properties.rs`
//! keeps that loop as the oracle.

use std::ops::Range;

use rsched_simkit::rng::{Rng, Xoshiro256PlusPlus};

use crate::model::{Instance, Schedule};
use crate::sgs::Timetable;

/// The most timetable checkpoints an order keeps.
const CHECKPOINTS: usize = 8;

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
    /// SGS placements made, the seed order's decode included (diagnostic:
    /// the work the run did).
    pub placements: u64,
}

/// Anneal starting from `seed_order`.
pub fn anneal(instance: &Instance, seed_order: &[usize], config: &AnnealConfig) -> AnnealResult {
    assert_eq!(seed_order.len(), instance.len(), "seed order arity");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let mut search = Search::new(instance, seed_order);
    let mut best = search.order.clone();
    let mut best_starts = search.starts.clone();
    let mut best_mk = search.makespan;
    let mut temp = (search.makespan as f64 * config.initial_temp_fraction).max(1.0);
    let mut accepted = 0u32;

    let n = instance.len();
    let iterations = if n < 2 { 0 } else { config.iterations };
    for _ in 0..iterations {
        let mv = Move::draw(&mut rng, n);
        if search.step(mv, &mut rng, temp) {
            accepted += 1;
            if search.makespan < best_mk {
                best_mk = search.makespan;
                best.clone_from(&search.order);
                best_starts.clone_from(&search.starts);
            }
        }
        temp = (temp * config.cooling).max(1e-6);
    }

    AnnealResult {
        schedule: Schedule {
            starts: best_starts,
        },
        makespan: best_mk,
        order: best,
        accepted_moves: accepted,
        placements: search.placements,
    }
}

/// One neighborhood move.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Swap the tasks at two positions.
    Swap(usize, usize),
    /// Take the task at `from` out and reinsert it at `to`.
    Reinsert { from: usize, to: usize },
}

impl Move {
    /// A swap or a reinsert over `n` positions, with equal odds.
    fn draw(rng: &mut impl Rng, n: usize) -> Move {
        if rng.gen_bool(0.5) {
            let i = rng.gen_index(n);
            let j = rng.gen_index(n);
            Move::Swap(i, j)
        } else {
            let from = rng.gen_index(n);
            let to = rng.gen_index(n);
            Move::Reinsert { from, to }
        }
    }

    /// The positions `p..=q` the move permutes.
    fn span(self) -> (usize, usize) {
        let (a, b) = match self {
            Move::Swap(i, j) => (i, j),
            Move::Reinsert { from, to } => (from, to),
        };
        (a.min(b), a.max(b))
    }

    /// The position past which a decode that has kept every start since `p`
    /// has proven the move neutral (see the module docs). Not defined for
    /// an identity move.
    fn neutral_after(self) -> usize {
        let (p, q) = self.span();
        match self {
            Move::Reinsert { from, to } if from > to => p,
            _ => q - 1,
        }
    }

    fn apply(self, order: &mut [usize]) {
        match self {
            Move::Swap(i, j) => order.swap(i, j),
            Move::Reinsert { from, to } if from < to => order[from..=to].rotate_left(1),
            Move::Reinsert { from, to } => order[to..=from].rotate_right(1),
        }
    }

    fn undo(self, order: &mut [usize]) {
        match self {
            Move::Swap(i, j) => order.swap(i, j),
            Move::Reinsert { from, to } if from < to => order[from..=to].rotate_right(1),
            Move::Reinsert { from, to } => order[to..=from].rotate_left(1),
        }
    }
}

/// The decode of an order's prefix: the timetable before placing the task
/// at a checkpoint's position, and the latest end among the tasks placed.
#[derive(Debug, Clone)]
struct Checkpoint {
    timetable: Timetable,
    max_end: u64,
}

/// How a candidate's decode ended.
#[derive(Debug, Clone, Copy)]
enum Trial {
    /// Every start kept up to position `at`: the schedule is the current one.
    Neutral { at: usize },
    /// The running maximum end already fails the acceptance test.
    Rejected,
    /// Decoded in full from position `from`.
    Decoded { from: usize, makespan: u64 },
}

/// The current order with its schedule and decode checkpoints, and the
/// buffers a candidate is decoded into.
#[derive(Debug)]
struct Search<'a> {
    instance: &'a Instance,
    order: Vec<usize>,
    /// The current starts, indexed like `instance.tasks`.
    starts: Vec<u64>,
    makespan: u64,
    /// Positions per checkpoint, `⌈n / 8⌉`: checkpoint `c` holds the
    /// decode of `order[..c * stride]`.
    stride: usize,
    saved: Vec<Checkpoint>,
    /// `false` for a checkpoint a neutral accept left describing another
    /// prefix. Checkpoint 0, the empty machine, is always fresh.
    fresh: Vec<bool>,
    /// The candidate's checkpoints `staged_range`, swapped into `saved` when
    /// it is accepted.
    staged: Vec<Checkpoint>,
    staged_range: Range<usize>,
    timetable: Timetable,
    /// The candidate's starts, for the positions its decode placed.
    trial: Vec<u64>,
    placements: u64,
}

impl<'a> Search<'a> {
    /// Decode `order` in full and checkpoint it.
    fn new(instance: &'a Instance, order: &[usize]) -> Self {
        let n = order.len();
        let stride = n.div_ceil(CHECKPOINTS).max(1);
        let count = n.div_ceil(stride).max(1);
        let empty = Checkpoint {
            timetable: Timetable::new(instance),
            max_end: 0,
        };
        let mut search = Search {
            instance,
            order: order.to_vec(),
            starts: vec![0; n],
            makespan: 0,
            stride,
            saved: vec![empty.clone(); count],
            fresh: vec![true; count],
            staged: vec![empty.clone(); count],
            staged_range: 0..0,
            timetable: empty.timetable,
            trial: vec![0; n],
            placements: 0,
        };
        let trial = search.decode(0, usize::MAX, |_| false);
        search.commit(trial, 0);
        search
    }

    /// Propose `mv` against the current order at temperature `temp`, and
    /// keep it if it is accepted. Draws from `rng` exactly what a full
    /// decode of the candidate would: one uniform value when the makespan
    /// rises, none otherwise.
    fn step(&mut self, mv: Move, rng: &mut Xoshiro256PlusPlus, temp: f64) -> bool {
        let (p, q) = mv.span();
        if p == q {
            return true;
        }
        mv.apply(&mut self.order);
        let current = self.makespan as f64;
        let mut peeked = None;
        let trial = self.decode(p, mv.neutral_after(), |max_end| {
            let u = *peeked.get_or_insert_with(|| rng.clone().unit_f64());
            let delta = max_end as f64 - current;
            u > (-delta / temp).exp() * (1.0 + 4.0 * f64::EPSILON)
        });
        let accept = match trial {
            Trial::Neutral { .. } => true,
            Trial::Rejected => {
                rng.unit_f64();
                false
            }
            Trial::Decoded { makespan, .. } => {
                let delta = makespan as f64 - current;
                delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp()
            }
        };
        if accept {
            self.commit(trial, q);
        } else {
            mv.undo(&mut self.order);
        }
        accept
    }

    /// Decode the order, which differs from the one `starts` and the fresh
    /// checkpoints describe at positions `p..` only, from the nearest fresh
    /// checkpoint at or below `p`. Stops as neutral past `neutral_after`
    /// once every start since `p` is kept, and as rejected once `rejects`
    /// says so of a running maximum end above the current makespan.
    fn decode(
        &mut self,
        p: usize,
        neutral_after: usize,
        mut rejects: impl FnMut(u64) -> bool,
    ) -> Trial {
        let mut c = p / self.stride;
        while !self.fresh[c] {
            c -= 1;
        }
        let from = c * self.stride;
        self.timetable.clone_from(&self.saved[c].timetable);
        let mut max_end = self.saved[c].max_end;
        self.staged_range = c + 1..c + 1;
        let mut kept = true;
        for k in from..self.order.len() {
            if k > from && k % self.stride == 0 {
                let checkpoint = &mut self.staged[k / self.stride];
                checkpoint.timetable.clone_from(&self.timetable);
                checkpoint.max_end = max_end;
                self.staged_range.end = k / self.stride + 1;
            }
            if kept && k > neutral_after {
                return Trial::Neutral { at: k };
            }
            let task = self.order[k];
            let spec = &self.instance.tasks[task];
            let start = self.timetable.place(spec);
            self.placements += 1;
            self.trial[task] = start;
            kept &= k < p || start == self.starts[task];
            max_end = max_end.max(start + spec.duration);
            if max_end > self.makespan && rejects(max_end) {
                return Trial::Rejected;
            }
        }
        Trial::Decoded {
            from,
            makespan: max_end,
        }
    }

    /// Make the decoded candidate the current order's record: its staged
    /// checkpoints, and its starts and makespan when it was decoded in full.
    /// After a neutral accept, the checkpoints the decode did not reach up
    /// to `q`, the end of the move's span, describe another prefix.
    fn commit(&mut self, trial: Trial, q: usize) {
        for c in self.staged_range.clone() {
            std::mem::swap(&mut self.saved[c], &mut self.staged[c]);
            self.fresh[c] = true;
        }
        match trial {
            Trial::Neutral { at } => {
                for fresh in &mut self.fresh[at / self.stride + 1..=q / self.stride] {
                    *fresh = false;
                }
            }
            Trial::Decoded { from, makespan } => {
                for &task in &self.order[from..] {
                    self.starts[task] = self.trial[task];
                }
                self.makespan = makespan;
            }
            Trial::Rejected => unreachable!("a rejected candidate is not kept"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listsched::{priority_order, PriorityRule};
    use crate::model::Task;
    use crate::sgs::decode_with_makespan;

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

    /// The work is pinned apart from seconds: the run places 9 181 tasks,
    /// where decoding the seed, every candidate and the best order in full
    /// places `(iterations + 2) × n`.
    #[test]
    fn placements_are_pinned() {
        let inst = pseudo_random_instance(2, 15);
        let order: Vec<usize> = (0..inst.len()).collect();
        let result = anneal(
            &inst,
            &order,
            &AnnealConfig {
                iterations: 1_000,
                seed: 42,
                ..AnnealConfig::default()
            },
        );
        assert_eq!(result.placements, 9_181, "{} in full", 1_002 * 15);
    }

    /// Moving a task to the front, where it starts when it started before,
    /// is proven neutral by the one placement of the moved task: everything
    /// after it sees a superset of its old predecessors at their old starts.
    /// The checkpoints between the move's ends now describe other prefixes.
    #[test]
    fn a_neutral_backward_reinsert_stops_after_one_placement() {
        let inst = Instance::new((0..4).map(|i| task(i, 100, 1, 1)).collect(), 4, 16);
        let mut search = Search::new(&inst, &[0, 1, 2, 3]);
        assert_eq!((search.placements, search.stride), (4, 1));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut untouched = rng.clone();
        assert!(search.step(Move::Reinsert { from: 3, to: 0 }, &mut rng, 1.0));
        assert_eq!(search.placements, 5);
        assert_eq!(search.order, [3, 0, 1, 2]);
        assert_eq!(
            (search.starts.as_slice(), search.makespan),
            (&[0; 4][..], 100)
        );
        assert_eq!(search.fresh, [true, true, false, false]);
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no draw");
    }

    /// An order of any length keeps at most eight checkpoints, the first
    /// at position 0 and every one inside the order.
    #[test]
    fn checkpoints_are_bounded() {
        for n in [1, 2, 7, 8, 9, 17, 40, 1_000] {
            let inst = pseudo_random_instance(n as u64, n);
            let order: Vec<usize> = (0..n).collect();
            let search = Search::new(&inst, &order);
            let count = search.saved.len();
            assert!(
                count <= CHECKPOINTS && search.staged.len() == count,
                "n = {n}"
            );
            assert!((count - 1) * search.stride < n, "n = {n}");
            assert!(search.fresh.iter().all(|&f| f), "n = {n}");
        }
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
