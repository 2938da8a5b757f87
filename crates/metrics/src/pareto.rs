//! Multiobjective dominance analysis: Pareto fronts, non-dominated
//! ranks, and the hypervolume indicator.
//!
//! The paper evaluates schedulers on a *vector* of objectives (§3.2); a
//! policy is interesting not because it wins one metric but because no
//! other policy beats it on every metric at once. This module supplies
//! that machinery:
//!
//! * [`ObjectiveSpace`] — the objectives compared, in a fixed order;
//! * [`pareto_front`] — the non-dominated subset, by one pairwise scan
//!   (a campaign group holds one point per policy);
//! * [`pareto_ranks`] — non-dominated sorting into successive fronts
//!   (rank 0 = the Pareto front);
//! * [`hypervolume`] — the exact Lebesgue measure of the region
//!   dominated by a point set, against a reference point.
//!
//! All functions take minimization-oriented coordinate slices, so they
//! are usable on any objective vectors, not just metric reports.

use crate::report::Metric;

/// A named set of objectives with a fixed order. A caller orients each
/// coordinate for minimization, negating higher-is-better metrics.
///
/// ```
/// use rsched_metrics::{pareto::ObjectiveSpace, Metric};
///
/// let space = ObjectiveSpace::new(vec![Metric::AvgWait, Metric::Throughput]);
/// assert_eq!(space.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSpace {
    metrics: Vec<Metric>,
}

impl ObjectiveSpace {
    /// An objective space over `metrics`, in the given order.
    pub fn new(metrics: Vec<Metric>) -> Self {
        ObjectiveSpace { metrics }
    }

    /// The paper's four headline objectives: wait, turnaround, node
    /// utilization, wait fairness.
    pub fn paper_default() -> Self {
        ObjectiveSpace::new(vec![
            Metric::AvgWait,
            Metric::AvgTurnaround,
            Metric::NodeUtilization,
            Metric::WaitFairness,
        ])
    }

    /// The metrics, in extraction order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no objectives are configured.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// `true` iff `a` strictly dominates `b` under minimization: `a ≤ b` in
/// every coordinate and `a < b` in at least one. Identical points do not
/// dominate each other. Panics if the slices differ in length.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strict = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Indices of the non-dominated points of `points` (minimization), in
/// ascending index order. Duplicated coordinate vectors are all kept:
/// neither strictly dominates the other.
///
/// Each point is checked against every other, O(n²). A point containing
/// NaN, or of another length than the first non-empty point, is never on
/// the front and dominates nothing.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    let Some(dim) = points.iter().map(Vec::len).find(|&len| len > 0) else {
        return Vec::new();
    };
    let valid = |p: &Vec<f64>| p.len() == dim && !p.iter().any(|v| v.is_nan());
    (0..points.len())
        .filter(|&i| valid(&points[i]))
        .filter(|&i| !points.iter().any(|q| valid(q) && dominates(q, &points[i])))
        .collect()
}

/// Non-dominated sorting: rank 0 is the Pareto front, rank 1 the front
/// of what remains once rank 0 is removed, and so on. Points with NaN
/// coordinates (never on any front) receive `usize::MAX`.
pub fn pareto_ranks(points: &[Vec<f64>]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; points.len()];
    let mut remaining: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].iter().all(|v| !v.is_nan()))
        .collect();
    let mut rank = 0usize;
    while !remaining.is_empty() {
        let subset: Vec<Vec<f64>> = remaining.iter().map(|&i| points[i].clone()).collect();
        let front_local = pareto_front(&subset);
        if front_local.is_empty() {
            break; // unreachable for non-empty NaN-free input; guards loops
        }
        for &local in &front_local {
            ranks[remaining[local]] = rank;
        }
        let on_front: std::collections::BTreeSet<usize> = front_local.into_iter().collect();
        remaining = remaining
            .into_iter()
            .enumerate()
            .filter(|(local, _)| !on_front.contains(local))
            .map(|(_, global)| global)
            .collect();
        rank += 1;
    }
    ranks
}

/// Exact hypervolume indicator (minimization): the Lebesgue measure of
/// the union of boxes `[pᵢ, reference]` over all points that strictly
/// dominate the reference point. Points at or beyond the reference in
/// any coordinate contribute nothing.
///
/// Computed by recursive slicing on the last objective (the classic
/// "hypervolume by slicing objectives" scheme): exact in any dimension,
/// O(n log n) for two objectives, and comfortably fast for the
/// policy-sized fronts (≤ dozens of points) campaigns produce.
///
/// ```
/// use rsched_metrics::pareto::hypervolume;
///
/// // Two staircase points against (4, 4): box (2,1)→(4,4) is 2×3 = 6,
/// // box (1,3)→(4,4) is 3×1 = 3, their overlap (2,3)→(4,4) is 2×1 = 2,
/// // so the union measures 6 + 3 − 2 = 7.
/// let hv = hypervolume(&[vec![2.0, 1.0], vec![1.0, 3.0]], &[4.0, 4.0]);
/// assert!((hv - 7.0).abs() < 1e-12);
/// ```
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let dim = reference.len();
    assert!(dim > 0, "hypervolume needs at least one objective");
    let contributing: Vec<&[f64]> = points
        .iter()
        .filter(|p| {
            p.len() == dim
                && p.iter()
                    .zip(reference)
                    .all(|(&v, &r)| v.is_finite() && v < r)
        })
        .map(|p| p.as_slice())
        .collect();
    hv_recursive(&contributing, reference)
}

fn hv_recursive(points: &[&[f64]], reference: &[f64]) -> f64 {
    let dim = reference.len();
    if points.is_empty() {
        return 0.0;
    }
    if dim == 1 {
        // Union of intervals [pᵢ, r] is one interval from the smallest pᵢ.
        let min = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return reference[0] - min;
    }
    // Slice along the last objective: between consecutive levels, the
    // cross-section is the (d−1)-dimensional hypervolume of the points
    // already "active" at that depth.
    let mut order: Vec<&[f64]> = points.to_vec();
    // Finite coordinates (checked by the caller) order by `total_cmp` as
    // by `<`, except that -0.0 sorts before 0.0; the two share one level.
    order.sort_by(|a, b| a[dim - 1].total_cmp(&b[dim - 1]));
    let mut total = 0.0;
    let mut active: Vec<&[f64]> = Vec::with_capacity(order.len());
    let mut idx = 0;
    while idx < order.len() {
        let level = order[idx][dim - 1];
        while idx < order.len() && order[idx][dim - 1] == level {
            active.push(&order[idx][..dim - 1]);
            idx += 1;
        }
        let next_level = if idx < order.len() {
            order[idx][dim - 1]
        } else {
            reference[dim - 1]
        };
        if next_level > level {
            total += hv_recursive(&active, &reference[..dim - 1]) * (next_level - level);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "trade-off");
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "identical");
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn front_of_a_staircase_keeps_everything() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![3.0, 3.0], // dominated by (2,3)
            vec![2.0, 3.0],
            vec![4.0, 4.0], // dominated by every other point
        ];
        assert_eq!(pareto_front(&pts), vec![0, 2]);
    }

    #[test]
    fn duplicates_all_stay_on_the_front() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 0.5]];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn three_objective_front_matches_naive() {
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let a = ((i * 7919) % 23) as f64;
                let b = ((i * 104729) % 19) as f64;
                let c = ((i * 31) % 17) as f64;
                vec![a, b, c]
            })
            .collect();
        let naive: Vec<usize> = (0..pts.len())
            .filter(|&i| !pts.iter().any(|q| dominates(q, &pts[i])))
            .collect();
        assert_eq!(pareto_front(&pts), naive);
    }

    #[test]
    fn an_infinite_coordinate_is_compared_like_any_other() {
        // Nothing dominates (0, ∞); (0, ∞) dominates (1, ∞).
        let pts = vec![vec![0.0, f64::INFINITY], vec![1.0, f64::INFINITY]];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn ranks_peel_successive_fronts() {
        let pts = vec![
            vec![1.0, 1.0], // rank 0
            vec![2.0, 2.0], // rank 2: (1,2) still dominates it at rank 1
            vec![3.0, 3.0], // rank 3
            vec![1.0, 2.0], // rank 1 (dominated only by (1,1))
        ];
        assert_eq!(pareto_ranks(&pts), vec![0, 2, 3, 1]);
    }

    #[test]
    fn nan_points_never_rank() {
        let pts = vec![vec![1.0, f64::NAN], vec![2.0, 2.0]];
        assert_eq!(pareto_front(&pts), vec![1]);
        assert_eq!(pareto_ranks(&pts), vec![usize::MAX, 0]);
    }

    #[test]
    fn hypervolume_2d_hand_computed() {
        // Single point: box (1,2)→(4,4) = 3×2.
        let hv = hypervolume(&[vec![1.0, 2.0]], &[4.0, 4.0]);
        assert!((hv - 6.0).abs() < 1e-12);
        // Staircase (1,3),(2,1) vs (4,4): 3×1 + 2×3 − 2×1 overlap = 7.
        let hv = hypervolume(&[vec![1.0, 3.0], vec![2.0, 1.0]], &[4.0, 4.0]);
        assert!((hv - 7.0).abs() < 1e-12, "{hv}");
        // A dominated point adds nothing.
        let hv2 = hypervolume(
            &[vec![1.0, 3.0], vec![2.0, 1.0], vec![3.0, 3.5]],
            &[4.0, 4.0],
        );
        assert!((hv2 - 7.0).abs() < 1e-12, "{hv2}");
    }

    #[test]
    fn hypervolume_3d_hand_computed() {
        // One point: box (0,0,0)→(2,3,4) = 24.
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[2.0, 3.0, 4.0]);
        assert!((hv - 24.0).abs() < 1e-12);
        // Two boxes vs (2,2,2): (0,0,1)→r = 2·2·1 = 4, (1,1,0)→r = 1·1·2 = 2,
        // overlap (1,1,1)→r = 1 → union 5.
        let hv = hypervolume(
            &[vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 0.0]],
            &[2.0, 2.0, 2.0],
        );
        assert!((hv - 5.0).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume_ignores_points_beyond_the_reference() {
        let hv = hypervolume(
            &[vec![5.0, 1.0], vec![1.0, 4.0], vec![2.0, 2.0]],
            &[4.0, 4.0],
        );
        // (5,1) is beyond the reference in x; (1,4) sits exactly on it in y
        // (no strict domination → excluded). Only (2,2): 2×2 = 4.
        assert!((hv - 4.0).abs() < 1e-12, "{hv}");
    }

    #[test]
    fn hypervolume_empty_and_degenerate() {
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
        let hv = hypervolume(&[vec![1.0]], &[3.0]);
        assert!((hv - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_default_space_has_four_objectives() {
        let space = ObjectiveSpace::paper_default();
        assert_eq!(space.len(), 4);
        assert!(!space.is_empty());
        assert_eq!(space.metrics()[0], Metric::AvgWait);
    }
}
