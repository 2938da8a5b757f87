//! Property tests for the Pareto machinery: the non-dominated front must
//! be invariant under permutation of the objective axes, every point off
//! the front must be strictly dominated by some front member, rank 0 must
//! be the front, and the front must carry the set's whole hypervolume.

use proptest::prelude::*;
use rsched_metrics::pareto::{dominates, hypervolume, pareto_front, pareto_ranks};

/// All six permutations of three objective axes.
const PERMS_3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn to_points(raw: &[(i64, i64, i64)]) -> Vec<Vec<f64>> {
    raw.iter()
        .map(|&(a, b, c)| vec![a as f64, b as f64, c as f64])
        .collect()
}

fn permute(points: &[Vec<f64>], perm: &[usize; 3]) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|p| perm.iter().map(|&axis| p[axis]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn front_is_invariant_under_objective_permutation(
        raw in prop::collection::vec((0i64..12, 0i64..12, 0i64..12), 1..40),
        which in 0usize..6,
    ) {
        let points = to_points(&raw);
        let baseline = pareto_front(&points);
        let permuted = permute(&points, &PERMS_3[which]);
        // Dominance only compares coordinates pairwise, so reordering the
        // axes must not change which *indices* are non-dominated.
        prop_assert_eq!(pareto_front(&permuted), baseline);
    }

    #[test]
    fn every_dominated_point_has_a_strict_dominator_on_the_front(
        raw in prop::collection::vec((0i64..10, 0i64..10, 0i64..10), 1..40),
    ) {
        let points = to_points(&raw);
        let front = pareto_front(&points);
        prop_assert!(!front.is_empty(), "non-empty input must yield a front");
        for i in 0..points.len() {
            if front.contains(&i) {
                // Front members are dominated by nobody.
                for &f in &front {
                    prop_assert!(
                        !dominates(&points[f], &points[i]),
                        "front member {} dominated by {}", i, f
                    );
                }
            } else {
                prop_assert!(
                    front.iter().any(|&f| dominates(&points[f], &points[i])),
                    "off-front point {} lacks a strict dominator", i
                );
            }
        }
    }

    #[test]
    fn rank_zero_is_exactly_the_front(
        raw in prop::collection::vec((0i64..10, 0i64..10, 0i64..10), 1..30),
    ) {
        let points = to_points(&raw);
        let front = pareto_front(&points);
        let ranks = pareto_ranks(&points);
        for (i, &rank) in ranks.iter().enumerate() {
            prop_assert_eq!(rank == 0, front.contains(&i));
            prop_assert!(rank != usize::MAX, "finite points always rank");
        }
    }

    #[test]
    fn hypervolume_is_monotone_in_the_point_set(
        raw in prop::collection::vec((0i64..10, 0i64..10, 0i64..10), 2..20),
    ) {
        let points = to_points(&raw);
        let reference = vec![11.0, 11.0, 11.0];
        let all = hypervolume(&points, &reference);
        let fewer = hypervolume(&points[1..], &reference);
        // Adding points can only grow the dominated region.
        prop_assert!(all + 1e-9 >= fewer, "all={} fewer={}", all, fewer);
        // And the front alone carries the whole hypervolume.
        let front = pareto_front(&points);
        let front_points: Vec<Vec<f64>> =
            front.iter().map(|&i| points[i].clone()).collect();
        let front_hv = hypervolume(&front_points, &reference);
        prop_assert!((all - front_hv).abs() < 1e-9, "all={} front={}", all, front_hv);
    }
}
