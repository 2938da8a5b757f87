//! User and group assignment for generated jobs.
//!
//! The fairness objectives (paper §3.2) are computed per job *and* per
//! user, so workloads need user metadata. Real HPC traces show a skewed
//! submission distribution — a few heavy users submit most jobs — which we
//! model with a Zipf-like categorical weight.

use rsched_simkit::dist::Categorical;
use rsched_simkit::rng::Rng;

/// Assigns users (and their groups) to generated jobs.
#[derive(Debug, Clone)]
pub(crate) struct UserModel {
    weights: Categorical,
    groups_of_users: Vec<u32>,
}

impl UserModel {
    /// A population of `num_users` users with Zipf(`s`)-weighted submission
    /// propensity, partitioned into `num_groups` groups round-robin.
    ///
    /// # Panics
    /// Panics if `num_users == 0` or `num_groups == 0`.
    pub(crate) fn zipf(num_users: usize, num_groups: usize, s: f64) -> Self {
        assert!(num_users > 0, "need at least one user");
        assert!(num_groups > 0, "need at least one group");
        let weights: Vec<f64> = (1..=num_users)
            .map(|rank| 1.0 / (rank as f64).powf(s))
            .collect();
        UserModel {
            weights: Categorical::new(&weights),
            groups_of_users: (0..num_users).map(|u| (u % num_groups) as u32).collect(),
        }
    }

    /// A sensible default for an `n`-job workload: roughly one user per
    /// eight jobs (minimum 3), three groups, mild skew — matching the
    /// handful of users visible in the paper's traces (e.g. `user_6`).
    pub(crate) fn for_job_count(n: usize) -> Self {
        let users = (n / 8).max(3);
        UserModel::zipf(users, 3.min(users), 1.1)
    }

    /// Draw `(user, group)` for one job submission.
    pub fn sample(&self, rng: &mut dyn Rng) -> (u32, u32) {
        let user = self.weights.sample_index(rng) as u32;
        (user, self.groups_of_users[user as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_simkit::rng::Xoshiro256PlusPlus;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let m = UserModel::zipf(10, 2, 1.2);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            let (u, g) = m.sample(&mut rng);
            counts[u as usize] += 1;
            assert_eq!(g, u % 2, "round-robin groups");
        }
        assert!(counts[0] > counts[4], "rank 0 should dominate rank 4");
        assert!(counts[4] > counts[9], "rank 4 should dominate rank 9");
        assert!(counts.iter().all(|&c| c > 0), "all users appear");
    }

    #[test]
    fn for_job_count_scales() {
        assert_eq!(UserModel::for_job_count(10).groups_of_users.len(), 3);
        assert_eq!(UserModel::for_job_count(60).groups_of_users.len(), 7);
        assert_eq!(UserModel::for_job_count(100).groups_of_users.len(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let _ = UserModel::zipf(0, 1, 1.0);
    }

    #[test]
    fn deterministic_sampling() {
        let m = UserModel::for_job_count(40);
        let a: Vec<(u32, u32)> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
            (0..40).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<(u32, u32)> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
            (0..40).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
