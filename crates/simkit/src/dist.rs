//! Probability distributions, implemented from scratch.
//!
//! The workload scenarios (paper §3.1) draw job durations from uniform and
//! gamma distributions and interarrival gaps from exponential distributions;
//! the LLM latency models (paper §3.7) use log-normal bodies with Pareto
//! tails. All of those samplers live here, behind the object-safe
//! [`Sample`] trait so scenario configurations can mix them dynamically.

use crate::rng::Rng;

/// An object-safe sampler of `f64` values.
pub trait Sample {
    /// Draw one value.
    fn sample(&self, rng: &mut dyn Rng) -> f64;

    /// The distribution mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "Uniform: non-finite bound"
        );
        assert!(lo <= hi, "Uniform: lo > hi");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.unit_f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`), via inverse transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with rate `lambda > 0`.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Exponential: rate must be > 0"
        );
        Exponential { rate }
    }

    /// Exponential with the given mean (`1/rate`).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "Exponential: mean must be > 0"
        );
        Exponential { rate: 1.0 / mean }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        -rng.unit_f64_open().ln() / self.rate
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
}

/// Normal (Gaussian) via Marsaglia's polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Normal with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std < 0` or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && std.is_finite(),
            "Normal: non-finite parameter"
        );
        assert!(std >= 0.0, "Normal: negative std");
        Normal { mean, std }
    }

    /// One standard normal variate.
    pub fn standard_variate(rng: &mut dyn Rng) -> f64 {
        // Marsaglia polar method; the spare variate is discarded so the
        // sampler stays stateless (`&self`).
        loop {
            let u = 2.0 * rng.unit_f64() - 1.0;
            let v = 2.0 * rng.unit_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.mean + self.std * Normal::standard_variate(rng)
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Log-normal: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal with log-space mean `mu` and log-space std `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma < 0` or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "LogNormal: non-finite parameter"
        );
        assert!(sigma >= 0.0, "LogNormal: negative sigma");
        LogNormal { mu, sigma }
    }

    /// Log-normal parameterized by its real-space median and the log-space
    /// spread `sigma` — often the more intuitive calibration.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "LogNormal: median must be > 0");
        LogNormal::new(median.ln(), sigma)
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        (self.mu + self.sigma * Normal::standard_variate(rng)).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Gamma with shape `k` and scale `theta`, via Marsaglia & Tsang (2000).
///
/// The Heterogeneous Mix scenario draws walltimes from
/// `Gamma(shape = 1.5, scale = 300)` (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Gamma with shape `k > 0` and scale `theta > 0`.
    ///
    /// # Panics
    /// Panics unless both parameters are strictly positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0,
            "Gamma: shape and scale must be > 0"
        );
        Gamma { shape, scale }
    }

    fn sample_shape_ge_1(shape: f64, rng: &mut dyn Rng) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard_variate(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.unit_f64_open();
            // Squeeze step, then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let raw = if self.shape >= 1.0 {
            Gamma::sample_shape_ge_1(self.shape, rng)
        } else {
            // Boosting trick: Gamma(k) = Gamma(k + 1) · U^(1/k) for k < 1.
            let g = Gamma::sample_shape_ge_1(self.shape + 1.0, rng);
            g * rng.unit_f64_open().powf(1.0 / self.shape)
        };
        raw * self.scale
    }
    fn mean(&self) -> Option<f64> {
        Some(self.shape * self.scale)
    }
}

/// Pareto (type I) with scale `xm > 0` and tail index `alpha > 0`.
///
/// Used for the heavy tail of the O4-Mini latency model: the smaller the
/// `alpha`, the fatter the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Pareto with minimum value `xm` and shape `alpha`.
    ///
    /// # Panics
    /// Panics unless both parameters are strictly positive and finite.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(
            xm.is_finite() && xm > 0.0 && alpha.is_finite() && alpha > 0.0,
            "Pareto: xm and alpha must be > 0"
        );
        Pareto { xm, alpha }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.xm / rng.unit_f64_open().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.xm / (self.alpha - 1.0))
    }
}

/// A discrete distribution over `0..weights.len()` with the given
/// (unnormalized, non-negative) weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Build from unnormalized weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Categorical: no weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "Categorical: bad weight {w}");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "Categorical: zero total weight");
        Categorical { cumulative }
    }

    /// Draw an index in `0..len`.
    pub fn sample_index(&self, rng: &mut dyn Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.unit_f64() * total;
        // partition_point returns the first index whose cumulative > x.
        let idx = self.cumulative.partition_point(|&c| c <= x);
        idx.min(self.cumulative.len() - 1)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` if there are no categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

impl Sample for Categorical {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.sample_index(rng) as f64
    }
}

/// Poisson-distributed counts with mean `lambda`.
///
/// Small means use Knuth's product method; large means fall back to a
/// normal approximation (adequate for burst-size generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Poisson with mean `lambda > 0`.
    ///
    /// # Panics
    /// Panics unless `lambda` is strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "Poisson: lambda must be > 0"
        );
        Poisson { lambda }
    }

    /// Draw one count.
    pub(crate) fn sample_count(&self, rng: &mut dyn Rng) -> u64 {
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.unit_f64_open();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.lambda + self.lambda.sqrt() * Normal::standard_variate(rng);
            x.round().max(0.0) as u64
        }
    }
}

impl Sample for Poisson {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.sample_count(rng) as f64
    }
    fn mean(&self) -> Option<f64> {
        Some(self.lambda)
    }
}

/// Clamp an inner distribution's samples into `[lo, hi]` — used to keep
/// latency and walltime draws within physically plausible bounds.
#[derive(Debug, Clone)]
pub struct Clamped<D> {
    inner: D,
    lo: f64,
    hi: f64,
}

impl<D: Sample> Clamped<D> {
    /// Clamp `inner`'s output into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "Clamped: lo > hi");
        Clamped { inner, lo, hi }
    }
}

impl<D: Sample> Sample for Clamped<D> {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;
    use crate::stats::RunningStats;

    fn stats_of(dist: &dyn Sample, n: usize, seed: u64) -> RunningStats {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut s = RunningStats::new();
        for _ in 0..n {
            s.push(dist.sample(&mut rng));
        }
        s
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(30.0, 120.0);
        let s = stats_of(&d, 50_000, 2);
        assert!(s.min() >= 30.0 && s.max() < 120.0);
        assert!((s.mean() - 75.0).abs() < 1.0, "mean {}", s.mean());
        assert_eq!(d.mean(), Some(75.0));
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(250.0);
        let s = stats_of(&d, 100_000, 3);
        assert!((s.mean() - 250.0).abs() < 5.0, "mean {}", s.mean());
        assert!(s.min() >= 0.0);
        // Exponential std == mean.
        assert!((s.std_dev() - 250.0).abs() < 10.0, "std {}", s.std_dev());
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let s = stats_of(&d, 100_000, 4);
        assert!((s.mean() - 10.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "std {}", s.std_dev());
    }

    #[test]
    fn lognormal_median_calibration() {
        let d = LogNormal::from_median(4.0, 0.5);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut v: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 4.0).abs() < 0.1, "median {median}");
        assert!(v[0] > 0.0);
    }

    #[test]
    fn gamma_paper_parameters() {
        // Heterogeneous Mix walltime: Gamma(shape=1.5, scale=300) — mean 450.
        let d = Gamma::new(1.5, 300.0);
        let s = stats_of(&d, 100_000, 6);
        assert!((s.mean() - 450.0).abs() < 10.0, "mean {}", s.mean());
        // Variance = k * theta^2 = 135_000 → std ≈ 367.4.
        assert!((s.std_dev() - 367.4).abs() < 15.0, "std {}", s.std_dev());
        assert!(s.min() > 0.0);
    }

    #[test]
    fn gamma_shape_below_one() {
        let d = Gamma::new(0.5, 2.0);
        let s = stats_of(&d, 100_000, 7);
        assert!((s.mean() - 1.0).abs() < 0.05, "mean {}", s.mean());
        assert!(s.min() > 0.0);
    }

    #[test]
    fn pareto_tail_minimum_and_mean() {
        let d = Pareto::new(1.0, 3.0);
        let s = stats_of(&d, 100_000, 8);
        assert!(s.min() >= 1.0);
        // mean = alpha/(alpha-1) = 1.5
        assert!((s.mean() - 1.5).abs() < 0.05, "mean {}", s.mean());
        assert_eq!(Pareto::new(1.0, 0.5).mean(), None);
    }

    #[test]
    fn categorical_respects_weights() {
        let d = Categorical::new(&[1.0, 0.0, 3.0]);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[d.sample_index(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        for (lambda, seed) in [(3.0, 11u64), (100.0, 12u64)] {
            let d = Poisson::new(lambda);
            let s = stats_of(&d, 50_000, seed);
            assert!(
                (s.mean() - lambda).abs() < lambda.sqrt() * 0.1,
                "lambda {lambda}: mean {}",
                s.mean()
            );
        }
    }

    #[test]
    fn clamped_respects_bounds() {
        let d = Clamped::new(Normal::new(0.0, 100.0), -1.0, 1.0);
        let s = stats_of(&d, 10_000, 13);
        assert!(s.min() >= -1.0 && s.max() <= 1.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Gamma::new(1.5, 300.0);
        let a: Vec<f64> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn categorical_rejects_all_zero() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }
}
