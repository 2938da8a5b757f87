//! Streaming and descriptive statistics.
//!
//! The metric crate aggregates per-run results with [`RunningStats`]
//! (Welford's online algorithm), the robustness study (paper Figure 7)
//! summarizes repeated runs with [`BoxplotStats`], and the overhead analysis
//! (Figures 5–6) reads per-call latency percentiles with [`quantile`].

/// Compensated (Kahan–Babuška) summation, for long metric accumulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    pub fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// The compensated total.
    pub fn total(&self) -> f64 {
        self.sum
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut k = KahanSum::new();
        for x in iter {
            k.add(x);
        }
        k
    }
}

/// Online mean/variance/min/max via Welford's algorithm; mergeable.
#[derive(Debug, Clone, Copy)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation. Non-finite values are counted but excluded from
    /// moments would corrupt them, so they panic in debug builds.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "RunningStats::push: non-finite {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Linear-interpolation quantile of already-collected data.
///
/// `q` is clamped to `[0, 1]`. Returns `None` for empty input. The input
/// need not be sorted; a sorted copy is made internally.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile of pre-sorted data (linear interpolation, type-7 / NumPy default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile_sorted: empty data");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Five-number summary plus Tukey whiskers and outliers — the data behind a
/// box plot (paper Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Lowest observation within 1.5 IQR below Q1.
    pub(crate) whisker_lo: f64,
    /// Highest observation within 1.5 IQR above Q3.
    pub(crate) whisker_hi: f64,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
    /// Number of observations.
    pub count: usize,
}

impl BoxplotStats {
    /// Compute box-plot statistics. Returns `None` for empty input.
    pub fn from_data(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("BoxplotStats: NaN in data"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let median = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(*sorted.last().expect("non-empty"));
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        Some(BoxplotStats {
            min: sorted[0],
            q1,
            median,
            q3,
            max: *sorted.last().expect("non-empty"),
            whisker_lo,
            whisker_hi,
            outliers,
            count: sorted.len(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_adversarial_input() {
        // 1 + 1e-16 added 1e6 times: naive summation loses the small terms.
        let mut k = KahanSum::new();
        k.add(1.0);
        for _ in 0..1_000_000 {
            k.add(1e-16);
        }
        assert!((k.total() - (1.0 + 1e-10)).abs() < 1e-12);
    }

    #[test]
    fn running_stats_basic_moments() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn running_stats_empty_defaults() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: RunningStats = data.iter().copied().collect();
        let mut left: RunningStats = data[..37].iter().copied().collect();
        let right: RunningStats = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].into_iter().collect();
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 2);
        let mut e = RunningStats::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_eq!(quantile(&data, 0.5), Some(2.5));
        assert_eq!(quantile(&data, 0.25), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
        // Unsorted input handled.
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5));
    }

    #[test]
    fn boxplot_five_numbers() {
        let data: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        let b = BoxplotStats::from_data(&data).expect("non-empty");
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 6.0);
        assert_eq!(b.max, 11.0);
        assert_eq!(b.q1, 3.5);
        assert_eq!(b.q3, 8.5);
        assert!(b.outliers.is_empty());
        assert_eq!(b.count, 11);
    }

    #[test]
    fn boxplot_flags_outliers() {
        let mut data: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        data.push(1000.0);
        let b = BoxplotStats::from_data(&data).expect("non-empty");
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 20.0);
        assert_eq!(b.max, 1000.0);
    }

    #[test]
    fn boxplot_single_point() {
        let b = BoxplotStats::from_data(&[5.0]).expect("non-empty");
        assert_eq!(b.min, 5.0);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.iqr(), 0.0);
        assert!(BoxplotStats::from_data(&[]).is_none());
    }
}
