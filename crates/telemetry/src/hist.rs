//! HDR-style log-bucketed histogram shared by every telemetry consumer.
//!
//! Values in `[0, 64)` land in exact unit buckets; above that each octave is
//! split into 64 sub-buckets, bounding the relative quantile error at
//! `1/64 ≈ 1.56%`. The layout is fixed (3776 buckets for the full `u64`
//! range), so two histograms fed the same values are byte-identical when
//! snapshotted — the property the deterministic exporters rely on.

/// Number of sub-buckets per octave (and the size of the exact region).
const SUB_BUCKETS: usize = 64;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 6;
/// Octave groups above the exact region: exponents `6..=63`.
const GROUPS: usize = 58;
/// Total bucket count for the full `u64` domain.
const BUCKETS: usize = SUB_BUCKETS + GROUPS * SUB_BUCKETS;

/// Log-bucketed histogram over `u64` samples with exact count/sum/min/max.
///
/// Quantiles are answered by nearest-rank over bucket lower bounds, clamped
/// to the observed `[min, max]` range; the relative error is at most one
/// sub-bucket width (≤ 1.56%).
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Lazily allocated on first record so empty histograms stay tiny.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. No bucket storage is allocated until the first
    /// [`record`](Self::record).
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: exact below 64, log-bucketed above.
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros();
            let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
            SUB_BUCKETS + ((exp - SUB_BITS) as usize) * SUB_BUCKETS + sub
        }
    }

    /// Lower bound of the value range covered by bucket `idx` — the
    /// representative returned by quantile queries.
    fn lower_bound(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            idx as u64
        } else {
            let group = (idx - SUB_BUCKETS) / SUB_BUCKETS;
            let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
            ((SUB_BUCKETS + sub) as u64) << group
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / u128::from(self.count)) as u64)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Returns the lower bound of the bucket holding the rank, clamped to
    /// the observed `[min, max]`; `q >= 1` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(Self::lower_bound(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condensed view for snapshots and exporters.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Point-in-time summary of a [`LogHistogram`] — the unit stored in metric
/// snapshots and rendered by the exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u128,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Median estimate (≤ 1.56% relative error).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub(crate) p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Every value below 64 has its own bucket, so quantiles are exact.
        assert_eq!(h.quantile(0.5), Some(31));
        assert_eq!(h.quantile(1.0), Some(63));
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.quantile(q).unwrap() as f64;
            let rel = (got - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.02, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.max(), Some(100_000));
        assert_eq!(h.mean(), Some(50_000));
    }

    #[test]
    fn index_and_lower_bound_round_trip() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1_000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let idx = LogHistogram::index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let lb = LogHistogram::lower_bound(idx);
            assert!(lb <= v, "lower bound {lb} above value {v}");
            if v >= 64 {
                // Bucket width is lb/64 rounded — value sits within one width.
                let width = 1u64 << ((idx - SUB_BUCKETS) / SUB_BUCKETS);
                assert!(
                    v - lb < width,
                    "value {v} not within bucket [{lb}, {lb}+{width})"
                );
            } else {
                assert_eq!(lb, v);
            }
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for v in [3u64, 99, 4_096, 70_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 2_000_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary().p99, 0);
    }
}
