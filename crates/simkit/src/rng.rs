//! Deterministic pseudo-random number generation.
//!
//! The workspace never uses OS entropy: every random stream is derived from
//! an explicit seed so that experiments are reproducible bit-for-bit.
//!
//! * `SplitMix64` — a tiny, high-quality mixer used to expand seeds and to
//!   derive independent child seeds ([`SeedTree`]).
//! * [`Xoshiro256PlusPlus`] — the workhorse generator (Blackman & Vigna's
//!   xoshiro256++), fast and statistically strong for simulation use.
//! * [`Rng`] — the trait downstream code programs against, with helpers for
//!   ranges, floats, shuffling and choosing.

/// A source of uniformly distributed 64-bit values plus derived helpers.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in the half-open interval `[0, 1)`, with 53 bits of
    /// precision.
    fn unit_f64(&mut self) -> f64 {
        // Use the top 53 bits; (value >> 11) * 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1]` — safe to pass to `ln`.
    fn unit_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` using Lemire's unbiased multiply-shift
    /// rejection method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn gen_range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range_u64: empty range");
        // Lemire (2019): unbiased bounded integers via 128-bit multiply.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive: lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range_u64(span + 1)
    }

    /// A uniform `usize` index in `[0, n)`.
    fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range_u64(n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generic helpers on any [`Rng`]; kept out of the base trait so that
/// `dyn Rng` stays object-safe.
pub trait RngExt: Rng {
    /// Fisher–Yates shuffle in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Sebastiano Vigna's SplitMix64: a 64-bit mixer with full period, used here
/// for seed expansion and derivation. Not intended as a workhorse generator.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a raw seed. Any value, including zero, is acceptable.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The core mixing function applied to a single value (stateless).
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, 2019): the workspace's workhorse
/// generator. 256-bit state, period 2^256 − 1, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed via SplitMix64 expansion, per the reference implementation's
    /// recommendation; guarantees a non-zero state for every seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256PlusPlus { s }
    }
}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Reproducible per-component seed derivation.
///
/// A `SeedTree` hashes a root seed together with string labels and integer
/// indices, so that e.g. the workload generator for scenario "het_mix", run
/// 3, always receives the same seed — independent of the order in which other
/// components drew theirs.
///
/// ```
/// use rsched_simkit::rng::SeedTree;
///
/// let root = SeedTree::new(42);
/// let a = root.derive("workload", 0);
/// let b = root.derive("workload", 1);
/// let c = root.derive("latency", 0);
/// assert_ne!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(a, SeedTree::new(42).derive("workload", 0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// A tree rooted at `root`.
    pub fn new(root: u64) -> Self {
        SeedTree { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derive a 64-bit seed for component `label`, stream `index`.
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        let mut h = SplitMix64::mix(self.root);
        for &b in label.as_bytes() {
            h = SplitMix64::mix(h ^ u64::from(b));
        }
        SplitMix64::mix(h ^ index)
    }

    /// Derive a ready-to-use generator for component `label`, stream `index`.
    pub fn rng(&self, label: &str, index: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(self.derive(label, index))
    }

    /// A subtree rooted at the derived seed, for nested components.
    pub fn subtree(&self, label: &str, index: u64) -> SeedTree {
        SeedTree::new(self.derive(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_by_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from state {1, 2, 3, 4}, per the
        // public-domain reference implementation.
        let mut rng = Xoshiro256PlusPlus { s: [1, 2, 3, 4] };
        let expected: [u64; 8] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seeding_never_yields_zero_state() {
        for seed in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            assert!(rng.s.iter().any(|&w| w != 0));
        }
    }

    #[test]
    fn unit_f64_in_range_and_varied() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < 0.01, "min {min} suspiciously high");
        assert!(max > 0.99, "max {max} suspiciously low");
    }

    #[test]
    fn unit_f64_open_never_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.unit_f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn gen_range_is_unbiased_enough() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1234);
        let n = 10u64;
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.gen_range_u64(n) as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3}");
        }
    }

    #[test]
    fn gen_range_inclusive_covers_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.gen_range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_zero_panics() {
        let mut rng = SplitMix64::new(0);
        let _ = rng.gen_range_u64(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle left input in order");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SplitMix64::new(0);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn seed_tree_is_stable_and_label_sensitive() {
        let t = SeedTree::new(0xABCD);
        assert_eq!(t.derive("x", 0), SeedTree::new(0xABCD).derive("x", 0));
        assert_ne!(t.derive("x", 0), t.derive("x", 1));
        assert_ne!(t.derive("x", 0), t.derive("y", 0));
        assert_ne!(t.derive("ab", 0), t.derive("ba", 0));
        let sub = t.subtree("component", 2);
        assert_ne!(sub.derive("x", 0), t.derive("x", 0));
    }

    #[test]
    fn gen_bool_probability_roughly_honored() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
