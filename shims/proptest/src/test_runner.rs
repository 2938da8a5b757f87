//! Case configuration, deterministic RNG, and failure plumbing.

use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property case (carried out of the test body by `prop_assert!`).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: String) -> Self {
        TestCaseError { message }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Deterministic splitmix64 generator seeded from `(test name, case index)`.
///
/// Reproducibility beats entropy for CI: a red case number re-fails
/// identically on every machine.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for case `case` of test `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        let seed = hasher
            .finish()
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(case) + 1));
        TestRng { state: seed }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping is fine for testing use.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
