//! Value-generation strategies: integer/float ranges, tuples, vectors,
//! and a tiny regex-class subset for strings.

use std::fmt::Debug;
use std::ops::Range;

use crate::test_runner::TestRng;

/// Something that can generate values of an associated type.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy maps an RNG directly to a value.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps every generated value through `func` — the shim's version of
    /// proptest's combinator of the same name (no shrinking, like
    /// everything else here).
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, func: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, func }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    func: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.func)(self.source.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => { $(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(
                    self.start < self.end,
                    "empty integer range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )+ };
}

int_range_strategy!(u8, u32, u64, usize);

macro_rules! signed_int_range_strategy {
    ($($t:ty),+) => { $(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(
                    self.start < self.end,
                    "empty integer range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )+ };
}

signed_int_range_strategy!(i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty float range");
        let value = self.start + rng.unit_f64() * (self.end - self.start);
        // Guard against FP rounding landing exactly on the excluded end.
        if value >= self.end {
            self.start
        } else {
            value
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => { $(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+ };
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
}

/// Strategy for vectors with lengths drawn from a size range.
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// `prop::collection::vec(element, len_range)`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// String strategies from a small regex-class subset.
///
/// Supported patterns (everything the workspace's tests use):
///
/// * `[a-b]*` — zero or more chars from the inclusive class `a..=b`;
/// * `\PC*` — zero or more non-control Unicode scalars (proptest's
///   "anything printable-ish" fuzz pattern).
///
/// Anything else panics loudly rather than silently generating the wrong
/// distribution.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const MAX_LEN: u64 = 32;
        let len = rng.below(MAX_LEN + 1) as usize;
        if let Some(class) = self.strip_suffix('*') {
            if class == "\\PC" {
                return (0..len).map(|_| non_control_char(rng)).collect();
            }
            if let Some(range) = parse_char_class(class) {
                let (lo, hi) = range;
                let span = (hi as u32) - (lo as u32) + 1;
                return (0..len)
                    .map(|_| {
                        char::from_u32(lo as u32 + rng.below(u64::from(span)) as u32)
                            .expect("class stays inside valid scalar range")
                    })
                    .collect();
            }
        }
        panic!("proptest shim: unsupported regex strategy {self:?} (supported: \"[a-b]*\", \"\\\\PC*\")");
    }
}

fn parse_char_class(class: &str) -> Option<(char, char)> {
    let inner = class.strip_prefix('[')?.strip_suffix(']')?;
    let mut chars = inner.chars();
    let lo = chars.next()?;
    if chars.next()? != '-' {
        return None;
    }
    let hi = chars.next()?;
    if chars.next().is_some() || hi < lo {
        return None;
    }
    Some((lo, hi))
}

fn non_control_char(rng: &mut TestRng) -> char {
    loop {
        // Bias toward ASCII (half the draws) so parsers see realistic text,
        // while still exercising the full scalar space.
        let candidate = if rng.below(2) == 0 {
            rng.below(0x80) as u32
        } else {
            rng.below(0x11_0000) as u32
        };
        if let Some(c) = char::from_u32(candidate) {
            if !c.is_control() {
                return c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ranges_hit_their_bounds_eventually() {
        let mut rng = TestRng::for_case("bounds", 0);
        let strategy = 5u32..8;
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = strategy.generate(&mut rng);
            assert!((5..8).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range drawn");
    }

    #[test]
    fn char_class_parses() {
        assert_eq!(parse_char_class("[ -~]"), Some((' ', '~')));
        assert_eq!(parse_char_class("[a-]"), None);
        assert_eq!(parse_char_class("nope"), None);
    }

    #[test]
    #[should_panic(expected = "unsupported regex")]
    fn unsupported_pattern_panics() {
        let mut rng = TestRng::for_case("regex", 0);
        let _ = "(a|b)+".generate(&mut rng);
    }
}
