//! Offline shim for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the *subset* of proptest's API its property tests
//! use: the [`proptest!`] macro, [`prop_assert!`]/[`prop_assert_eq!`],
//! `ProptestConfig::with_cases`, integer/float range strategies, strategy
//! tuples, `prop::collection::vec`, and two regex-class string strategies
//! (`"[ -~]*"` printable ASCII, `"\PC*"` non-control Unicode).
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its generated inputs
//!   verbatim; minimization is up to the reader.
//! * **Deterministic seeding.** Case `i` of test `t` derives its RNG from
//!   `hash(t) ⊕ i`, so failures reproduce exactly across runs and CI.
//!
//! The *properties themselves* are untouched — this harness runs the same
//! invariants over the same strategy space. Swap this path dependency for
//! the real crate when a registry is available.

#![deny(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Strategy combinators namespace (mirrors `proptest::prop`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Runs each property as a `#[test]`-style loop over generated cases.
///
/// Supports the same shape as real proptest:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..100, v in prop::collection::vec(0u64..9, 1..5)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => { $(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(error) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        error,
                        inputs,
                    );
                }
            }
        }
    )* };
}

/// Fails the enclosing property if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the enclosing property if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right,
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0.5f64..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.5..2.5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in prop::collection::vec((0u64..10, 1usize..4), 2..9)
        ) {
            prop_assert!((2..9).contains(&v.len()));
            for &(a, b) in &v {
                prop_assert!(a < 10);
                prop_assert!((1..4).contains(&b));
            }
        }

        #[test]
        fn printable_ascii_class(s in "[ -~]*") {
            prop_assert!(s.chars().all(|c| (' '..='~').contains(&c)), "bad char in {s:?}");
        }

        #[test]
        fn non_control_class(s in "\\PC*") {
            prop_assert!(!s.chars().any(char::is_control));
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_case("t", 7);
        let mut b = crate::test_runner::TestRng::for_case("t", 7);
        let sa = (0u64..1_000_000).generate(&mut a);
        let sb = (0u64..1_000_000).generate(&mut b);
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
