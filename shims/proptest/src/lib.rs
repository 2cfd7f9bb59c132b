//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset used by this workspace's property tests:
//!
//! * the [`proptest!`] macro over `fn name(arg in strategy, ...) { body }` items,
//! * numeric range strategies (`1u64..5_000`, `1e-6f64..0.2`),
//! * [`collection::vec`] with either a fixed size or a size range,
//! * [`bool::ANY`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`].
//!
//! Differences from upstream: no shrinking (failures report the generated inputs
//! verbatim), and the number of cases per test defaults to 64 (override with the
//! `PROPTEST_CASES` environment variable).

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform};
use std::fmt::Debug;
use std::ops::Range;

/// The RNG handed to strategies by the generated test runner.
pub type TestRng = StdRng;

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and should not be counted.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection (used by `prop_assume!`).
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// A generator of random test-case values.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Debug;
    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<T> Strategy for Range<T>
where
    T: SampleUniform + Debug + Copy,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

/// Number of cases each `proptest!` test runs (`PROPTEST_CASES`, default 64).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Derive a deterministic per-test RNG from the test's name.
pub fn test_rng(name: &str) -> TestRng {
    use rand::SeedableRng;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    TestRng::seed_from_u64(hash)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Acceptable size arguments for [`vec()`]: a fixed size or a size range.
    pub trait IntoSizeRange {
        /// Draw a concrete length.
        fn pick_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.start..self.end)
        }
    }

    /// Strategy producing vectors whose elements come from `elem`.
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    /// A vector strategy with the given element strategy and size (fixed or range).
    pub fn vec<S: Strategy, L: IntoSizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }

    impl<S, L> Strategy for VecStrategy<S, L>
    where
        S: Strategy,
        S::Value: Debug,
        L: IntoSizeRange,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.len.pick_len(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing unbiased booleans.
    pub struct Any;

    /// The strategy for an arbitrary boolean.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{Strategy, TestCaseError};
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Reject the current case (it does not count towards the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject());
        }
    };
}

/// Define property tests.  Each inner `fn` runs [`cases`] random cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut rng = $crate::test_rng(stringify!($name));
            let target = $crate::cases();
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            while accepted < target {
                attempts += 1;
                assert!(
                    attempts <= target.saturating_mul(200),
                    "proptest '{}': too many rejected cases ({} accepted of {} wanted)",
                    stringify!($name), accepted, target
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; ",)*),
                    $(&$arg),*
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest '{}' failed after {} case(s): {}\n  inputs: {}",
                        stringify!($name), accepted + 1, msg, inputs
                    ),
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    proptest! {
        #[test]
        fn ranges_and_vectors_generate_in_bounds(
            x in 1u64..100,
            v in crate::collection::vec(0.0f64..1.0, 2..10),
            flag in crate::bool::ANY,
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 10, "len {}", v.len());
            prop_assert!(v.iter().all(|&p| (0.0..1.0).contains(&p)));
            let _ = flag;
        }

        #[test]
        fn fixed_size_vec_and_assume(
            v in crate::collection::vec(0usize..50, 3),
        ) {
            prop_assume!(v.iter().sum::<usize>() > 0);
            prop_assert_eq!(v.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "inputs:")]
    fn failing_case_reports_inputs() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
