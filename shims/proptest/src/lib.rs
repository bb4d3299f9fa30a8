//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace replaces
//! `proptest` with this shim via a path dependency. It implements the
//! subset of the API the test suites consume:
//!
//! * [`Strategy`] with [`Strategy::prop_map`] and [`Strategy::boxed`];
//! * range, tuple, [`collection::vec`], [`option::of`], [`Just`] and
//!   union strategies;
//! * [`any`] over the primitive types;
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`], [`prop_assume!`] and [`prop_oneof!`] macros.
//!
//! Sampling is purely random (no shrinking) but fully deterministic: each
//! test function derives its RNG seed from its own module path and name,
//! so failures reproduce across runs and are independent of test
//! execution order or thread count.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::rc::Rc;

pub mod test_runner;

pub use test_runner::{Config as ProptestConfig, TestRng};

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the whole test fails.
    Fail(String),
    /// A precondition (`prop_assume!`) did not hold; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failing-case error.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// Builds a rejected-case error.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
            TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

/// Result type of a single generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of values of one type.
///
/// Unlike real proptest there is no shrinking: `sample` draws one value
/// from the deterministic [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erases the strategy's concrete type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| inner.sample(rng)))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice between several strategies of one value type
/// (the engine behind [`prop_oneof!`]).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(trivial_numeric_casts)]
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = rng.below_u128(span);
                (self.start as i128 + off as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            #[allow(trivial_numeric_casts)]
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let off = rng.below_u128(span);
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let u = rng.uniform_f64();
        let v = self.start + u * (self.end - self.start);
        // Guard against round-up to the exclusive bound.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        let wide = (f64::from(self.start)..f64::from(self.end)).sample(rng);
        wide as f32
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            #[allow(trivial_numeric_casts)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy for an unconstrained value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Admissible length specifications for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for vectors whose length lies in `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            // 1-in-4 None, matching real proptest's default weighting
            // closely enough for coverage purposes.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    /// Strategy for `Option<T>` values over an inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// The `proptest::prelude` equivalent: everything tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };

    /// Namespaced access to the strategy modules (`prop::collection::vec`
    /// and friends).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// item expands to a `#[test]`-style function that samples the strategies
/// `config.cases` times and runs the body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = config.cases.saturating_mul(10).max(config.cases);
            while accepted < config.cases && attempts < max_attempts {
                attempts += 1;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let inputs = {
                    let mut s = String::new();
                    $(s.push_str(&format!(
                        concat!(stringify!($arg), " = {:?}; "),
                        &$arg
                    ));)+
                    s
                };
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body;
                        ::core::result::Result::Ok(())
                    })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case failed: {}\n  inputs: {}",
                            msg, inputs
                        );
                    }
                }
            }
            if accepted < config.cases {
                eprintln!(
                    "warning: {} accepted only {accepted}/{} cases before the rejection budget ran out",
                    stringify!($name),
                    config.cases
                );
            }
        }
    )*};
}

/// Fails the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current test case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Fails the current test case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, $($fmt)+);
    }};
}

/// Rejects the current test case (drawing a fresh sample) unless `cond`
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = (-5i32..6).sample(&mut rng);
            assert!((-5..6).contains(&i));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let s = prop::collection::vec(any::<u64>(), 1..20);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    #[test]
    fn oneof_union_covers_all_arms() {
        let mut rng = TestRng::for_test("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: tuples, maps, assume, assert.
        #[test]
        fn macro_pipeline_works(
            v in prop::collection::vec((0u8..10, any::<bool>()), 0..8),
            n in (1u32..50).prop_map(|x| x * 2),
        ) {
            prop_assume!(n != 4);
            prop_assert!(n % 2 == 0, "n = {n} should be even");
            prop_assert_eq!(v.len(), v.iter().filter(|_| true).count());
            prop_assert_ne!(n, 3);
        }
    }
}
