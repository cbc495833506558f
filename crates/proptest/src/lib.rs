//! A minimal property-based-testing harness exposing the subset of the
//! `proptest` crate API this workspace's test suites use.
//!
//! The build environment has no access to crates.io, so the workspace
//! aliases `proptest` to this crate (see `[workspace.dependencies]`).
//! Semantics compared to the real proptest:
//!
//! * strategies generate values directly (no value trees, **no shrinking**);
//!   a failing case panics with the generated inputs so it can be minimised
//!   by hand;
//! * each test function draws from a deterministic RNG seeded from the test
//!   name, so failures are reproducible run-over-run;
//! * `prop_assert*` and `prop_assume!` follow the real control flow (early
//!   `return Err(..)` from the case closure, rejected cases don't count as
//!   failures).
//!
//! Supported surface: `proptest!` (with optional `#![proptest_config(..)]`),
//! range strategies over the primitive numeric types, `any::<T>()`,
//! tuple strategies, `prop::collection::vec`, `prop::sample::select`,
//! `Strategy::prop_map`, `Just`, and `ProptestConfig::with_cases`.

#![warn(missing_docs)]

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::fmt;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    use amsfi_rand::{RngCore, RngExt};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real proptest this generates values directly instead of
    /// value trees, which removes shrinking but keeps the API shape.
    pub trait Strategy {
        /// The type of the generated values.
        type Value: fmt::Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (mirrors
        /// `proptest::strategy::Strategy::prop_map`).
        fn prop_map<O: fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The output of [`Strategy::prop_map`].
    #[derive(Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
        O: fmt::Debug,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + fmt::Debug>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(i64, u64, i32, u32, usize, u8, u16, f64);

    /// Values produced by [`crate::arbitrary::any`].
    #[derive(Debug)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized + fmt::Debug {
        /// Generates an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, symmetric around zero, spanning many magnitudes.
            let mantissa = rng.random_range(-1.0f64..1.0);
            let exp = rng.random_range(-300i32..300);
            mantissa * 2f64.powi(exp)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+ ))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    //! The [`any`] entry point.

    use crate::strategy::{Any, Arbitrary};
    use std::marker::PhantomData;

    /// A strategy generating arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use amsfi_rand::RngExt;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
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

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            SizeRange { lo, hi }
        }
    }

    /// A strategy generating `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The output of [`vec()`].
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies (`prop::sample::select`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use amsfi_rand::RngExt;
    use std::fmt;

    /// A strategy picking uniformly from a fixed list of values.
    pub fn select<T: Clone + fmt::Debug>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "cannot select from an empty list");
        Select { items }
    }

    /// The output of [`select`].
    #[derive(Debug)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone + fmt::Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.random_range(0..self.items.len())].clone()
        }
    }
}

pub mod test_runner {
    //! Configuration and the per-test RNG.

    use amsfi_rand::rngs::StdRng;
    use amsfi_rand::{RngCore, SeedableRng};

    /// Runner configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real default (256) makes simulation-heavy suites slow;
            // 64 keeps good coverage at interactive test times.
            ProptestConfig { cases: 64 }
        }
    }

    /// The deterministic RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seeds a generator from a test name, so every test has its own
        /// reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Why a generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; not a failure.
        Reject(String),
        /// A `prop_assert*` failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }
}

pub mod prelude {
    //! Everything the `proptest::prelude::*` imports in this workspace need.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` module alias used by `prop::collection::vec` etc.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Declares property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn it_holds(x in 0i64..100, flag in any::<bool>()) {
///         prop_assert!(x >= 0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_cases {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case_nr in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => {
                            panic!(
                                "property failed at case #{case_nr}: {msg}\n  inputs: {inputs}"
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`: {}",
            l,
            format!($($fmt)*)
        );
    }};
}

/// Rejects the current case (does not count as a failure) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_generate_in_bounds(x in 5i64..25, y in 0.0f64..=1.0) {
            prop_assert!((5..25).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn vec_respects_size_range(
            v in prop::collection::vec(any::<bool>(), 2..6),
            exact in prop::collection::vec(0u32..9, 4),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert_eq!(exact.len(), 4);
        }

        #[test]
        fn select_draws_from_the_list(v in prop::sample::select(vec![1, 2, 3])) {
            prop_assert!([1, 2, 3].contains(&v));
        }

        #[test]
        fn prop_map_applies(d in (0i64..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(d % 2, 0);
            prop_assert_ne!(d, 19);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let s = 0i64..1_000_000;
        for _ in 0..10 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    // The macro expands to an inner `#[test]` fn; here it is called directly.
    #[allow(unnameable_test_items)]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #[test]
            fn always_fails(x in 0i64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
