//! Offline shim for the `proptest` API subset used by this workspace.
//!
//! The build environment has no network access to crates.io, so the
//! workspace patches `proptest` to this crate (see `[patch.crates-io]` in
//! the root `Cargo.toml`). It provides deterministic random generation
//! with the same trait/macro surface the tests use — `Strategy` with
//! `prop_map`/`prop_flat_map`/`prop_filter`, integer range strategies,
//! tuples, `Just`, `prop_oneof!`, `collection::vec`, `proptest!`,
//! `prop_assert*!`, `prop_assume!`, and `ProptestConfig` — but does NOT
//! implement shrinking: a failing case reports its case index and inputs
//! are reproducible from the deterministic per-case RNG seed.
//!
//! `ProptestConfig::default()` honours the `PROPTEST_CASES` environment
//! variable exactly like the real crate's CI override.

pub mod strategy;

pub mod test_runner {
    /// Deterministic per-case RNG (SplitMix64). Case `i` of every test
    /// uses the same stream on every run, so failures reproduce exactly.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn deterministic(case: u64) -> Self {
            TestRng {
                state: case
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x5851_F42D_4C95_7F2D),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform-ish value in `[0, span)`. Modulo bias is acceptable in
        /// a test-input generator.
        pub fn below(&mut self, span: u128) -> u128 {
            debug_assert!(span > 0);
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            wide % span
        }
    }

    /// Why a test case did not pass: a genuine failure, or a rejected
    /// input (`prop_assume!`) that should simply be skipped.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The subset of proptest's runner configuration the tests construct.
    /// Extra knobs exist only so `..ProptestConfig::default()` struct
    /// literals keep working; they are ignored.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(256);
            Config {
                cases,
                max_shrink_iters: 0,
            }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on the length of a generated collection.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub lo: usize,
        pub hi: usize,
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
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u128;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// One strategy chosen uniformly per case from several alternatives
/// producing the same value type (the `prop_oneof!` desugaring).
pub struct Union<T> {
    options: Vec<Box<dyn strategy::Strategy<Value = T>>>,
}

impl<T> Union<T> {
    pub fn empty() -> Self {
        Union {
            options: Vec::new(),
        }
    }

    pub fn push<S: strategy::Strategy<Value = T> + 'static>(&mut self, s: S) {
        self.options.push(Box::new(s));
    }
}

impl<T> strategy::Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        assert!(!self.options.is_empty(), "prop_oneof! of zero strategies");
        let i = rng.below(self.options.len() as u128) as usize;
        self.options[i].generate(rng)
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let mut union = $crate::Union::empty();
        $(union.push($strat);)+
        union
    }};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)).into(),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(stringify!($cond)).into(),
            );
        }
    };
}

/// The property-test entry macro: expands each `fn name(pat in strategy,
/// ...)` into a plain test function that generates `cases` inputs and
/// runs the body against each. Rejected cases (`prop_assume!`) are
/// skipped; failures panic with the case index so the deterministic RNG
/// reproduces them.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            config = <$crate::test_runner::Config as ::core::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                for case in 0..config.cases.max(1) as u64 {
                    let mut rng = $crate::test_runner::TestRng::deterministic(case);
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let result: $crate::test_runner::TestCaseResult = (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match result {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => panic!("proptest case {case}/{} failed: {msg}", config.cases),
                    }
                }
            }
        )*
    };
}
