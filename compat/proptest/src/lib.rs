//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, vendored so tier-1 (`cargo build && cargo test`) works with no
//! network access (see ISSUE 1, satellite "vendor or feature-gate").
//!
//! It implements exactly the API subset this workspace's property tests
//! use — `proptest!`, `prop_assert*!`, `prop_assume!`, `prop_oneof!`,
//! integer-range / tuple / `Just` / `any::<T>()` strategies, `prop_map`,
//! `BoxedStrategy`, `prop::sample::select` and `prop::collection::vec` —
//! on top of a deterministic SplitMix64 generator. Differences from real
//! proptest:
//!
//! * cases are derived deterministically from the test's module path and
//!   name, so failures reproduce without a persistence file;
//! * there is no shrinking — the failing input is printed as generated;
//! * rejected cases (`prop_assume!`) count as passes rather than being
//!   re-drawn.
//!
//! The default case count is 64 and can be overridden with the
//! `PROPTEST_CASES` environment variable, mirroring real proptest.

pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property failed.
        Fail(String),
        /// The case was rejected by `prop_assume!`.
        Reject(String),
    }

    impl TestCaseError {
        /// A failed case with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected case with the given reason.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to generate per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
            Config { cases }
        }
    }

    /// Deterministic SplitMix64 generator seeding each case from the
    /// property name and case index.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds case `case` of property `name`.
        pub fn for_case(name: &str, case: u64) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Rejection-free multiply-shift reduction is fine for tests.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// Drives `f` for every case of `cfg`, panicking on the first failure
    /// (with the case index, so a run reproduces deterministically).
    pub fn run_cases(
        cfg: &Config,
        name: &str,
        mut f: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        for case in 0..cfg.cases as u64 {
            let mut rng = TestRng::for_case(name, case);
            match f(&mut rng) {
                Ok(()) | Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(reason)) => {
                    panic!("property {name} failed at case {case}/{}: {reason}", cfg.cases)
                }
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A value generator. Unlike real proptest there is no shrinking:
    /// `generate` produces the final value directly.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A / a);
    tuple_strategy!(A / a, B / b);
    tuple_strategy!(A / a, B / b, C / c);
    tuple_strategy!(A / a, B / b, C / c, D / d);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Mix raw bit patterns (covers inf/NaN/subnormals) with
            // "ordinary" magnitudes that arithmetic actually produces.
            if rng.next_u64() & 1 == 0 {
                f64::from_bits(rng.next_u64())
            } else {
                let m = rng.next_u64() as i64 as f64;
                m / 1024.0
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly selects one element of a non-empty collection.
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    /// Uniform choice from a slice or `Vec` of values.
    pub fn select<T: Clone>(items: impl Into<Vec<T>>) -> Select<T> {
        let items = items.into();
        assert!(!items.is_empty(), "select over an empty collection");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` of `len` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
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
    (config = $cfg:expr;
     $($(#[$attr:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                $crate::test_runner::run_cases(
                    &config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |rng| {
                        $(let $arg =
                            $crate::strategy::Strategy::generate(&($strat), rng);)+
                        let case = || -> ::core::result::Result<
                            (),
                            $crate::test_runner::TestCaseError,
                        > {
                            $body
                            ::core::result::Result::Ok(())
                        };
                        case()
                    },
                );
            }
        )*
    };
}

/// Uniform choice between alternative strategies producing the same
/// value type. (Real proptest's per-arm weights are not supported.)
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
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
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}: {}", a, b, format!($($fmt)*));
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}: {}", a, b, format!($($fmt)*));
    }};
}

/// Rejects the current case unless `cond` holds (counted as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn determinism() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = (-5i64..7).generate(&mut rng);
            assert!((-5..7).contains(&v));
            let w = (0u8..3).generate(&mut rng);
            assert!(w < 3);
            let x = (-2i32..=2).generate(&mut rng);
            assert!((-2..=2).contains(&x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_roundtrip(x in 0u32..100, pair in (0i64..4, prop::sample::select(vec![1, 2, 3]))) {
            prop_assert!(x < 100);
            prop_assert_ne!(pair.1, 0);
            prop_assume!(pair.0 != 17); // never rejects
            prop_assert_eq!(pair.0, pair.0);
        }

        #[test]
        fn oneof_and_collections(v in prop::collection::vec(prop_oneof![0u64..3, Just(9u64)], 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 3 || x == 9));
        }
    }
}
