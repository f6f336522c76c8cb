//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a compact property-testing runner covering exactly the
//! surface its tests use: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`strategy::Just`],
//! `prop_oneof!` unions, `prop::collection::{vec, btree_set}`, the
//! `proptest!` test macro with `#![proptest_config(..)]`, and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` assertions.
//!
//! Differences from real proptest: cases are sampled from a
//! deterministic per-test RNG (no persisted failure seeds) and there
//! is **no shrinking** — a failing case panics with its inputs via the
//! assertion message. That is sufficient for regression coverage here;
//! the trade was forced by the offline build.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration and the runner's RNG.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Marker returned by `prop_assume!` when a case must be discarded.
    #[derive(Debug, Clone, Copy)]
    pub struct Rejected;

    /// Subset of proptest's `Config` that the tests actually set.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG handed to strategies during sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        pub(crate) inner: StdRng,
    }

    impl TestRng {
        /// RNG whose stream is fully determined by `seed`.
        pub fn deterministic(seed: u64) -> Self {
            TestRng {
                inner: StdRng::seed_from_u64(seed),
            }
        }
    }

    /// Stable FNV-1a hash used to derive a per-test seed from its name.
    pub fn hash_name(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: `sample` draws a
    /// fresh value directly (no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform every generated value with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Generate a value, then sample from a strategy built from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { source: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.sample(rng)).sample(rng)
        }
    }

    impl<T: rand::SampleUniform> Strategy for std::ops::Range<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            rng.inner.gen_range(self.start..self.end)
        }
    }

    impl<T: rand::SampleUniform> Strategy for std::ops::RangeInclusive<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            rng.inner.gen_range(*self.start()..=*self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A.0);
    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

    /// Type-erased strategy, as produced by [`boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            (**self).sample(rng)
        }
    }

    /// Erase a strategy's concrete type (used by `prop_oneof!`).
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            let idx = rng.inner.gen_range(0..self.options.len());
            self.options[idx].sample(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Element-count specification: an exact size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            if self.hi <= self.lo + 1 {
                self.lo
            } else {
                rng.inner.gen_range(self.lo..self.hi)
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and size.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy producing `BTreeSet`s of `element` values.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `BTreeSet` strategy; duplicates collapse, so the set may come
    /// out smaller than the drawn size (as in real proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace alias so `prop::collection::vec(..)` works as in proptest.
pub mod prop {
    pub use super::collection;
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::prop;
    pub use super::strategy::{Just, Strategy};
    pub use super::test_runner::ProptestConfig;
    pub use super::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines `#[test]` functions that run a body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                $crate::test_runner::hash_name(stringify!($name)),
            );
            let mut __cases_run: u32 = 0;
            let mut __attempts: u32 = 0;
            let __max_attempts: u32 = __config.cases.saturating_mul(20).max(1000);
            while __cases_run < __config.cases {
                if __attempts >= __max_attempts {
                    panic!(
                        "proptest {}: exhausted {} attempts with only {}/{} accepted cases \
                         (prop_assume! rejects too much input)",
                        stringify!($name), __attempts, __cases_run, __config.cases
                    );
                }
                __attempts += 1;
                let __outcome = (|| -> ::core::result::Result<(), $crate::test_runner::Rejected> {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                    $body
                    ::core::result::Result::Ok(())
                })();
                if __outcome.is_ok() {
                    __cases_run += 1;
                }
            }
        }
    )*};
}

/// Assert within a proptest body (panics with the inputs' message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { ::core::assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { ::core::assert!($cond, $($fmt)+) };
}

/// Equality assertion within a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { ::core::assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { ::core::assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assertion within a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { ::core::assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { ::core::assert_ne!($a, $b, $($fmt)+) };
}

/// Discard the current case (does not count towards `cases`) when the
/// sampled input fails a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

/// Uniform choice among several strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_maps_sample_in_bounds() {
        let mut rng = TestRng::deterministic(1);
        let s = (0u32..10, 5usize..8).prop_map(|(a, b)| a as usize + b);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((5..18).contains(&v));
        }
    }

    #[test]
    fn flat_map_threads_dependent_sizes() {
        let mut rng = TestRng::deterministic(2);
        let s = (1usize..5).prop_flat_map(|n| (Just(n), prop::collection::vec(0u32..10, n)));
        for _ in 0..50 {
            let (n, v) = s.sample(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn oneof_picks_each_arm() {
        let mut rng = TestRng::deterministic(3);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_runs_and_assumes(x in 0u32..100, ys in prop::collection::vec(0u32..50, 1..10)) {
            prop_assume!(x > 0);
            prop_assert!(x < 100, "x was {}", x);
            let doubled: Vec<u32> = ys.iter().map(|y| y * 2).collect();
            prop_assert_eq!(doubled.len(), ys.len());
        }
    }
}
