//! Offline mini property-testing shim exposing the subset of the
//! `proptest` API this workspace uses: `Strategy` with `prop_map`,
//! range and tuple strategies, `Just`, `prop_oneof!`,
//! `proptest::collection::vec`, the `proptest!` test macro with
//! `#![proptest_config(...)]`, and `prop_assert!`/`prop_assert_eq!`.
//!
//! No shrinking: a failing case panics with the case index and the
//! deterministic per-test seed, which is reproducible by rerunning the
//! test (generation is seeded from the test name).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::ops::Range;

/// The RNG driving generation (deterministic per test).
pub type TestRng = StdRng;

/// Builds the deterministic generator for a named test.
pub fn new_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

/// Per-invocation configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// A failed property: carries the rendered assertion message.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (for heterogeneous unions).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A constant strategy: always yields a clone of its value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
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

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// A uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union; panics when empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.0.len());
        self.0[i].generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngExt;
    use std::ops::Range;

    /// A `Vec` strategy with length drawn from `len` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a `proptest!` test body needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Uniform choice across strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts inside a `proptest!` body; failure aborts only the current
/// case with a rendered message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        __l,
                        __r
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        format!($($fmt)+),
                        __l,
                        __r
                    )));
                }
            }
        }
    };
}

/// The test harness macro: runs each embedded test over `cases`
/// random inputs drawn from the argument strategies.
#[macro_export]
macro_rules! proptest {
    (@run $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::new_rng(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut __rng);)+
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case,
                            __cfg.cases,
                            __e
                        );
                    }
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @run $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @run $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps_generate() {
        let mut rng = crate::new_rng("ranges_and_maps_generate");
        let s = (0..10usize).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn oneof_hits_all_options() {
        let mut rng = crate::new_rng("oneof_hits_all_options");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[crate::Strategy::generate(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::new_rng("vec_strategy_respects_length");
        let s = crate::collection::vec(0.0f64..1.0, 1..5);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn harness_runs_cases(x in 0.0f64..1.0, n in 1..10usize) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert_eq!(n.min(9), n, "n was {}", n);
        }
    }
}
