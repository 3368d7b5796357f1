//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest 1.x API this workspace uses:
//! the `proptest!` / `prop_assert*` / `prop_assume!` macros, `Strategy`
//! with `prop_map` / `prop_filter`, `any::<T>()`, integer/float range
//! strategies, char-class string patterns (`"[a-z]{0,6}"`), tuples,
//! `collection::{vec, btree_map}`, and `option::of`.
//!
//! Differences from real proptest: no shrinking (failures report the seed
//! and case index instead), and each test's RNG is seeded from the test's
//! module path, so runs are fully deterministic.

pub mod test_runner {
    /// Stand-in for `proptest::test_runner::Config` (aka `ProptestConfig`).
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        /// As in the real crate, only the default honors `PROPTEST_CASES`;
        /// an explicit [`Config::with_cases`] wins over the environment.
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Config { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// `prop_assert*` failed; the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(_reason: impl Into<String>) -> Self {
            TestCaseError::Reject
        }
    }

    /// Deterministic xoshiro256++ RNG, seeded from the test name.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the test path gives a stable per-test seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::from_seed(h)
        }

        pub fn from_seed(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform double in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, reason: impl Into<String>, predicate: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                predicate,
            }
        }
    }

    /// Strategies are stateless, so a reference is also a strategy.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

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

    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        predicate: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.predicate)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter({:?}) rejected 1000 consecutive values",
                self.reason
            );
        }
    }

    /// Always produces a clone of the given value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    /// Char-class patterns like `"[a-zA-Z0-9_./ -]{1,24}"`: the only regex
    /// shape the workspace's strategies use.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (alphabet, min, max) = parse_char_class(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_char_class(pattern: &str) -> (Vec<char>, usize, usize) {
        fn bad(pattern: &str) -> ! {
            panic!("unsupported pattern {pattern:?}: expected \"[class]{{m,n}}\"")
        }
        let rest = pattern.strip_prefix('[').unwrap_or_else(|| bad(pattern));
        let close = rest.find(']').unwrap_or_else(|| bad(pattern));
        let class: Vec<char> = rest[..close].chars().collect();
        let counts = rest[close + 1..]
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or_else(|| bad(pattern));
        let (m, n) = counts.split_once(',').unwrap_or_else(|| bad(pattern));
        let (min, max): (usize, usize) = (
            m.trim().parse().unwrap_or_else(|_| bad(pattern)),
            n.trim().parse().unwrap_or_else(|_| bad(pattern)),
        );
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                for c in class[i]..=class[i + 2] {
                    alphabet.push(c);
                }
                i += 3;
            } else {
                alphabet.push(class[i]);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty char class in {pattern:?}");
        (alphabet, min, max)
    }

    macro_rules! tuple_strategies {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub struct Any<T>(PhantomData<T>);

    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(PhantomData)
    }

    macro_rules! any_ints {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // Mostly arbitrary bit patterns (which include NaN and
            // infinities, as real proptest's any::<f64>() does), with a
            // sprinkle of pathological values for coverage.
            const SPECIAL: [f64; 10] = [
                0.0,
                -0.0,
                1.0,
                -1.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::MIN,
                f64::MAX,
                f64::EPSILON,
            ];
            if rng.below(8) == 0 {
                SPECIAL[rng.below(SPECIAL.len() as u64) as usize]
            } else {
                f64::from_bits(rng.next_u64())
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        assert!(size.start < size.end, "empty btree_map size range");
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let target = self.size.start + rng.below(span) as usize;
            let mut map = BTreeMap::new();
            // Key collisions shrink the map, so over-generate a little.
            for _ in 0..target * 4 {
                if map.len() >= target {
                    break;
                }
                map.insert(self.key.generate(rng), self.value.generate(rng));
            }
            map
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            config = <$crate::test_runner::Config as ::std::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __cfg.cases {
                __attempts += 1;
                if __attempts > __cfg.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "proptest shim: prop_assume! rejected too many cases in {}",
                        stringify!($name)
                    );
                }
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        Ok(())
                    })();
                match __result {
                    Ok(()) => __accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {} of {} failed: {}",
                            __accepted + 1,
                            stringify!($name),
                            msg
                        );
                    }
                }
            }
        }
    )*};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: {} at {}:{}",
                    stringify!($cond),
                    file!(),
                    line!()
                ),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{} at {}:{}", format!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n at {}:{}",
                __l,
                __r,
                file!(),
                line!()
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `left != right`\n  both: {:?}\n at {}:{}",
                __l,
                file!(),
                line!()
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn char_class_patterns_generate_within_spec() {
        let mut rng = TestRng::for_test("char_class");
        for _ in 0..500 {
            let s = "[a-zA-Z0-9_./ -]{1,24}".generate(&mut rng);
            assert!((1..=24).contains(&s.chars().count()), "{s:?}");
            for c in s.chars() {
                assert!(
                    c.is_ascii_alphanumeric() || "_./ -".contains(c),
                    "{c:?} outside class"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_machinery_works(v in 1u8..=255, items in crate::collection::vec(any::<u64>(), 0..10)) {
            prop_assume!(v != 13);
            prop_assert!(v >= 1);
            prop_assert_eq!(items.len(), items.len());
            prop_assert_ne!(v, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_and_maps(m in crate::collection::btree_map("[a-z]{1,8}", 0i64..100, 0..6)) {
            for (k, v) in &m {
                prop_assert!((1..=8).contains(&k.len()));
                prop_assert!((0..100).contains(v));
            }
        }
    }
}
